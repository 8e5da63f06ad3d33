"""Distributed LQ-game controller synthesis and simulation for sampled
plants with per-controller input delays.

Public names are imported from their modules on first use (PEP 562), so
importing the package, or one command's modules, loads no other module.
"""

import importlib

# Each public name and the module that defines it.
_HOMES = {
    "errors": (
        "CouplingSingularityError",
        "DelayBoundError",
        "DelayGameError",
        "DimensionError",
        "IntervalError",
        "NumericalError",
        "SchemaError",
        "SingularMatrixError",
        "ValidationError",
    ),
    "lin_ops": ("solve", "symmetrize"),
    "model": (
        "ContinuousPlant",
        "DiscretePlant",
        "ExperimentConfig",
        "GainSchedule",
        "GameWeights",
        "PRESETS",
        "Scheme",
        "config_from_dict",
        "config_to_dict",
        "discretize",
        "dump_config",
        "load_config",
        "preset_generic",
        "preset_lfc",
    ),
    "schemes": (
        "SchemeResult",
        "SweepPoint",
        "compare_schemes",
        "run_scheme",
        "sweep_delays",
        "write_comparison_csv",
        "write_sweep_csv",
    ),
    "simulate": (
        "Trajectory",
        "evaluate_costs",
        "read_trajectory_csv",
        "rollout",
        "write_trajectory_csv",
    ),
    "deviation": ("DeviationReport", "NASH_TOLERANCE", "nash_deviation_check"),
    "synthesis": ("synthesize", "synthesize_batch", "synthesize_for_scheme"),
}
_MODULE_OF = {name: module for module, names in _HOMES.items()
              for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
