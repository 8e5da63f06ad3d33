"""Distributed LQ-game controller synthesis and simulation for sampled
plants with per-controller input delays."""

from .errors import (
    CouplingSingularityError,
    DelayBoundError,
    DelayGameError,
    DimensionError,
    IntervalError,
    SchemaError,
    SingularMatrixError,
    ValidationError,
)
from .lin_ops import (
    solve,
    symmetrize,
)
from .model import (
    ContinuousPlant,
    DiscretePlant,
    ExperimentConfig,
    GameWeights,
    PRESETS,
    Scheme,
    config_from_dict,
    config_to_dict,
    discretize,
    dump_config,
    load_config,
    preset_generic,
    preset_lfc,
)
from .schemes import (
    SchemeResult,
    SweepPoint,
    compare_schemes,
    run_scheme,
    sweep_delays,
    synthesize_for_scheme,
    write_comparison_csv,
    write_sweep_csv,
)
from .simulate import (
    DeviationReport,
    NASH_TOLERANCE,
    Trajectory,
    evaluate_costs,
    nash_deviation_check,
    read_trajectory_csv,
    rollout,
    write_trajectory_csv,
)
from .synthesis import (
    GainSchedule,
    synthesize,
    synthesize_batch,
)

__version__ = "0.1.0"

__all__ = [
    "ContinuousPlant",
    "CouplingSingularityError",
    "DelayBoundError",
    "DelayGameError",
    "DeviationReport",
    "DimensionError",
    "DiscretePlant",
    "ExperimentConfig",
    "GainSchedule",
    "GameWeights",
    "IntervalError",
    "NASH_TOLERANCE",
    "PRESETS",
    "SchemaError",
    "Scheme",
    "SchemeResult",
    "SingularMatrixError",
    "SweepPoint",
    "Trajectory",
    "ValidationError",
    "compare_schemes",
    "config_from_dict",
    "config_to_dict",
    "discretize",
    "dump_config",
    "evaluate_costs",
    "load_config",
    "nash_deviation_check",
    "preset_generic",
    "preset_lfc",
    "read_trajectory_csv",
    "rollout",
    "run_scheme",
    "solve",
    "sweep_delays",
    "symmetrize",
    "synthesize",
    "synthesize_batch",
    "synthesize_for_scheme",
    "write_comparison_csv",
    "write_sweep_csv",
    "write_trajectory_csv",
]
