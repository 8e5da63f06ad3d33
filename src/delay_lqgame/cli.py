"""Command-line front end.

Subcommands mirror the offline/online split: ``synthesize`` computes and
persists a gain schedule, ``simulate`` replays one (or does both in a
single run), and ``discretize``/``sweep``/``compare``/``preset`` cover the
remaining plumbing.  All file output is byte-deterministic: floats are
rendered as their shortest round-trip decimals and reruns of the same
invocation rewrite identical bytes.

Exit codes: 0 success, 1 configuration/validation failure or a path that
cannot be read or written, 2 numerical failure (singular coupling), 64
usage error.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .errors import (
    DelayGameError,
    DimensionError,
    IntervalError,
    SchemaError,
    SingularMatrixError,
    ValidationError,
)
from .model import (
    PRESETS,
    Scheme,
    _number,
    discretize,
    dump_config,
    load_config,
)
from .schemes import (
    compare_schemes,
    comparison_rows,
    run_scheme,
    sweep_delays,
    sweep_rows,
    synthesize_for_scheme,
    write_comparison_csv,
    write_sweep_csv,
)
from .simulate import rollout, write_trajectory_csv
from .synthesis import GainSchedule

GAINS_FORMAT = "delay-lqgame-gains/1"


def plant_hash(plant):
    """Fingerprint of a validated continuous plant and the gains format,
    for schedule/plant pairing.

    It covers the inputs (A, B_i, delays, h), not their discretization, so
    a last-bit change in the exponentials does not orphan gains files.
    """
    digest = hashlib.sha256()
    digest.update(f"{GAINS_FORMAT};M={plant.M};N={plant.N};p={plant.p};"
                  .encode())
    for values in (plant.A.ravel(), *(b.ravel() for b in plant.B),
                   plant.delays, (plant.h,)):
        digest.update(";".join(repr(float(v)) for v in values).encode())
        digest.update(b"|")
    return digest.hexdigest()


def schedule_to_dict(schedule, plant):
    return {
        "format": GAINS_FORMAT,
        "scheme": schedule.scheme.value,
        "M": schedule.M,
        "N": schedule.N,
        "p": schedule.p,
        "horizon": schedule.horizon,
        "plant_hash": plant_hash(plant),
        "A_coef": schedule.A_coef.tolist(),
        "B_coef": schedule.B_coef.tolist(),
    }


def _gains_array(doc, key, axes):
    path = f"<gains>.{key}"
    try:
        cells = np.array(doc[key], dtype=object)
    except ValueError as exc:
        raise SchemaError(path, f"expected a numeric array: {exc}") from None
    if cells.ndim != axes:
        raise SchemaError(path, f"expected {axes} axes, got {cells.ndim}")
    # The config reader's number rule (no strings, no booleans); floats,
    # all a gains file holds, pass without a call.
    values = [v if type(v) is float else _number(v, path) for v in cells.flat]
    return np.array(values, dtype=float).reshape(cells.shape)


def schedule_from_dict(doc, plant):
    if not isinstance(doc, dict) or doc.get("format") != GAINS_FORMAT:
        raise SchemaError("<gains>", f"not a {GAINS_FORMAT} document")
    for key in ("scheme", "A_coef", "B_coef", "horizon", "p"):
        if key not in doc:
            raise SchemaError(f"<gains>.{key}", "missing field")
    if doc.get("plant_hash") != plant_hash(plant):
        raise ValidationError(
            "plant-hash mismatch: the gain schedule was synthesized for a "
            "different plant")
    try:
        scheme = Scheme(doc["scheme"])
    except ValueError:
        raise SchemaError("<gains>.scheme",
                          f"unknown scheme {doc['scheme']!r}") from None
    schedule = GainSchedule(scheme, _gains_array(doc, "A_coef", 4),
                            _gains_array(doc, "B_coef", 5))
    if schedule.horizon != doc["horizon"] or schedule.p != doc["p"]:
        raise SchemaError("<gains>", "coefficient arrays disagree with metadata")
    return schedule


def _write_text(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _write_json(doc, out):
    _write_text(json.dumps(doc, indent=2) + "\n", out)


def _load_config_file(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError("<config>", f"not UTF-8 text: {exc}") from None
    return load_config(text)


def _pick_scheme(config, args):
    if getattr(args, "scheme", None):
        return Scheme(args.scheme)
    return config.scheme


def _warn_unshared_weights(config):
    if not config.weights.shares_state_cost():
        sys.stderr.write(
            "warning: controllers weight the state differently; j_total "
            "uses controller 1's state weights with every controller's "
            "control effort\n")


# --- subcommand handlers ---------------------------------------------------

def _cmd_preset(args):
    config = PRESETS[args.name]()
    _write_text(dump_config(config), args.out)
    return 0


def _cmd_discretize(args):
    config = _load_config_file(args.config)
    dp = discretize(config.plant)
    doc = {
        "M": dp.M,
        "N": dp.N,
        "p": dp.p,
        "h": config.plant.h,
        "delays": list(config.plant.delays),
        "Phi": dp.Phi.tolist(),
        "Gamma0": [g.tolist() for g in dp.Gamma0],
        "Gamma1": [g.tolist() for g in dp.Gamma1],
    }
    _write_json(doc, args.out)
    return 0


def _cmd_synthesize(args):
    config = _load_config_file(args.config)
    scheme = _pick_scheme(config, args)
    schedule = synthesize_for_scheme(config, scheme)
    _write_json(schedule_to_dict(schedule, config.plant), args.out)
    return 0


def _cmd_simulate(args):
    config = _load_config_file(args.config)
    _warn_unshared_weights(config)
    if args.gains:
        try:
            doc = json.loads(Path(args.gains).read_text())
        except (ValueError, RecursionError) as exc:
            raise SchemaError("<gains>", f"invalid JSON: {exc}") from None
        schedule = schedule_from_dict(doc, config.plant)
        if schedule.horizon != config.weights.horizon:
            raise ValidationError(
                f"horizon: schedule has {schedule.horizon} steps, weights "
                f"expect {config.weights.horizon}")
        trajectory = rollout(discretize(config.plant), schedule, config.x0,
                             config.weights)
    else:
        # One discretization of the true plant serves design and rollout.
        result = run_scheme(config, _pick_scheme(config, args))
        schedule, trajectory = result.schedule, result.trajectory
    write_trajectory_csv(trajectory, args.out, scheme=schedule.scheme,
                         delays=config.plant.delays, seed=args.seed)
    return 0


def _cmd_sweep(args):
    config = _load_config_file(args.config)
    _warn_unshared_weights(config)
    points = sweep_delays(config)
    if args.format == "json":
        _write_json(sweep_rows(points), args.out)
    else:
        write_sweep_csv(points, args.out)
    return 0


def _cmd_compare(args):
    config = _load_config_file(args.config)
    _warn_unshared_weights(config)
    results = compare_schemes(config)
    if args.format == "json":
        _write_json(comparison_rows(results), args.out)
    else:
        write_comparison_csv(results, args.out)
    return 0


# --- parser ----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(
        prog="delay-lqgame",
        description="Distributed delayed-input LQ-game synthesis and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, config=True, out_required=True):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(handler=handler)
        if config:
            cmd.add_argument("--config", required=True,
                             help="experiment configuration JSON")
        if out_required:
            cmd.add_argument("--out", required=True, help="output file")
        else:
            cmd.add_argument("--out", default=None,
                             help="output file (default: stdout)")
        return cmd

    cmd = add("preset", _cmd_preset, "write a bundled experiment config",
              config=False, out_required=False)
    cmd.add_argument("--name", required=True, choices=sorted(PRESETS),
                     help="preset name")

    add("discretize", _cmd_discretize,
        "discretize the plant and print Phi/Gamma matrices",
        out_required=False)

    cmd = add("synthesize", _cmd_synthesize,
              "compute a gain schedule and persist it as JSON")
    cmd.add_argument("--scheme", choices=[s.value for s in Scheme],
                     help="override the config's scheme")

    cmd = add("simulate", _cmd_simulate,
              "roll out the closed loop; writes CSV plus a .json sidecar")
    cmd.add_argument("--gains", default=None,
                     help="previously synthesized gain schedule JSON")
    cmd.add_argument("--scheme", choices=[s.value for s in Scheme],
                     help="override the config's scheme")
    cmd.add_argument("--seed", type=int, default=0,
                     help="seed recorded in the sidecar metadata")

    cmd = add("sweep", _cmd_sweep,
              "evaluate the proposed scheme over the config's delay grid")
    cmd.add_argument("--format", choices=("csv", "json"), default="csv")

    cmd = add("compare", _cmd_compare,
              "evaluate all three schemes per delay point")
    cmd.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SchemaError as exc:
        sys.stderr.write(f"delay-lqgame: config error: {exc}\n")
        return 1
    except (ValidationError, DimensionError, IntervalError) as exc:
        sys.stderr.write(f"delay-lqgame: validation error: {exc}\n")
        return 1
    except SingularMatrixError as exc:
        sys.stderr.write(f"delay-lqgame: numerical failure: {exc}\n")
        return 2
    except OSError as exc:
        # Unreadable or unwritable paths: missing, a directory, no access.
        where = f"{exc.filename}: " if exc.filename is not None else ""
        sys.stderr.write(f"delay-lqgame: {where}{exc.strerror or exc}\n")
        return 1
    except DelayGameError as exc:
        sys.stderr.write(f"delay-lqgame: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
