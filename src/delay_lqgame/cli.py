"""Command-line front end.

Subcommands mirror the offline/online split: ``synthesize`` computes and
persists a gain schedule, ``simulate`` replays one (or does both in a
single run), and ``discretize``/``sweep``/``compare``/``preset`` cover the
remaining plumbing.  All file output is byte-deterministic: floats, all
finite, are written as their shortest round-trip decimals, and reruns of
the same invocation rewrite identical bytes.

Exit codes: 0 success, 1 configuration/validation failure or a path that
cannot be read or written, 2 numerical failure (singular coupling, a value
recursion or a closed loop that leaves the finite range; a design or a
rollout also names its scheme and delays), 64 usage error.
"""

import argparse
import os
import sys
from pathlib import Path

from .errors import (
    DelayGameError,
    DimensionError,
    DocumentShapeError,
    IntervalError,
    NumericalError,
    SchemaError,
    ValidationError,
)
from .model import (
    PRESETS,
    GainSchedule,
    Scheme,
    _array,
    _fields,
    _integer,
    _scheme,
    discretize,
    dump_config,
    dump_json,
    load_config,
    load_json,
    write_csv,
)

# Each handler imports the layers its command runs when it runs, so a
# process loads only those: synthesize the recursion and no rollout,
# simulate --gains the rollout and no recursion, and no command the
# deviation check.

GAINS_FORMAT = "delay-lqgame-gains/1"


def _sha256():
    """A SHA-256 hash object from CPython's built-in module (_sha2 from
    3.12, _sha256 before), imported on first use: only the gains commands
    hash, and hashlib would also load OpenSSL's _hashlib, whose import
    takes ten times as long."""
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        # A build configured without the built-in hashes has only hashlib's.
        from hashlib import sha256
    return sha256()


def plant_hash(plant):
    """Fingerprint of a validated continuous plant and the gains format,
    for schedule/plant pairing.

    It covers the inputs (A, B_i, delays, h), not their discretization, so
    a last-bit change in the exponentials does not orphan gains files.
    """
    digest = _sha256()
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


# The gains document's size fields, in the order of A_coef's axes.
_SIZES = ("horizon", "p", "N", "M")


def schedule_from_dict(doc, plant, horizon):
    """A gains document's schedule for plant and horizon; every fault of
    the document raises :class:`SchemaError` naming its field."""
    if not isinstance(doc, dict) or doc.get("format") != GAINS_FORMAT:
        raise SchemaError("<gains>", f"not a {GAINS_FORMAT} document")
    _fields(doc, "<gains>", ("scheme", "plant_hash", "A_coef", "B_coef")
            + _SIZES)
    sizes = [_integer(doc[key], f"<gains>.{key}") for key in _SIZES]
    if doc["plant_hash"] != plant_hash(plant):
        raise SchemaError("<gains>.plant_hash", "plant-hash mismatch: the "
                          "gain schedule was synthesized for a different "
                          "plant")
    scheme = _scheme(doc["scheme"], "<gains>.scheme")
    A_coef = _array(doc["A_coef"], "<gains>.A_coef", 4)
    B_coef = _array(doc["B_coef"], "<gains>.B_coef", 5)
    # Both arrays are held to the declared sizes before they are built.
    for key, size, actual in zip(_SIZES, sizes, A_coef.shape):
        if size != actual:
            raise SchemaError(f"<gains>.{key}", f"{size} disagrees with the "
                              f"coefficient arrays' {actual}")
    steps, p, N, _ = sizes
    if B_coef.shape != (steps, p, p, N, N):
        raise DocumentShapeError("<gains>.B_coef", f"shape {B_coef.shape}, "
                                 f"expected {(steps, p, p, N, N)}")
    if steps != horizon:
        raise SchemaError("<gains>.horizon", f"{steps} disagrees with "
                          f"weights.horizon {horizon}")
    return GainSchedule(scheme, A_coef, B_coef)


def _write_text(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _load_config_file(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError("<config>", f"not UTF-8 text: {exc}") from None
    return load_config(text)


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
    _write_text(dump_json(doc), args.out)
    return 0


def _cmd_synthesize(args):
    from .synthesis import synthesize_for_scheme

    config = _load_config_file(args.config)
    schedule = synthesize_for_scheme(config, args.scheme or config.scheme)
    _write_text(dump_json(schedule_to_dict(schedule, config.plant)), args.out)
    return 0


def _check_sidecar(args):
    """Reject a --out whose .json sidecar would overwrite --out itself or
    an input file, before anything is read or written."""
    from .simulate import sidecar_path

    out = Path(args.out)
    if not out.name:
        return  # no sidecar name; writing --out fails, naming the path
    sidecar = sidecar_path(out)
    for flag in ("out", "config", "gains"):
        path = getattr(args, flag)
        if path is not None and (os.path.realpath(path)
                                 == os.path.realpath(sidecar)):
            raise ValidationError(f"--out: its sidecar {sidecar} would "
                                  f"overwrite --{flag} {path}")


def _cmd_simulate(args):
    from .simulate import rollout, write_trajectory_csv

    _check_sidecar(args)
    config = _load_config_file(args.config)
    _warn_unshared_weights(config)
    if args.gains:
        doc = load_json(Path(args.gains).read_bytes(), "<gains>")
        schedule = schedule_from_dict(doc, config.plant,
                                      config.weights.horizon)
        trajectory = rollout(discretize(config.plant), schedule, config.x0,
                             config.weights)
    else:
        from .schemes import run_scheme

        # One discretization of the true plant serves design and rollout.
        result = run_scheme(config, args.scheme or config.scheme)
        schedule, trajectory = result.schedule, result.trajectory
    write_trajectory_csv(trajectory, args.out, scheme=schedule.scheme,
                         delays=config.plant.delays, seed=args.seed)
    return 0


def _cmd_table(args):
    """sweep and compare: the table that the schemes function named by
    args.rows makes of the results of the one named by args.run."""
    from . import schemes

    config = _load_config_file(args.config)
    _warn_unshared_weights(config)
    rows = getattr(schemes, args.rows)(getattr(schemes, args.run)(config))
    if args.format == "json":
        _write_text(dump_json(rows), args.out)
    else:
        write_csv(rows, args.out)
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
        cmd.add_argument("--out", required=out_required, help="output file"
                         + ("" if out_required else " (default: stdout)"))
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
    # A gains file fixes its own scheme, so the pair is a usage error.
    source = cmd.add_mutually_exclusive_group()
    source.add_argument("--gains", default=None,
                        help="previously synthesized gain schedule JSON")
    source.add_argument("--scheme", choices=[s.value for s in Scheme],
                        help="override the config's scheme")
    cmd.add_argument("--seed", type=int, default=0,
                     help="seed recorded in the sidecar metadata")

    for name, run, rows, help_text in (
            ("sweep", "sweep_delays", "sweep_rows",
             "evaluate the proposed scheme over the config's delay grid"),
            ("compare", "compare_schemes", "comparison_rows",
             "evaluate all three schemes per delay point")):
        cmd = add(name, _cmd_table, help_text)
        cmd.set_defaults(run=run, rows=rows)
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
    except NumericalError as exc:
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
