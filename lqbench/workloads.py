"""The benchmark's three workloads and their correctness checks.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  A workload hands out one *cycle* of
operations at a time; a run always executes whole cycles, so the mix of
operations (and hence every median) is the same whatever the run length.

Inputs come only from the benchmark seed: the two bundled presets are
fixed, and the p=3 plant, its delay grid and the deviation-check seeds are
drawn from ``numpy.random.default_rng`` streams keyed by the seed.

Calls into the package go through module attributes looked up at call time
(``schemes.sweep_delays(...)``), never through names bound at import, so
that the tracer in ``tracing.py`` sees them.
"""

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np

import delay_lqgame as dlg
from delay_lqgame import model, schemes, simulate, synthesis
from yardstick import rollout_seconds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PRESET_NAMES = ("generic", "lfc")

# Costs must agree with their reference to criterion 3's tolerance.
COST_RTOL = 1e-9

DEVIATION_TRIALS = 200
DEVIATION_MAGNITUDE = 1e-2

CHILD_TIMEOUT_S = 120

clock = time.perf_counter


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


@dataclass
class Op:
    """One call into the program.

    ``run`` returns ``(output, parts)``: ``parts`` maps the roles
    ``synthesize``/``replay`` to the seconds the call spent on that side.
    ``check`` raises :class:`CheckFailed` on a wrong output.  ``items`` is
    the work the call completes; probes have none and are not operations
    for ``op_p50_rel`` and ``items_per_s``.
    """

    name: str
    items: int
    run: object
    check: object


def _close(value, reference):
    return abs(value - reference) <= COST_RTOL * (1.0 + abs(reference))


def _check_costs(label, total, players, reference):
    ref_total, ref_players = reference
    if len(players) != len(ref_players):
        raise CheckFailed(f"{label}: {len(players)} player costs, "
                          f"expected {len(ref_players)}")
    if not (_close(total, ref_total)
            and all(_close(a, b) for a, b in zip(players, ref_players))):
        raise CheckFailed(f"{label}: costs ({total}, {list(players)}) differ "
                          f"from the reference ({ref_total}, {ref_players})")


def _stacked_synthesis():
    # The general stacked recursion; the roadmap folds the per-p variants
    # into one ``synthesize``, which is then the stacked path.
    return getattr(synthesis, "synthesize_multi", None) or synthesis.synthesize


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _rng(seed, stream):
    # SeedSequence entropy must be non-negative; any --seed maps to one.
    return np.random.default_rng([seed % 2**64, stream])


def seeded_p3_config(seed):
    """A 6-state, 3-controller plant with a 4x4x4 delay grid.

    Eigenvalues are shifted into the left half plane, as in the test
    suite's random plants.
    """
    rng = _rng(seed, 0)
    M, N, p, h = 6, 1, 3, 0.05
    A = rng.normal(size=(M, M))
    shift = np.max(np.linalg.eigvals(A).real) + rng.uniform(0.2, 1.0)
    A -= shift * np.eye(M)
    B = tuple(rng.normal(size=(M, N)) for _ in range(p))
    grid = tuple(tuple(np.sort(rng.uniform(0.0, 0.9 * h, size=4)).tolist())
                 for _ in range(p))
    G = rng.normal(size=(M, M))
    Q = G @ G.T + M * np.eye(M)
    plant = dlg.ContinuousPlant(A=A, B=B, delays=tuple(g[0] for g in grid),
                                h=h)
    weights = dlg.GameWeights(Q=(Q,) * p, QN=(Q,) * p,
                              R=(np.eye(N),) * p, horizon=50)
    return dlg.ExperimentConfig(plant=plant, weights=weights,
                                x0=rng.normal(size=M), sweep=grid)


def deviation_seeds(seed, names):
    """Deviation-check seed per config, drawn from the benchmark seed."""
    drawn = _rng(seed, 1).integers(2**31, size=len(names))
    return dict(zip(names, (int(s) for s in drawn)))


def in_process_configs(seed):
    """Configs of delay-grid and equilibrium: the presets and the p=3 plant."""
    return {"generic": dlg.preset_generic(), "lfc": dlg.preset_lfc(),
            "p3": seeded_p3_config(seed)}


def write_cli_configs(workdir):
    """Config files of cli-oneshot: the presets with their sweep grids cut
    to the corner delays, validated by the program's own loader."""
    paths = {}
    for name in PRESET_NAMES:
        preset = dlg.PRESETS[name]()
        corners = tuple((grid[0], grid[-1]) for grid in preset.sweep)
        config = replace(preset, sweep=corners, x0=np.array(preset.x0))
        path = Path(workdir) / f"{name}.json"
        path.write_text(dlg.dump_config(config))
        dlg.load_config(path.read_text())
        paths[name] = path
    return paths


def build_inputs(workload, seed, workdir):
    """Everything ``setup_s`` covers after the import."""
    if workload == "cli-oneshot":
        return write_cli_configs(workdir)
    return in_process_configs(seed)


def _with_delays(config, delays):
    return replace(config, plant=config.plant.with_delays(delays),
                   x0=np.array(config.x0))


def _grid_points(config):
    return [tuple(point) for point in product(*config.sweep)]


SCHEME_ORDER = (dlg.Scheme.PROPOSED, dlg.Scheme.SINGLE_DELAYED,
                dlg.Scheme.DELAY_FREE_GAME)


def reference_table(config):
    """(point, scheme) -> (j_total, j_players) from per-point run_scheme."""
    table = {}
    for point in _grid_points(config):
        cfg = _with_delays(config, point)
        for scheme in SCHEME_ORDER:
            res = schemes.run_scheme(cfg, scheme)
            table[point, scheme] = (res.j_total, list(res.j_players))
    return table


# ---------------------------------------------------------------------------
# cli-oneshot
# ---------------------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv, **popen_args):
    """Run a child process to its end and return its exit code.

    ``subprocess.run(timeout=...)`` polls the child with sleeps of up to
    50 ms, which rounds every duration timed around it up to that step.
    Here a blocking wait returns as soon as the child exits, and a timer
    kills a child that outlives ``CHILD_TIMEOUT_S``.
    """
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, **popen_args)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        return proc.wait()
    finally:
        killer.cancel()
        killer.join()
        if proc.poll() is None:  # interrupted while waiting
            proc.kill()
            proc.wait()


class SubprocessRunner:
    """Runs each CLI command as a fresh ``python -m delay_lqgame``."""

    def __init__(self, workdir):
        self.env = child_env()
        self.stderr_path = Path(workdir) / "stderr.txt"

    def __call__(self, argv):
        with open(self.stderr_path, "wb") as err:
            code = run_child([sys.executable, "-m", "delay_lqgame", *argv],
                             stderr=err, env=self.env, cwd=ROOT)
        if code != 0:
            raise CheckFailed(
                f"exit code {code}: "
                f"{self.stderr_path.read_text().strip()[-300:]}")


class InProcessRunner:
    """Runs each CLI command as ``cli.main(argv)`` in this process."""

    def __call__(self, argv):
        from delay_lqgame import cli
        code = cli.main(argv)
        if code != 0:
            raise CheckFailed(f"exit code {code}")


class CliOneshot:
    """synthesize, simulate --gains, fused simulate, sweep and compare on
    both presets, each a fresh process (or, traced, ``cli.main``)."""

    def __init__(self, seed, workdir, runner):
        self.seed = seed
        self.workdir = Path(workdir)
        self.runner = runner
        self.configs = write_cli_configs(workdir)
        self.reference = {}
        self.grid_reference = {}
        self.first_bytes = {}
        self.bytes_written = 0

    def prepare(self):
        """In-process cost references (the stacked recursion for simulate,
        per-point run_scheme for sweep and compare), and one untimed
        command so byte-compiled files exist before timing."""
        for name, path in self.configs.items():
            config = dlg.load_config(path.read_text())
            dp = dlg.discretize(config.plant)
            schedule = _stacked_synthesis()(dp, config.weights)
            traj = dlg.rollout(dp, schedule, config.x0, config.weights)
            self.reference[name] = (
                float(traj.total_cost),
                [float(v) for v in traj.per_player_cost])
            self.grid_reference[name] = (_grid_points(config),
                                         reference_table(config))
        self.runner(self._synthesize_argv("generic"))

    @staticmethod
    def yardstick():
        """Wall time of a fresh interpreter that imports numpy."""
        began = clock()
        code = run_child([sys.executable, "-I", "-c", "import numpy"],
                         cwd=ROOT)
        if code != 0:
            raise CheckFailed(f"yardstick process exit code {code}")
        return clock() - began

    def _synthesize_argv(self, preset):
        return ["synthesize", "--config", str(self.configs[preset]),
                "--out", str(self.workdir / f"{preset}-gains.json")]

    def cycle(self):
        ops = []
        for preset in PRESET_NAMES:
            config = str(self.configs[preset])
            gains = self.workdir / f"{preset}-gains.json"
            replay = self.workdir / f"{preset}-replay.csv"
            fused = self.workdir / f"{preset}-fused.csv"
            seed = ["--seed", str(self.seed)]
            ops.append(self._op(f"synthesize:{preset}", "synthesize",
                                self._synthesize_argv(preset), [gains]))
            ops.append(self._op(
                f"replay:{preset}", "replay",
                ["simulate", "--config", config, "--gains", str(gains),
                 "--out", str(replay), *seed],
                [replay, replay.with_suffix(".json")],
                partial(self._check_trajectory, f"replay:{preset}", preset)))
            ops.append(self._op(
                f"fused:{preset}", None,
                ["simulate", "--config", config, "--out", str(fused), *seed],
                [fused, fused.with_suffix(".json")],
                partial(self._check_trajectory, f"fused:{preset}", preset)))
            for command in ("sweep", "compare"):
                table = self.workdir / f"{preset}-{command}.csv"
                ops.append(self._op(
                    f"{command}:{preset}", None,
                    [command, "--config", config, "--out", str(table)],
                    [table],
                    partial(self._check_table, command, preset)))
        return ops

    def _op(self, name, role, argv, outputs, verify=None):
        def run():
            for path in outputs:
                path.unlink(missing_ok=True)
            start = clock()
            self.runner(argv)
            elapsed = clock() - start
            return outputs, ({role: elapsed} if role else {})

        def check(paths):
            blobs = [path.read_bytes() for path in paths]
            self.bytes_written += sum(len(b) for b in blobs)
            if name not in self.first_bytes:
                if verify is not None:
                    verify(paths)
                self.first_bytes[name] = blobs
            elif blobs != self.first_bytes[name]:
                raise CheckFailed(f"{name}: rerun output differs in bytes")

        return Op(name, 1, run, check)

    def _check_trajectory(self, name, preset, paths):
        csv, sidecar = paths
        doc = json.loads(sidecar.read_text())
        _check_costs(name, doc["total_cost"], doc["per_player_cost"],
                     self.reference[preset])
        if doc["seed"] != self.seed:
            raise CheckFailed(f"{name}: sidecar seed {doc['seed']}")
        other = "fused" if name.startswith("replay") else "replay"
        twin = self.first_bytes.get(f"{other}:{preset}")
        if twin is not None and twin != [csv.read_bytes(),
                                         sidecar.read_bytes()]:
            raise CheckFailed(f"{name}: offline and fused outputs differ")

    def _check_table(self, command, preset, paths):
        """Sweep or compare CSV rows against the per-point reference."""
        points, table = self.grid_reference[preset]
        p = len(points[0])
        rows = [line.split(",") for line in paths[0].read_text().splitlines()]
        if command == "compare":
            expected = [(pt, s) for pt in points for s in SCHEME_ORDER]
            rows = [(dlg.Scheme(r[0]), r[1:]) for r in rows[1:]]
        else:
            expected = [(pt, dlg.Scheme.PROPOSED) for pt in points]
            rows = [(dlg.Scheme.PROPOSED, r) for r in rows[1:]]
        got = [(tuple(float(v) for v in cells[:p]), scheme)
               for scheme, cells in rows]
        if got != expected:
            raise CheckFailed(f"{command}:{preset}: rows out of order")
        for key, (_, cells) in zip(got, rows):
            _check_costs(f"{command}:{preset} {key}", float(cells[p]),
                         [float(v) for v in cells[p + 1:2 * p + 1]],
                         table[key])


# ---------------------------------------------------------------------------
# delay-grid
# ---------------------------------------------------------------------------

class DelayGrid:
    """sweep_delays and compare_schemes on three grids, plus per-config
    synthesis/rollout probes for ``synthesize_p50_rel``/``replay_p50_rel``."""

    yardstick = staticmethod(rollout_seconds)

    def __init__(self, seed, workdir):
        self.configs = in_process_configs(seed)
        self.reference = {}
        self.own_delays_reference = {}

    def prepare(self):
        """Per-point ``run_scheme`` reference; it also serves as warm-up."""
        for name, config in self.configs.items():
            self.reference[name] = reference_table(config)
            res = schemes.run_scheme(config, dlg.Scheme.PROPOSED)
            self.own_delays_reference[name] = (res.j_total,
                                               list(res.j_players))

    def cycle(self):
        """Each sweep and compare, followed by one probe per config.

        Spreading the probes over the cycle samples the machine's speed at
        as many moments as the operations see, not in one burst.
        """
        probes = [Op(f"probe:{name}", 0, self._probe(config),
                     self._probe_check(name))
                  for name, config in self.configs.items()]
        ops = []
        for name, config in self.configs.items():
            points = _grid_points(config)
            ops.append(Op(f"sweep:{name}", len(points),
                          self._sweep(config),
                          self._sweep_check(name, points)))
            ops += probes
            ops.append(Op(f"compare:{name}", len(points),
                          self._compare(config),
                          self._compare_check(name, points)))
            ops += probes
        return ops

    @staticmethod
    def _sweep(config):
        return lambda: (schemes.sweep_delays(config), {})

    @staticmethod
    def _compare(config):
        return lambda: (schemes.compare_schemes(config), {})

    @staticmethod
    def _probe(config):
        def run():
            start = clock()
            schedule = schemes.synthesize_for_scheme(config,
                                                     dlg.Scheme.PROPOSED)
            mid = clock()
            dp = model.discretize(config.plant)
            traj = simulate.rollout(dp, schedule, config.x0, config.weights)
            end = clock()
            return traj, {"synthesize": mid - start, "replay": end - mid}
        return run

    def _sweep_check(self, name, points):
        table = self.reference[name]

        def check(result):
            if [tuple(pt.delays) for pt in result] != points:
                raise CheckFailed(f"sweep:{name}: grid points out of order")
            for pt in result:
                ref = table[tuple(pt.delays), dlg.Scheme.PROPOSED]
                _check_costs(f"sweep:{name} at {pt.delays}", pt.j_total,
                             pt.j_players, ref)
                ratio = ref[1][0] / ref[1][1]
                if not _close(pt.ratio, ratio):
                    raise CheckFailed(f"sweep:{name}: ratio {pt.ratio} at "
                                      f"{pt.delays}, expected {ratio}")
        return check

    def _compare_check(self, name, points):
        table = self.reference[name]
        expected = [(pt, scheme) for pt in points for scheme in SCHEME_ORDER]

        def check(result):
            got = [(tuple(res.delays), res.scheme) for res in result]
            if got != expected:
                raise CheckFailed(f"compare:{name}: rows out of order")
            for res in result:
                _check_costs(f"compare:{name} {res.scheme} at {res.delays}",
                             res.j_total, res.j_players,
                             table[tuple(res.delays), res.scheme])
        return check

    def _probe_check(self, name):
        def check(traj):
            _check_costs(f"probe:{name}", traj.total_cost,
                         [float(v) for v in traj.per_player_cost],
                         self.own_delays_reference[name])
        return check


# ---------------------------------------------------------------------------
# equilibrium
# ---------------------------------------------------------------------------

class Equilibrium:
    """Synthesis followed by a 200-trial nash_deviation_check per config."""

    yardstick = staticmethod(rollout_seconds)

    def __init__(self, seed, workdir):
        self.configs = in_process_configs(seed)
        self.seeds = deviation_seeds(seed, list(self.configs))
        self.first_report = {}

    def prepare(self):
        # One untimed check per config warms up and fixes the reports that
        # every later check must repeat.
        for op in self.cycle():
            op.check(op.run()[0])

    def cycle(self):
        return [Op(f"check:{name}", DEVIATION_TRIALS,
                   self._check_call(name, config), self._verify(name))
                for name, config in self.configs.items()]

    def _check_call(self, name, config):
        seed = self.seeds[name]

        def run():
            start = clock()
            schedule = schemes.synthesize_for_scheme(config,
                                                     dlg.Scheme.PROPOSED)
            mid = clock()
            dp = model.discretize(config.plant)
            report = simulate.nash_deviation_check(
                dp, schedule, config.weights, config.x0,
                trials=DEVIATION_TRIALS, magnitude=DEVIATION_MAGNITUDE,
                seed=seed)
            end = clock()
            return report, {"synthesize": mid - start, "replay": end - mid}
        return run

    def _verify(self, name):
        def check(report):
            if not report.passed or report.trials != DEVIATION_TRIALS:
                raise CheckFailed(f"check:{name}: {report}")
            first = self.first_report.setdefault(name, report)
            if report != first:
                raise CheckFailed(f"check:{name}: rerun with the same seed "
                                  f"gave {report}, first run gave {first}")
        return check


WORKLOADS = ("cli-oneshot", "delay-grid", "equilibrium")


def make_workload(name, seed, workdir, in_process_cli=False):
    if name == "cli-oneshot":
        runner = (InProcessRunner() if in_process_cli
                  else SubprocessRunner(workdir))
        return CliOneshot(seed, workdir, runner)
    if name == "delay-grid":
        return DelayGrid(seed, workdir)
    return Equilibrium(seed, workdir)
