"""Three-way scheme comparison and delay-grid sweeps.

The schemes share one ground truth: whatever gains a scheme produces, the
rollout always happens on the plant discretized with the *actual* delays,
and costs always use the same convention.  The baselines differ only in
what their designs know:

* ``proposed``        - the distributed delayed-game schedule, designed on
                        the true delayed discretization;
* ``single_delayed``  - controller 1 designed alone on its own delayed
                        discretization, every other controller held at
                        zero for the whole horizon;
* ``delay_free_game`` - the game designed as if all delays were zero,
                        then run against the delayed plant (the
                        design/plant mismatch is the point).
"""

from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path

import numpy as np

from .errors import CouplingSingularityError, ValidationError
from .model import Scheme, discretize
from .simulate import Trajectory, _fmt, _rollouts
from .synthesis import GainSchedule, synthesize, synthesize_batch


@dataclass(frozen=True)
class SchemeResult:
    """One scheme evaluated at one delay point."""

    scheme: Scheme
    delays: tuple
    schedule: GainSchedule
    trajectory: Trajectory
    j_total: float
    j_players: tuple


@dataclass(frozen=True)
class SweepPoint:
    """Proposed-scheme costs at one grid point."""

    delays: tuple
    j_total: float
    j_players: tuple
    ratio: float


def _embed_single(schedule, p):
    """Lift a one-controller schedule into a p-controller one; the extra
    controllers get identically zero coefficients (they stay inert)."""
    steps, _, N, M = schedule.A_coef.shape
    A_coef = np.zeros((steps, p, N, M))
    B_coef = np.zeros((steps, p, p, N, N))
    A_coef[:, 0] = schedule.A_coef[:, 0]
    B_coef[:, 0, 0] = schedule.B_coef[:, 0, 0]
    return GainSchedule(schedule.scheme, A_coef, B_coef)


def _designs(scheme, plants, weights, points):
    """The scheme's schedules, tagged with it, designed in one batch on the
    discretized plants it is given (for ``delay_free_game``, zero-delay
    ones).  A singular plant is named by its delays, ``points[b]``."""
    p = plants[0].p
    if scheme is Scheme.SINGLE_DELAYED:
        plants = [dp.select_controller(0) for dp in plants]
        weights = weights.select_player(0)
    try:
        # A lone plant goes through ``synthesize``, the batch-of-1 case of
        # the same recursion, so per-call tracing of that public entry
        # point (lqbench/tracing.py) still sees every single design.
        schedules = (synthesize_batch(plants, weights) if len(plants) > 1
                     else [synthesize(plants[0], weights)])
    except CouplingSingularityError as exc:
        delays = points[exc.plant]
        raise CouplingSingularityError(
            f"{exc} at delays {delays}", exc.pivot, exc.step,
            controller=exc.controller, plant=exc.plant,
            delays=delays) from None
    if scheme is Scheme.SINGLE_DELAYED:
        schedules = [_embed_single(s, p) for s in schedules]
    return [replace(s, scheme=scheme) for s in schedules]


def synthesize_for_scheme(config, scheme):
    """Gain schedule for one scheme on the config's plant, tagged with it.

    Every scheme runs the one recursion; only the plant it is handed
    differs: the true discretization (``proposed``), controller 1's part of
    it (``single_delayed``), or the zero-delay one (``delay_free_game``).
    """
    scheme = Scheme(scheme)
    plant = config.plant
    if scheme is Scheme.DELAY_FREE_GAME:
        plant = plant.with_delays((0.0,) * plant.p)
    return _designs(scheme, [discretize(plant)], config.weights,
                    [plant.delays])[0]


def _evaluate(config, points, plants, schedules):
    """Roll each schedule out on its point's true discretized plant, all
    rows in one batched closed loop."""
    trajectories = _rollouts(plants, schedules, config.x0, config.weights)
    return [SchemeResult(scheme=schedule.scheme, delays=point,
                         schedule=schedule, trajectory=trajectory,
                         j_total=trajectory.total_cost,
                         j_players=tuple(float(v) for v in
                                         trajectory.per_player_cost))
            for point, schedule, trajectory
            in zip(points, schedules, trajectories)]


def run_scheme(config, scheme):
    """Design under the scheme's assumptions, run on the true plant."""
    scheme = Scheme(scheme)
    points = [config.plant.delays]
    plants = [discretize(config.plant)]
    if scheme is Scheme.DELAY_FREE_GAME:
        schedules = [synthesize_for_scheme(config, scheme)]
    else:
        schedules = _designs(scheme, plants, config.weights, points)
    return _evaluate(config, points, plants, schedules)[0]


def _grid(config):
    """Delay points in row-major grid order (just the config's delays
    without a grid) and each point's true plant, discretized once."""
    if config.sweep is None:
        points = [config.plant.delays]
    else:
        points = [tuple(point) for point in product(*config.sweep)]
    return points, [discretize(config.plant.with_delays(point))
                    for point in points]


def sweep_delays(config):
    """Proposed-scheme costs over the config's delay grid.

    Points come in deterministic row-major grid order.  All points are
    designed in one batched synthesis and rolled out in one batched
    closed loop.  Grid values outside [0, h) are rejected before any
    computation by config validation.
    """
    if config.sweep is None:
        raise ValidationError("sweep: config has no sweep grid")
    points, plants = _grid(config)
    schedules = _designs(Scheme.PROPOSED, plants, config.weights, points)
    swept = []
    for result in _evaluate(config, points, plants, schedules):
        j = result.j_players
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = float(np.divide(j[0], j[1])) if len(j) > 1 else float("nan")
        swept.append(SweepPoint(delays=result.delays, j_total=result.j_total,
                                j_players=j, ratio=ratio))
    return swept


def compare_schemes(config):
    """All three schemes at every grid point (or just the config's delays).

    Rows come back point-major: for each delay point, proposed first, then
    the single-delayed and delay-free baselines.  Each point's true plant
    is discretized once; the two delayed designs are one batched synthesis
    each over all points.  The delay-free design does not depend on the
    point, so it is synthesized once for the whole grid.  Every row is
    then rolled out in one batched closed loop.
    """
    points, plants = _grid(config)
    free = synthesize_for_scheme(config, Scheme.DELAY_FREE_GAME)
    proposed = _designs(Scheme.PROPOSED, plants, config.weights, points)
    single = _designs(Scheme.SINGLE_DELAYED, plants, config.weights, points)
    rows = [(point, dp, schedule)
            for point, dp, *designs in zip(points, plants, proposed, single)
            for schedule in (*designs, free)]
    return _evaluate(config, *zip(*rows))


# ---------------------------------------------------------------------------
# plot-ready tables
# ---------------------------------------------------------------------------

def sweep_header(p):
    cols = [f"td{i + 1}" for i in range(p)]
    cols += ["j_total"] + [f"j_{i + 1}" for i in range(p)] + ["ratio"]
    return cols


def write_sweep_csv(points, path):
    path = Path(path)
    p = len(points[0].delays)
    lines = [",".join(sweep_header(p))]
    for pt in points:
        cells = [_fmt(v) for v in pt.delays]
        cells.append(_fmt(pt.j_total))
        cells += [_fmt(v) for v in pt.j_players]
        cells.append(_fmt(pt.ratio))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def comparison_header(p):
    cols = ["scheme"] + [f"td{i + 1}" for i in range(p)]
    cols += ["j_total"] + [f"j_{i + 1}" for i in range(p)]
    return cols


def write_comparison_csv(results, path):
    path = Path(path)
    p = len(results[0].delays)
    lines = [",".join(comparison_header(p))]
    for res in results:
        cells = [res.scheme.value]
        cells += [_fmt(v) for v in res.delays]
        cells.append(_fmt(res.j_total))
        cells += [_fmt(v) for v in res.j_players]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
