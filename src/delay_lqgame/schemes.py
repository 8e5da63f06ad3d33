"""Three-way scheme comparison and delay-grid sweeps.

The schemes share one ground truth: whatever gains a scheme produces, the
rollout always happens on the plant discretized with the *actual* delays,
and costs always use the same convention.  Every scheme is the one
recursion under the config's weights; the baselines differ only in the
plant, of the true plant's shape, that their designs are handed:

* ``proposed``        - the true delayed discretization;
* ``single_delayed``  - the true plant with only controller 1's input
                        acting: every other Gamma0_i and Gamma1_i is zero,
                        so the other controllers' coefficients solve to
                        zero and they stay inert for the whole horizon;
* ``delay_free_game`` - the zero-delay discretization, then run against
                        the delayed plant (the design/plant mismatch is
                        the point).
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


def _lone_first(dp):
    """The plant with every input but controller 1's cut off."""
    zero = np.zeros_like(dp.Gamma0[0])
    rest = (zero,) * (dp.p - 1)
    return replace(dp, Gamma0=dp.Gamma0[:1] + rest,
                   Gamma1=dp.Gamma1[:1] + rest)


def _designs(config, scheme, points, plants=None):
    """The scheme's schedules, tagged with it, one per delay point.

    ``plants`` are the points' true discretized plants (discretized here
    when not given and the scheme needs them).  Each design runs the one
    recursion under the config's weights, in one batch, on the plant the
    scheme prescribes; the delay-free design does not depend on the point,
    so it is synthesized once and shared.  A singular plant is named by its
    delays.
    """
    count = len(points)
    if scheme is Scheme.DELAY_FREE_GAME:
        free = config.plant.with_delays((0.0,) * config.plant.p)
        points, plants = [free.delays], [discretize(free)]
    elif plants is None:
        plants = [discretize(config.plant.with_delays(point))
                  for point in points]
    if scheme is Scheme.SINGLE_DELAYED:
        plants = [_lone_first(dp) for dp in plants]
    try:
        # A lone plant goes through ``synthesize``, the batch-of-1 case of
        # the same recursion, so per-call tracing of that public entry
        # point (lqbench/tracing.py) still sees every single design.
        schedules = (synthesize_batch(plants, config.weights)
                     if len(plants) > 1
                     else [synthesize(plants[0], config.weights)])
    except CouplingSingularityError as exc:
        delays = points[exc.plant]
        raise CouplingSingularityError(
            f"{exc} at delays {delays}", exc.pivot, exc.step,
            controller=exc.controller, plant=exc.plant,
            delays=delays) from None
    schedules = [replace(s, scheme=scheme) for s in schedules]
    # The one delay-free design serves every point.
    return schedules if len(schedules) == count else schedules * count


def synthesize_for_scheme(config, scheme):
    """Gain schedule for one scheme on the config's plant, tagged with it."""
    return _designs(config, Scheme(scheme), [config.plant.delays])[0]


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
    points = [config.plant.delays]
    plants = [discretize(config.plant)]
    schedules = _designs(config, Scheme(scheme), points, plants)
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
    schedules = _designs(config, Scheme.PROPOSED, points, plants)
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
    is discretized once, and each scheme is one ``_designs`` call over all
    points (the delay-free one synthesized once for the whole grid).  Every
    row is then rolled out in one batched closed loop.
    """
    points, plants = _grid(config)
    designs = [_designs(config, scheme, points, plants) for scheme in Scheme]
    rows = [(point, dp, schedule)
            for point, dp, *schedules in zip(points, plants, *designs)
            for schedule in schedules]
    return _evaluate(config, *zip(*rows))


# ---------------------------------------------------------------------------
# plot-ready tables
# ---------------------------------------------------------------------------

def _cost_columns(p):
    return ([f"td{i + 1}" for i in range(p)] + ["j_total"]
            + [f"j_{i + 1}" for i in range(p)])


def sweep_rows(points):
    """The sweep table: one {column: value} row per grid point."""
    columns = _cost_columns(len(points[0].delays)) + ["ratio"]
    return [dict(zip(columns, [*pt.delays, pt.j_total, *pt.j_players,
                               pt.ratio]))
            for pt in points]


def comparison_rows(results):
    """The comparison table: one {column: value} row per result."""
    columns = ["scheme"] + _cost_columns(len(results[0].delays))
    return [dict(zip(columns, [res.scheme.value, *res.delays, res.j_total,
                               *res.j_players]))
            for res in results]


def _write_csv(rows, path):
    lines = [",".join(rows[0])]
    lines += [",".join(v if isinstance(v, str) else _fmt(v)
                       for v in row.values())
              for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def write_sweep_csv(points, path):
    _write_csv(sweep_rows(points), path)


def write_comparison_csv(results, path):
    _write_csv(comparison_rows(results), path)
