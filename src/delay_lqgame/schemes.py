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

from .errors import ValidationError
from .model import Scheme, discretize
from .simulate import Trajectory, _fmt, rollout
from .synthesis import GainSchedule, synthesize


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


def _schedule(scheme, dp, weights):
    """The scheme's schedule designed on the discretized plant it is given
    (for ``delay_free_game``, the zero-delay one), tagged with the scheme."""
    if scheme is Scheme.SINGLE_DELAYED:
        single = synthesize(dp.select_controller(0), weights.select_player(0))
        schedule = _embed_single(single, dp.p)
    else:
        schedule = synthesize(dp, weights)
    return replace(schedule, scheme=scheme)


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
    return _schedule(scheme, discretize(plant), config.weights)


def _evaluate(config, schedule, dp):
    """Roll a schedule out on the true discretized plant ``dp``."""
    trajectory = rollout(dp, schedule, config.x0, config.weights)
    return SchemeResult(
        scheme=schedule.scheme,
        delays=config.plant.delays,
        schedule=schedule,
        trajectory=trajectory,
        j_total=trajectory.total_cost,
        j_players=tuple(float(v) for v in trajectory.per_player_cost),
    )


def run_scheme(config, scheme):
    """Design under the scheme's assumptions, run on the true plant."""
    scheme = Scheme(scheme)
    dp = discretize(config.plant)
    if scheme is Scheme.DELAY_FREE_GAME:
        schedule = synthesize_for_scheme(config, scheme)
    else:
        schedule = _schedule(scheme, dp, config.weights)
    return _evaluate(config, schedule, dp)


def _grid_points(config):
    if config.sweep is None:
        return [config.plant.delays]
    return [tuple(point) for point in product(*config.sweep)]


def sweep_delays(config):
    """Proposed-scheme costs over the config's delay grid.

    Points are evaluated in deterministic row-major grid order.  Grid
    values outside [0, h) are rejected before any computation by config
    validation.
    """
    if config.sweep is None:
        raise ValidationError("sweep: config has no sweep grid")
    points = []
    for point in _grid_points(config):
        result = run_scheme(
            _with_delays(config, point), Scheme.PROPOSED)
        j = result.j_players
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = float(np.divide(j[0], j[1])) if len(j) > 1 else float("nan")
        points.append(SweepPoint(delays=point, j_total=result.j_total,
                                 j_players=j, ratio=ratio))
    return points


def _with_delays(config, delays):
    return replace(config, plant=config.plant.with_delays(delays),
                   x0=np.array(config.x0))


def compare_schemes(config):
    """All three schemes at every grid point (or just the config's delays).

    Rows come back point-major: for each delay point, proposed first, then
    the single-delayed and delay-free baselines.  Each point discretizes
    its true plant once and shares it between the rollouts and the two
    delayed designs.  The delay-free design does not depend on the point,
    so it is synthesized once for the whole grid.
    """
    free = synthesize_for_scheme(config, Scheme.DELAY_FREE_GAME)
    results = []
    for point in _grid_points(config):
        cfg = _with_delays(config, point)
        dp = discretize(cfg.plant)
        for scheme in (Scheme.PROPOSED, Scheme.SINGLE_DELAYED):
            results.append(_evaluate(cfg, _schedule(scheme, dp, cfg.weights),
                                     dp))
        results.append(_evaluate(cfg, free, dp))
    return results


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
