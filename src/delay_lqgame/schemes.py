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

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import NumericalError, ValidationError
from .model import (
    ExperimentConfig,
    GainSchedule,
    Scheme,
    _entries,
    _instance,
    _scheme,
    write_csv,
)
from .simulate import Trajectory, _rollouts
# The design layer lives beside the recursion; synthesize_for_scheme is
# re-exported here, where callers of the scheme functions look it up.
from .synthesis import _designs, _named, synthesize_for_scheme


@dataclass(frozen=True, eq=False)
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
    """Proposed-scheme costs at one grid point; ratio is j_1 / j_2, None
    when that is undefined (one controller, or 0 / 0)."""

    delays: tuple
    j_total: float
    j_players: tuple
    ratio: float


def _results(config, schemes, points):
    """Every scheme at every delay point, point-major in the order given:
    one ``_designs`` batch designs every row, and one batched closed loop
    runs each on its point's true plant."""
    schedules, plants = _designs(config, schemes, points)
    labels = [(scheme, point) for point in points for scheme in schemes]
    try:
        trajectories = _rollouts([dp for dp in plants for _ in schemes],
                                 schedules, config.x0, config.weights)
    except NumericalError as exc:
        raise _named(exc, *labels[exc.row])
    return [SchemeResult(scheme=scheme, delays=point, schedule=schedule,
                         trajectory=trajectory,
                         j_total=trajectory.total_cost,
                         j_players=tuple(float(v) for v in
                                         trajectory.per_player_cost))
            for (scheme, point), schedule, trajectory
            in zip(labels, schedules, trajectories)]


def run_scheme(config, scheme):
    """Design under the scheme's assumptions, run on the true plant."""
    _instance(config, ExperimentConfig, "config")
    return _results(config, [_scheme(scheme, "scheme")],
                    [config.plant.delays])[0]


def sweep_delays(config):
    """Proposed-scheme costs over the config's delay grid.

    Points come in deterministic row-major grid order, all designed in one
    batched synthesis and rolled out in one batched closed loop.  Config
    validation rejects grid values outside [0, h) before any computation.
    """
    _instance(config, ExperimentConfig, "config")
    if config.sweep is None:
        raise ValidationError("sweep: config has no sweep grid")
    swept = []
    for result in _results(config, [Scheme.PROPOSED],
                           list(product(*config.sweep))):
        j = result.j_players
        with np.errstate(all="ignore"):
            ratio = float(np.divide(j[0], j[1])) if len(j) > 1 else math.nan
        swept.append(SweepPoint(delays=result.delays, j_total=result.j_total,
                                j_players=j,
                                ratio=ratio if math.isfinite(ratio) else None))
    return swept


def compare_schemes(config):
    """All three schemes at every grid point (or just the config's delays).

    Rows come back point-major: for each delay point, proposed first, then
    the single-delayed and delay-free baselines, every design in one
    batched recursion and the delay-free one shared by the whole grid.
    """
    _instance(config, ExperimentConfig, "config")
    points = ([config.plant.delays] if config.sweep is None
              else list(product(*config.sweep)))
    return _results(config, list(Scheme), points)


# ---------------------------------------------------------------------------
# plot-ready tables
# ---------------------------------------------------------------------------

def _cost_columns(p):
    return ([f"td{i + 1}" for i in range(p)] + ["j_total"]
            + [f"j_{i + 1}" for i in range(p)])


def sweep_rows(points):
    """The sweep table: one {column: value} row per grid point."""
    points = _entries(points, "points")
    columns = _cost_columns(len(points[0].delays)) + ["ratio"]
    return [dict(zip(columns, [*pt.delays, pt.j_total, *pt.j_players,
                               pt.ratio]))
            for pt in points]


def comparison_rows(results):
    """The comparison table: one {column: value} row per result."""
    results = _entries(results, "results")
    columns = ["scheme"] + _cost_columns(len(results[0].delays))
    return [dict(zip(columns, [res.scheme.value, *res.delays, res.j_total,
                               *res.j_players]))
            for res in results]


def write_sweep_csv(points, path):
    write_csv(sweep_rows(points), path)


def write_comparison_csv(results, path):
    write_csv(comparison_rows(results), path)
