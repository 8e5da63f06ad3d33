"""The equilibrium no-improvement check: randomized unilateral deviations
from a synthesized schedule, drawn from two seeded numpy streams.

Its trials run as rows of the batched closed loop of ``simulate``.  No CLI
command runs the check, so only a caller of ``nash_deviation_check`` loads
this module; ``simulate.nash_deviation_check`` and
``delay_lqgame.nash_deviation_check`` both import it on first use.
"""

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .errors import NumericalError, ValidationError
from .model import _check_budget, _integer, _number
from .simulate import _checked_x0, _closed_loop, _costs

# A unilateral single-step deviation may not lower the deviator's cost by
# more than this fraction of (1 + equilibrium cost).
NASH_TOLERANCE = 1e-6

# Rows of the batched closed loop that nash_deviation_check runs at once;
# bounds its memory whatever the number of trials.
DEVIATION_BLOCK = 256


@dataclass(frozen=True)
class DeviationReport:
    """Outcome of randomized unilateral-deviation trials."""

    passed: bool
    trials: int
    min_delta: float
    min_margin: float
    tolerance: float


def _draw_deviations(seed, trials, block, p, steps, N, magnitude):
    """(players, steps, deltas) of trials 0, 1, ..., trials - 1, yielded
    in blocks of at most block trials, delta scaled to the magnitude.

    Trial t's player and step are row t of
    default_rng((seed, 0)).integers(0, (p, steps), size=(trials, 2)), and
    its delta is row t of default_rng((seed, 1)).standard_normal((trials,
    N)).  Each block reads its rows on from where the last block stopped,
    so the draws depend neither on the block size nor on the trials that
    follow.
    """
    picks = default_rng((seed, 0))
    directions = default_rng((seed, 1))
    for first in range(0, trials, block):
        count = min(block, trials - first)
        players, at = picks.integers(0, (p, steps), size=(count, 2)).T
        deltas = directions.standard_normal((count, N))
        # Each row's delta . delta, the same einsum dot as for the row alone.
        norm = np.sqrt(np.einsum("ij,ij->i", deltas, deltas))
        zero = norm == 0.0
        deltas[zero] = np.eye(N)[0]
        norm[zero] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            deltas *= (magnitude / norm)[:, None]
        if not np.isfinite(deltas).all():
            raise ValidationError(f"magnitude: {magnitude} overflows the "
                                  f"scaled deviations")
        yield players, at, deltas


def nash_deviation_check(dp, schedule, weights, x0, trials=200,
                         magnitude=1e-2, seed=0):
    """Probe the no-improvement property of the synthesized equilibrium.

    Each trial perturbs one controller's input at one step by a random
    delta of the given norm, leaves every feedback law in place (all
    controllers, all later steps react to the perturbed history), and
    records the deviator's cost change.  Trial t takes row t of two
    streams keyed by the seed, one for its (player, step) and one for its
    delta, so a report is reproducible and the first k trials of any check
    with this seed are the same k deviations.

    Trials run as rows of one batched closed loop, in blocks of
    DEVIATION_BLOCK rows led by the undeviated base row.  A trial's row is
    the base row until its deviation step, so the rows are sorted by that
    step and each joins the loop there; only its deviator's cost is formed.
    A diverging trial's NumericalError has its trial number as ``row``.
    """
    x0 = _checked_x0(dp, schedule, weights, x0)
    trials = _integer(trials, "trials", minimum=0)
    _check_budget("trials", trials)
    seed = _integer(seed, "seed", minimum=0)
    magnitude = _number(magnitude, "magnitude")
    change = np.empty(trials)
    margin = np.empty(trials)
    first = 0
    for players, steps, deltas in _draw_deviations(
            seed, trials, max(DEVIATION_BLOCK - 1, 1), dp.p,
            schedule.horizon, dp.N, magnitude):
        stop = first + len(players)
        order = np.argsort(steps, kind="stable")
        players = np.append(0, players[order])
        starts = np.append(0, steps[order])
        offsets = np.zeros((len(starts), dp.p, dp.N))
        offsets[np.arange(1, len(starts)), players[1:]] = deltas[order]
        tape = _closed_loop([dp], [schedule], x0, starts, offsets)
        try:
            base, own = _costs(tape, weights, players, starts)
        except NumericalError as exc:
            if exc.row:  # a trial's row in the step-sorted block
                exc.row = first + int(order[exc.row - 1])
            raise
        base = base[players[1:]]
        change[first:stop] = own - base
        margin[first:stop] = change[first:stop] + NASH_TOLERANCE * (1.0 + base)
        first = stop
    min_margin = margin.min(initial=np.inf)
    return DeviationReport(
        passed=bool(min_margin >= 0.0),
        trials=trials,
        min_delta=float(change.min(initial=np.inf)),
        min_margin=float(min_margin),
        tolerance=NASH_TOLERANCE,
    )
