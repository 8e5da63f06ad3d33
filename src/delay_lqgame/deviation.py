"""The equilibrium no-improvement check: randomized unilateral deviations
from a synthesized schedule, each trial seeded on its own.

Its trials run as rows of the batched closed loop of ``simulate``.  No CLI
command runs the check, so only a caller of ``nash_deviation_check`` loads
this module; ``simulate.nash_deviation_check`` and
``delay_lqgame.nash_deviation_check`` both import it on first use.
"""

from dataclasses import dataclass

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

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


# numpy's SeedSequence hashing (numpy/random/bit_generator.pyx, after
# M. E. O'Neill's seed_seq_fe): the entropy words are hashed into a pool
# of four uint32 words, which is then hashed out into the generator's
# state.  Every constant depends only on a word's position, never on data.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash_constants(init, mult, count):
    """init * mult^j mod 2^32 for j = 0..count, as a uint32 column."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


def _hashmix(values, consts):
    """The hash of each row of values, row j under consts[j], consts[j+1]."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ (values >> 16)


def _mix(x, y):
    mixed = x * _MIX_MULT_L - y * _MIX_MULT_R
    return mixed ^ (mixed >> 16)


def _pool_state(entropy):
    """SeedSequence(words).generate_state(4, np.uint64) for every column
    of the (words, columns) uint32 array entropy, columns side by side."""
    words = len(entropy)
    hashes = _POOL_SIZE * (_POOL_SIZE + max(words - _POOL_SIZE, 0))
    consts = _hash_constants(_INIT_A, _MULT_A, hashes)
    pool = np.zeros((_POOL_SIZE, entropy.shape[1]), dtype=np.uint32)
    pool[:words] = entropy[:_POOL_SIZE]
    pool = _hashmix(pool, consts[:_POOL_SIZE + 1])
    at = _POOL_SIZE
    # Each pool word into every other, destinations in order.
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst],
                         _hashmix(pool[src], consts[at:at + _POOL_SIZE]))
        at += _POOL_SIZE - 1
    # Entropy beyond the pool's size, each word into every pool word.
    for src in range(_POOL_SIZE, words):
        pool = _mix(pool, _hashmix(entropy[src],
                                   consts[at:at + _POOL_SIZE + 1]))
        at += _POOL_SIZE
    state = _hashmix(np.concatenate((pool, pool)),
                     _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE))
    state = state.astype(np.uint64)
    return (state[0::2] | state[1::2] << 32).T


def _seed_words(seed, trials):
    """SeedSequence((seed, t)).generate_state(4, np.uint64) for every t in
    trials, hashed together as array operations, shaped (trials, 4)."""
    head = []  # numpy's split of an int into uint32 words, low word first
    while seed or not head:
        head.append(seed & _MASK32)
        seed >>= 32
    trials = np.asarray(trials, dtype=np.uint64)
    words = np.empty((len(trials), 4), dtype=np.uint64)
    wide = trials > _MASK32
    for rows, width in ((~wide, 1), (wide, 2)):
        if rows.any():
            t = trials[rows]
            entropy = np.empty((len(head) + width, len(t)), dtype=np.uint32)
            entropy[:len(head)] = np.array(head, dtype=np.uint32)[:, None]
            entropy[len(head):] = [t & _MASK32, t >> 32][:width]
            words[rows] = _pool_state(entropy)
    return words


class _Words(ISeedSequence):
    """Seed words hashed ahead of time, handed to PCG64 as they are."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _generator(words):
    """A Generator on the stream given by its seed words."""
    return Generator(PCG64(_Words(words)))


def _draw_deviations(seed, trials, p, steps, N, magnitude):
    """(players, steps, deltas) of the given trials, trial t drawn from
    the stream of default_rng((seed, t)), delta scaled to the magnitude.

    Trial t's integers(p), integers(steps), normal(size=N) are read off
    its stream without calling integers.  With PCG64, integers(n) for
    2 <= n < 2^32 (a player count or a horizon is far below 2^32 under
    model.MAX_ENTRIES) takes one 32-bit draw w, the low half of a fresh
    64-bit word, then the high half of the same word, and returns
    Lemire's (w * n) >> 32; integers(1) takes none and returns 0.  So one
    random_raw() word per trial holds both draws, mapped to [0, n) for
    all trials at once.  numpy rejects w, and draws again, when the low
    32 bits of w * n fall below (2^32 - n) mod n; such a trial is drawn
    again with its own generator's integers and normal.  normal takes
    whole words and starts at the word after the raw one (at the first
    word when neither integer draw takes one), so it runs on each trial's
    generator.
    """
    words = _seed_words(seed, trials)
    rngs = list(map(_generator, words))
    players = np.zeros(len(rngs), dtype=np.int64)
    at = np.zeros(len(rngs), dtype=np.int64)
    kept = np.ones(len(rngs), dtype=bool)
    bounded = [(column, n) for column, n in ((players, p), (at, steps))
               if n > 1]
    if bounded:
        raw = np.array([rng.bit_generator.random_raw() for rng in rngs],
                       dtype=np.uint64)
        for (column, n), half in zip(bounded, (raw & _MASK32, raw >> 32)):
            product = half * np.uint64(n)
            column[:] = product >> 32
            kept &= (product & _MASK32) >= (2**32 - n) % n
    deltas = np.array([rng.normal(size=N) for rng in rngs])
    for t in np.flatnonzero(~kept):
        rng = _generator(words[t])
        players[t], at[t] = rng.integers(p), rng.integers(steps)
        deltas[t] = rng.normal(size=N)
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
    return players, at, deltas


def nash_deviation_check(dp, schedule, weights, x0, trials=200,
                         magnitude=1e-2, seed=0):
    """Probe the no-improvement property of the synthesized equilibrium.

    Each trial perturbs one controller's input at one step by a random
    delta of the given norm, leaves every feedback law in place (all
    controllers, all later steps react to the perturbed history), and
    records the deviator's cost change.  Trials are seeded individually
    from (seed, trial) so they are reproducible and order independent.

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
    per_block = max(DEVIATION_BLOCK - 1, 1)
    for first in range(0, trials, per_block):
        stop = min(first + per_block, trials)
        players, steps, deltas = _draw_deviations(
            seed, np.arange(first, stop), dp.p, schedule.horizon, dp.N,
            magnitude)
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
    min_margin = margin.min(initial=np.inf)
    return DeviationReport(
        passed=bool(min_margin >= 0.0),
        trials=trials,
        min_delta=float(change.min(initial=np.inf)),
        min_margin=float(min_margin),
        tolerance=NASH_TOLERANCE,
    )
