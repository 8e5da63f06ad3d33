"""Closed-loop rollout, quadratic cost evaluation, and the equilibrium
no-improvement check.

The online loop mirrors what the distributed controllers actually do: at
step k each forms u_i(k) from the measured state and the previously
exchanged inputs (u_j(-1) = 0), the plant advances, and the controllers
exchange this step's inputs for use at k+1.
"""

import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionError, SchemaError, ValidationError
from .model import (
    _expect_mapping,
    _integer,
    _number,
    _vector,
    check_compatible,
)

# A unilateral single-step deviation may not lower the deviator's cost by
# more than this fraction of (1 + equilibrium cost).
NASH_TOLERANCE = 1e-6

# Rows of the batched closed loop that nash_deviation_check runs at once;
# bounds its memory whatever the number of trials.
DEVIATION_BLOCK = 256


@dataclass(frozen=True)
class Trajectory:
    """States x(0..N), controls u_i(0..N-1), and the realized costs."""

    states: np.ndarray
    controls: np.ndarray
    per_player_cost: np.ndarray
    total_cost: float

    @property
    def horizon(self):
        return self.controls.shape[0]

    @property
    def p(self):
        return self.controls.shape[1]


def _matvec(W, v):
    """W @ v over the last axis of v, broadcasting the leading axes.

    numpy multiplies one (matrix, vector) pair at a time here, so every
    row of a batch gets exactly the products an unbatched call would.
    """
    return np.matmul(W, v[..., None])[..., 0]


def _closed_loop(plants, schedules, x0, starts=None, offsets=None):
    """Run the feedback loop for a batch of rows that all start at x0.

    Row b runs plants[b] under schedules[b]; a single plant and schedule
    are shared by every row, their arrays broadcasting over the rows.
    Returns states (rows, horizon + 1, M) and controls (rows, horizon, p, N).

    Rows may join late, with one shared plant and schedule: starts, one
    per row, ascending from starts[0] == 0, lets row b follow row 0 (the
    base) up to step starts[b], where offsets[b] (p, N) is added to its
    inputs; every law stays in place afterwards.  Until then the row is
    the base row bit for bit, so step k runs only the rows with
    starts <= k, and the others' history is copied from row 0 as it goes.

    Sums run player by player in a fixed order, so each row's arithmetic
    does not depend on the batch: a row equals the same plant and schedule
    run alone, and a row that joins late equals one run from step 0 with
    its offset at its start step.
    """
    steps, p = schedules[0].horizon, schedules[0].p
    rows = len(schedules) if starts is None else len(starts)
    Phi = np.stack([dp.Phi for dp in plants])
    Gamma0 = np.stack([dp.Gamma0 for dp in plants])
    Gamma1 = np.stack([dp.Gamma1 for dp in plants])
    # Step axis first, so A_coef[k] is (rows or 1, p, N, M).
    A_coef = np.stack([s.A_coef for s in schedules], axis=1)
    B_coef = np.stack([s.B_coef for s in schedules], axis=1)
    M, N = Phi.shape[-1], Gamma0.shape[-1]
    # joined[k]: the leading rows that run at step k.
    joined = ([rows] * steps if starts is None else
              np.searchsorted(starts, np.arange(steps), side="right").tolist())
    states = np.empty((rows, steps + 1, M))
    controls = np.empty((rows, steps, p, N))
    states[:, 0] = x0
    ran = 0
    for k in range(steps):
        first, ran = ran, joined[k]
        # Rows joining at this step find the base row's state and last
        # inputs in their history.
        x = states[:ran, k]
        u_prev = controls[:ran, k - 1] if k else np.zeros((ran, p, N))
        u = _matvec(A_coef[k], x[:, None])
        coupled = _matvec(B_coef[k], u_prev[:, None])
        for j in range(p):
            u = u + coupled[:, :, j]
        if offsets is not None:
            u[first:ran] += offsets[first:ran]
        now = _matvec(Gamma0, u)
        before = _matvec(Gamma1, u_prev)
        x = _matvec(Phi, x)
        for i in range(p):
            x = x + now[:, i] + before[:, i]
        controls[:ran, k] = u
        states[:ran, k + 1] = x
        if ran < rows:
            # Rows yet to join hold the base row's history.
            controls[ran:, k] = u[0]
            states[ran:, k + 1] = x[0]
    return states, controls


def _quadratic(v, W):
    """v' W v for each vector along the last axis of v."""
    return np.matmul(np.matmul(v[..., None, :], W), v[..., :, None])[..., 0, 0]


def _costs(states, controls, weights, players=None):
    """Batched (total, per-player) costs of (rows, ...) trajectories.

    Given players, only row b's cost to controller players[b] is formed,
    with that controller's weights, and returned alone, shaped (rows,).

    Each cost is a running sum in step order, terminal term first, so a
    batch of one equals a plain step-by-step sum bit for bit, and a cost
    formed alone equals its entry among all the per-player costs.
    """
    steps, p = controls.shape[1:3]
    Q, QN, R = (np.stack(w) for w in (weights.Q, weights.QN, weights.R))
    u = controls
    if players is not None:
        # Each row's own controller, as a controller axis of length one.
        u = controls[np.arange(len(players)), :, players][:, :, None]
        Q = Q[players, None, None]
        QN = QN[players, None]
        R = R[players, None, None]
    x_run = _quadratic(states[:, :steps, None], Q)
    x_end = _quadratic(states[:, steps, None], QN)
    u_run = _quadratic(u, R)
    per_player = x_end
    for k in range(steps):
        per_player = per_player + x_run[:, k] + u_run[:, k]
    if players is not None:
        return per_player[:, 0]
    # Shared-objective total: first controller's state weights, everyone's
    # control effort.  Matches the per-player costs exactly when all state
    # weights coincide, which both bundled presets satisfy.
    total = x_end[:, 0]
    for k in range(steps):
        total = total + x_run[:, k, 0]
        for i in range(p):
            total = total + u_run[:, k, i]
    return total, per_player


def _checked_x0(dp, schedule, weights, x0):
    if schedule.p != dp.p or schedule.M != dp.M or schedule.N != dp.N:
        raise DimensionError(
            f"schedule built for (M={schedule.M}, N={schedule.N}, "
            f"p={schedule.p}), plant is (M={dp.M}, N={dp.N}, p={dp.p})")
    if weights.horizon != schedule.horizon:
        raise DimensionError(
            f"weights horizon {weights.horizon} != schedule horizon "
            f"{schedule.horizon}")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    check_compatible(dp, weights, x0)
    return x0


def _rollouts(plants, schedules, x0, weights):
    """Costed trajectories of rows that each run their own plant and
    schedule from x0, in one batched closed loop and one cost evaluation."""
    states, controls = _closed_loop(plants, schedules, x0)
    total, per_player = _costs(states, controls, weights)
    return [Trajectory(states=states[b], controls=controls[b],
                       per_player_cost=per_player[b],
                       total_cost=float(total[b]))
            for b in range(len(schedules))]


def rollout(dp, schedule, x0, weights):
    """Simulate the closed loop from x0 and return the costed trajectory."""
    x0 = _checked_x0(dp, schedule, weights, x0)
    return _rollouts([dp], [schedule], x0, weights)[0]


def evaluate_costs(trajectory, weights):
    """Recompute (total, per-player) costs from a trajectory."""
    if trajectory.states.shape[0] != trajectory.horizon + 1:
        raise DimensionError("trajectory state/control lengths disagree")
    if weights.p != trajectory.p:
        raise DimensionError(
            f"{weights.p} weight sets for {trajectory.p} controllers")
    total, per_player = _costs(trajectory.states[None],
                               trajectory.controls[None], weights)
    return float(total[0]), tuple(per_player[0])


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
    seed = int(seed)
    if seed < 0:
        raise ValidationError(f"seed: must be >= 0, got {seed}")
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


@functools.cache
def _generator_from_words():
    """Factory of a Generator on a stream given by its seed words.

    numpy.random is imported on the first call, so importing this module
    (and the CLI) does not load it.
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        """Seed words hashed ahead of time, handed to PCG64 as they are."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return lambda words: Generator(PCG64(Words(words)))


def _draw_deviations(seed, trials, p, steps, N, magnitude):
    """(players, steps, deltas) of the given trials, trial t drawn from
    the stream of default_rng((seed, t)), delta scaled to the magnitude."""
    draws = [(rng.integers(p), rng.integers(steps), rng.normal(size=N))
             for rng in map(_generator_from_words(),
                            _seed_words(seed, trials))]
    players, at, deltas = (np.array(column) for column in zip(*draws))
    # Each row's delta @ delta, the same dot as for the row alone.
    norm = np.sqrt(np.matmul(deltas[:, None], deltas[..., None])[:, 0, 0])
    zero = norm == 0.0
    deltas[zero] = np.eye(N)[0]
    norm[zero] = 1.0
    return players, at, deltas * (float(magnitude) / norm)[:, None]


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
    """
    x0 = _checked_x0(dp, schedule, weights, x0)
    trials = int(trials)
    if trials < 0:
        raise ValidationError(f"trials: must be >= 0, got {trials}")
    change = np.empty(trials)
    margin = np.empty(trials)
    per_block = max(DEVIATION_BLOCK - 1, 1)
    for first in range(0, trials, per_block):
        stop = min(first + per_block, trials)
        block = np.arange(first, stop)
        players, steps, deltas = _draw_deviations(
            seed, block, dp.p, schedule.horizon, dp.N, magnitude)
        order = np.argsort(steps, kind="stable")
        players = players[order]
        offsets = np.zeros((len(block) + 1, dp.p, dp.N))
        offsets[np.arange(1, len(block) + 1), players] = deltas[order]
        states, controls = _closed_loop(
            [dp], [schedule], x0, starts=np.append(0, steps[order]),
            offsets=offsets)
        if first == 0:
            base = _costs(states[:1], controls[:1], weights)[1][0]
        own = _costs(states[1:], controls[1:], weights, players)
        change[first:stop] = own - base[players]
        margin[first:stop] = (change[first:stop]
                              + NASH_TOLERANCE * (1.0 + base[players]))
    min_margin = margin.min(initial=np.inf)
    return DeviationReport(
        passed=bool(min_margin >= 0.0),
        trials=trials,
        min_delta=float(change.min(initial=np.inf)),
        min_margin=float(min_margin),
        tolerance=NASH_TOLERANCE,
    )


# ---------------------------------------------------------------------------
# trajectory files: CSV table plus a JSON sidecar with costs and metadata
# ---------------------------------------------------------------------------

def _fmt(x):
    # repr of a Python float: shortest decimal that round-trips.
    return repr(float(x))


def trajectory_header(M, p, N):
    cols = ["k"]
    cols += [f"x_{m + 1}" for m in range(M)]
    for i in range(p):
        cols += [f"u_{i + 1}_{n + 1}" for n in range(N)]
    return cols


def write_trajectory_csv(trajectory, path, scheme=None, delays=None, seed=0):
    """Write states/controls as CSV and costs/metadata as a .json sidecar.

    The final row carries x(N) with empty control cells.  Floats are
    rendered round-trip exactly, so identical trajectories produce
    byte-identical files.
    """
    path = Path(path)
    steps, p, N = trajectory.controls.shape
    M = trajectory.states.shape[1]
    lines = [",".join(trajectory_header(M, p, N))]
    for k in range(steps):
        cells = [str(k)]
        cells += [_fmt(v) for v in trajectory.states[k]]
        for i in range(p):
            cells += [_fmt(v) for v in trajectory.controls[k, i]]
        lines.append(",".join(cells))
    cells = [str(steps)] + [_fmt(v) for v in trajectory.states[steps]]
    cells += [""] * (p * N)
    lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")

    sidecar = {
        "total_cost": float(trajectory.total_cost),
        "per_player_cost": [float(v) for v in trajectory.per_player_cost],
        "M": M,
        "N": N,
        "p": p,
        "horizon": steps,
        "scheme": str(scheme) if scheme is not None else None,
        "delays": [float(v) for v in delays] if delays is not None else None,
        "seed": int(seed),
    }
    sidecar_path = path.with_suffix(".json")
    sidecar_path.write_text(json.dumps(sidecar, indent=2) + "\n")
    return sidecar_path


def _read_sidecar(path):
    """(M, N, p, horizon, per-player costs, total cost) from a sidecar."""
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise SchemaError(str(path), "missing trajectory sidecar") from None
    except (ValueError, RecursionError) as exc:
        raise SchemaError(str(path), f"invalid JSON: {exc}") from None
    doc = _expect_mapping(doc, str(path))

    def field(key, parse):
        if key not in doc:
            raise SchemaError(f"{path}.{key}", "missing field")
        return parse(doc[key], f"{path}.{key}")

    sizes = []
    for key in ("M", "N", "p", "horizon"):
        value = field(key, _integer)
        if value < 1:
            raise SchemaError(f"{path}.{key}", f"must be >= 1, got {value}")
        sizes.append(value)
    per_player = field("per_player_cost", _vector)
    if len(per_player) != sizes[2]:
        raise SchemaError(f"{path}.per_player_cost",
                          f"{len(per_player)} entries for p={sizes[2]}")
    return (*sizes, per_player, field("total_cost", _number))


def read_trajectory_csv(path):
    """Reload a trajectory written by :func:`write_trajectory_csv`.

    Any departure from that layout (a missing, repeated or extra step, a
    short or non-numeric cell, a missing or malformed sidecar) raises
    :class:`SchemaError` naming the file and the line or field.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise SchemaError(str(path), f"not a text file: {exc}") from None
    if not lines:
        raise SchemaError(str(path), "empty trajectory file")
    M, N, p, steps, per_player, total = _read_sidecar(path.with_suffix(".json"))
    # Sizes come from the sidecar, so they are checked against the file
    # before anything of that size is built.
    header = lines[0].split(",")
    if len(header) != 1 + M + p * N or header != trajectory_header(M, p, N):
        raise SchemaError(str(path), "trajectory header does not match sidecar")
    states = []
    controls = []
    for k, line in enumerate(lines[1:]):
        where = f"{path} line {k + 2}"
        if k > steps:
            raise SchemaError(where, f"row after the final step {steps}")
        cells = line.split(",")
        if len(cells) != len(header):
            raise SchemaError(where,
                              f"{len(cells)} cells, expected {len(header)}")
        if cells[0] != str(k):
            raise SchemaError(where, f"step {cells[0]!r}, expected {k}")
        width = 1 + M if k == steps else len(header)
        if k == steps and any(cells[width:]):
            raise SchemaError(where, "final row must leave the controls empty")
        values = []
        for column, cell in zip(header[1:width], cells[1:width]):
            try:
                values.append(float(cell))
            except ValueError:
                raise SchemaError(f"{where} column {column}",
                                  f"expected a number, got {cell!r}") from None
        states.append(values[:M])
        if k < steps:
            controls.append(values[M:])
    if len(lines) - 1 < steps + 1:
        raise SchemaError(str(path), f"{len(lines) - 1} rows, the sidecar's "
                                     f"horizon {steps} needs {steps + 1}")
    return Trajectory(
        states=np.array(states),
        controls=np.reshape(controls, (steps, p, N)),
        per_player_cost=np.array(per_player),
        total_cost=total,
    )

