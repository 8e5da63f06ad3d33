"""Closed-loop rollout, quadratic cost evaluation and the trajectory
files.

The online loop mirrors what the distributed controllers actually do: at
step k each forms u_i(k) from the measured state and the previously
exchanged inputs (u_j(-1) = 0), the plant advances, and the controllers
exchange this step's inputs for use at k+1.

The equilibrium no-improvement check runs this loop too, but lives in
``deviation``, which only that check loads; ``nash_deviation_check`` is
still reached through this module.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericalError, SchemaError, ValidationError
from .lin_ops import check_shape
from .model import (
    DiscretePlant,
    GainSchedule,
    GameWeights,
    _array,
    _fields,
    _instance,
    _integer,
    _number,
    check_compatible,
    dump_json,
    load_json,
    write_csv,
)


def __getattr__(name):
    """nash_deviation_check, imported from ``deviation`` on first use and
    then bound here, so later lookups (and a scan of this module's names)
    find it like any other function of the module."""
    if name != "nash_deviation_check":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .deviation import nash_deviation_check
    globals()[name] = nash_deviation_check
    return nash_deviation_check


@dataclass(frozen=True, eq=False)
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

    @property
    def M(self):
        return self.states.shape[1]

    @property
    def N(self):
        return self.controls.shape[2]


# A diverging loop overflows quietly; _costs then names the step.
@np.errstate(over="ignore", invalid="ignore")
def _closed_loop(plants, schedules, x0, starts=None, offsets=None):
    """Run the feedback loop for a batch of rows that all start at x0.

    Row b runs plants[b] under schedules[b]; a single plant and schedule
    are shared by every row, their arrays broadcasting over the rows.

    Rows may join late, with one shared plant and schedule: starts, one
    per row, ascending from starts[0] == 0, lets row b follow row 0 (the
    base) up to step starts[b], where offsets[b] (p, N) is added to its
    inputs; every law stays in place afterwards.  Until then the row is
    the base row bit for bit, so step k runs only the rows with
    starts <= k, each taking the base row's state and last inputs as it
    joins; its entries before its start are left unset.

    Each row's timeline is one tape, [u(-1), x(0), u(0), x(1), ...,
    x(horizon)] with u(-1) = 0, so the windows [u(k-1), x(k)] follow each
    other, and a step is one dot:

        [u(k), x(k+1)] = L[k] [u(k-1), x(k)],
        L[k] = [K[k]; [Gamma1 | Phi] + Gamma0 K[k]],

    K[k] = [B_coef[k] | A_coef[k]], each Gamma's and B_coef's controller
    blocks side by side.  A row that joins then adds [offset, Gamma0
    offset] to its new window.  So u(k) is the dot of K[k]'s rows, and
    x(k+1) takes Gamma0 u(k) through L[k].  One np.einsum
    builds L for every step and row before the loop, and each step's dot
    is one np.einsum, never BLAS.  Its loop sums a dot in one order when
    the dot's axis is the one it runs innermost, as the windows and L's
    rows make it (both contiguous); Gamma0 K[k] it runs along K[k]'s
    rows, adding the terms of each entry one at a time in index order.
    Neither order depends on where the operands sit in memory.  So each
    row's arithmetic does not depend on the batch or the BLAS kernel: a
    row equals the same plant and schedule run alone, and a row that
    joins late equals one run from step 0 with its offset at its start
    step.

    Returns the tapes as (rows, horizon + 1, n + M), line k of a row being
    [u(k-1), x(k)], n = p N; _timelines views them as states and controls.
    """
    steps, p = schedules[0].horizon, schedules[0].p
    rows = len(schedules) if starts is None else len(starts)
    M, n = plants[0].M, p * plants[0].N
    width = n + M  # [u(k-1), x(k)]
    # L[k] is (rows or 1, width, width).
    L = np.empty((steps, len(schedules), width, width))
    for b, s in enumerate(schedules):
        L[:, b, :n, :n] = s.B_coef.transpose(0, 1, 3, 2, 4).reshape(
            steps, n, n)
        L[:, b, :n, n:] = s.A_coef.reshape(steps, n, M)
    Gamma0 = np.stack([np.hstack(dp.Gamma0) for dp in plants])
    np.einsum("...mi,...ij->...mj", Gamma0, L[:, :, :n], out=L[:, :, n:])
    L[:, :, n:] += np.stack([np.hstack((*dp.Gamma1, dp.Phi))
                             for dp in plants])
    if offsets is not None:
        offsets = offsets.reshape(rows, n)
        offsets = np.hstack((offsets,
                             np.einsum("mi,bi->bm", Gamma0[0], offsets)))
    # joined[k]: the leading rows that run at step k.
    joined = ([rows] * steps if starts is None else
              np.searchsorted(starts, np.arange(steps), side="right").tolist())
    tape = np.empty((rows, (steps + 1) * width))
    tape[:, :n] = 0.0
    tape[:, n:width] = x0
    ran = 0
    for k in range(steps):
        first, ran = ran, joined[k]
        at = k * width
        if 0 < first < ran:
            tape[first:ran, at:at + width] = tape[0, at:at + width]
        window = tape[:ran, at + width:at + 2 * width]
        np.einsum("...ij,...j->...i", L[k], tape[:ran, at:at + width],
                  out=window)
        if offsets is not None and first < ran:
            window[first:ran] += offsets[first:ran]
    return tape.reshape(rows, steps + 1, width)


def _timelines(tape, p, M):
    """States (rows, horizon + 1, M) and controls (rows, horizon, p, N) of
    _closed_loop's tapes, as views."""
    rows, lines, width = tape.shape
    return (tape[:, :, width - M:],
            tape[:, 1:, :width - M].reshape(rows, lines - 1, p, -1))


def _quadratic(v, W):
    """v' W v for each vector along the last axis of v, formed as (v' W) v
    by two np.einsum dots, so that its bits do not depend on the BLAS
    kernel or on where v sits in memory."""
    return np.einsum("...j,...j->...", np.einsum("...i,...ij->...j", v, W), v)


def _running_sum(terms):
    """terms[0] + terms[1] + ... in that order, one sum per column.

    np.add.accumulate adds strictly in sequence, where np.add.reduce may
    sum pairwise.
    """
    return np.add.accumulate(terms, axis=0)[-1]


def _divergence(terms, row):
    """NumericalError at the row's first step whose costs, summed in step
    order, are not finite; terms is (2 horizon + 1, players, rows), laid
    out as _costs sums them."""
    own = terms[..., row]
    per_step = np.append((own[1::2] + own[2::2]).sum(axis=1), own[0].sum())
    step = int(np.argmin(np.isfinite(np.cumsum(per_step))))
    return NumericalError(f"closed loop diverges: non-finite state or "
                          f"cost at step {step}", step, row)


@np.errstate(over="ignore", invalid="ignore")
def _costs(tape, weights, players=None, starts=None):
    """Batched (total, per-player) costs of the trajectories on the tapes,
    laid out as _closed_loop returns them.

    Each cost is a running sum in step order, terminal term first:
    x(N)'QN x(N), then x(k)'Q x(k) and u(k)'R u(k) for each step k.  The
    terms are stacked in that order and summed as one accumulate, so a
    batch of one equals a plain step-by-step sum bit for bit, and a cost
    formed alone equals its entry among all the per-player costs.

    Given players and starts, the rows are a block of the deviation check
    as _closed_loop runs it: row 0 is the base, and row b follows it up
    to step starts[b].  Returns the base row's per-player costs and, for
    every later row, its cost to controller players[b] alone.  Such a
    row's terms up to its start are the base row's, so only its later
    x'Qx and its u'Ru from its start on are formed.

    A non-finite cost (as any non-finite state or control makes it) raises
    NumericalError at the row's first step whose costs, summed in step
    order, are not finite; its ``row`` is the row's index in the batch.
    """
    p, M = weights.p, weights.Q[0].shape[0]
    states, controls = _timelines(tape, p, M)
    steps, N = controls.shape[1], controls.shape[3]
    Q, QN, R = (np.stack(w)[:, None] for w in (weights.Q, weights.QN,
                                               weights.R))
    # Step-major views: xs is (steps + 1, rows, M), us (steps, p, rows, N).
    xs = states.transpose(1, 0, 2)
    us = controls.transpose(1, 2, 0, 3)
    costed = slice(None) if players is None else slice(1)
    rows = xs[:, costed].shape[1]
    terms = np.empty((2 * steps + 1, p, rows))
    terms[0] = _quadratic(xs[steps, costed], QN)
    terms[1::2] = _quadratic(xs[:steps, None, costed], Q)
    terms[2::2] = _quadratic(us[:, :, costed], R)
    per_player = _running_sum(terms)
    if players is None:
        # Shared-objective total: first controller's state weights,
        # everyone's control effort.  Matches the per-player costs exactly
        # when all state weights coincide, as in both bundled presets.
        shared = np.empty((steps, 1 + p, rows))
        shared[:, 0] = terms[1::2, 0]
        shared[:, 1:] = terms[2::2]
        total = _running_sum(np.concatenate((terms[:1, 0],
                                             shared.reshape(-1, rows))))
        finite = np.isfinite(per_player).all(axis=0) & np.isfinite(total)
        if not finite.all():
            raise _divergence(terms, int(np.argmin(finite)))
        return total, per_player.T.copy()
    if not np.isfinite(per_player).all():
        raise _divergence(terms, 0)
    # Column b: row b's terms to players[b], the base row's (player 0's)
    # in column 0.
    own = terms[:, players, 0]
    # later[k, b]: row b's state at step k is its own, not the base row's.
    later = np.arange(steps + 1)[:, None] > starts
    later[:, 0] = False
    # Line b * (steps + 1) + k: row b's [u(k - 1), x(k)] (a view of the
    # tapes).
    lines = tape.reshape(-1, tape.shape[2])
    for i in range(p):
        mine = later & (players == i)
        # Player i's own lines, step by step.  A row's line k is its own
        # from its start on, x(k) and u(k - 1) alike.
        at, row = np.nonzero(mine)
        taken = lines.take(row * (steps + 1) + at, axis=0)
        x = taken[:, -M:]
        end = np.searchsorted(at, steps)
        own[1::2][mine[:steps]] = _quadratic(x[:end], Q[i, 0])
        own[0][mine[steps]] = _quadratic(x[end:], QN[i, 0])
        own[2::2][mine[1:]] = _quadratic(taken[:, i * N:(i + 1) * N],
                                         R[i, 0])
    cost = _running_sum(own)
    finite = np.isfinite(cost)
    if not finite.all():
        raise _divergence(own[:, None], int(np.argmin(finite)))
    return per_player[:, 0], cost[1:]


def _checked_x0(dp, schedule, weights, x0):
    """x0 as a flat vector, once it, the weights and the schedule fit the
    plant and the schedule's horizon is the weights'."""
    _instance(dp, DiscretePlant, "dp")
    _instance(schedule, GainSchedule, "schedule")
    x0 = check_compatible(dp, weights, x0)
    check_shape(schedule.A_coef.shape, (weights.horizon, dp.p, dp.N, dp.M),
                "schedule.A_coef")
    return x0


def _rollouts(plants, schedules, x0, weights):
    """Costed trajectories of rows that each run their own plant and
    schedule from x0, in one batched closed loop and one cost evaluation."""
    tape = _closed_loop(plants, schedules, x0)
    total, per_player = _costs(tape, weights)
    states, controls = _timelines(tape, weights.p, plants[0].M)
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
    _instance(trajectory, Trajectory, "trajectory")
    _instance(weights, GameWeights, "weights")
    steps, M, N = weights.horizon, weights.Q[0].shape[0], weights.R[0].shape[0]
    check_shape(trajectory.controls.shape, (steps, weights.p, N),
                "trajectory.controls")
    check_shape(trajectory.states.shape, (steps + 1, M), "trajectory.states")
    tape = np.zeros((1, steps + 1, weights.p * N + M))
    tape[0, :, -M:] = trajectory.states
    tape[0, 1:, :-M] = trajectory.controls.reshape(steps, -1)
    total, per_player = _costs(tape, weights)
    return float(total[0]), tuple(per_player[0])


# ---------------------------------------------------------------------------
# trajectory files: CSV table plus a JSON sidecar with costs and metadata
# ---------------------------------------------------------------------------

def trajectory_header(M, p, N):
    cols = ["k"]
    cols += [f"x_{m + 1}" for m in range(M)]
    for i in range(p):
        cols += [f"u_{i + 1}_{n + 1}" for n in range(N)]
    return cols


def sidecar_path(path):
    """The JSON sidecar of trajectory CSV ``path``: ``path`` with a .json
    suffix."""
    return Path(path).with_suffix(".json")


def write_trajectory_csv(trajectory, path, scheme=None, delays=None, seed=0):
    """Write states/controls as CSV and costs/metadata as a .json sidecar.

    The final row carries x(N) with empty control cells.  Floats are
    rendered round-trip exactly, so identical trajectories produce
    byte-identical files.  A ``path`` that is its own sidecar (one ending
    in .json), or a ``seed`` that is not an integer, raises
    :class:`ValidationError` before anything is written.
    """
    _instance(trajectory, Trajectory, "trajectory")
    seed = _integer(seed, "seed", minimum=None)
    path = Path(path)
    if path.name and sidecar_path(path) == path:
        raise ValidationError(f"{path}: a trajectory CSV must not end in "
                              ".json, its sidecar would overwrite it")
    steps, p, N = trajectory.controls.shape
    header = trajectory_header(trajectory.M, p, N)
    controls = trajectory.controls.reshape(steps, p * N).tolist()
    controls.append([None] * (p * N))
    write_csv([dict(zip(header, [k, *x, *u])) for k, (x, u)
               in enumerate(zip(trajectory.states.tolist(), controls))], path)

    sidecar = {
        "total_cost": float(trajectory.total_cost),
        "per_player_cost": [float(v) for v in trajectory.per_player_cost],
        "M": trajectory.M,
        "N": N,
        "p": p,
        "horizon": steps,
        "scheme": str(scheme) if scheme is not None else None,
        "delays": [float(v) for v in delays] if delays is not None else None,
        "seed": seed,
    }
    sidecar_file = sidecar_path(path)
    sidecar_file.write_text(dump_json(sidecar))
    return sidecar_file


def _read_sidecar(path):
    """(M, N, p, horizon, per-player costs, total cost) from a sidecar."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise SchemaError(str(path), "missing trajectory sidecar") from None
    keys = ("M", "N", "p", "horizon")
    doc = _fields(load_json(data, str(path)), str(path),
                  (*keys, "per_player_cost", "total_cost"))
    sizes = [_integer(doc[key], f"{path}.{key}") for key in keys]
    per_player = _array(doc["per_player_cost"], f"{path}.per_player_cost", 1)
    if len(per_player) != sizes[2]:
        raise SchemaError(f"{path}.per_player_cost",
                          f"{len(per_player)} entries for p={sizes[2]}")
    return (*sizes, per_player, _number(doc["total_cost"], f"{path}.total_cost"))


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
    M, N, p, steps, per_player, total = _read_sidecar(sidecar_path(path))
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
                values.append(_number(float(cell), f"{where} column {column}"))
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
        per_player_cost=per_player,
        total_cost=total,
    )

