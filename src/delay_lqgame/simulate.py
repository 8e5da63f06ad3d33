"""Closed-loop rollout, quadratic cost evaluation, and the equilibrium
no-improvement check.

The online loop mirrors what the distributed controllers actually do: at
step k each forms u_i(k) from the measured state and the previously
exchanged inputs (u_j(-1) = 0), the plant advances, and the controllers
exchange this step's inputs for use at k+1.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionError, SchemaError, ValidationError
from .model import _expect_mapping, _integer, _number, _vector

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


def _closed_loop(dp, schedule, x0, offsets=None):
    """Run the feedback loop for a batch of rows that all start at x0.

    offsets, of shape (horizon, rows, p, N), adds offsets[k, b, i] to
    controller i's input at step k in row b; every law stays in place
    afterwards.  Without offsets the batch is the one undeviated row.
    Returns states (rows, horizon + 1, M) and controls (rows, horizon, p, N).

    Sums run player by player in a fixed order, so each row's arithmetic
    does not depend on the batch: a zero offset reproduces the undeviated
    row bit for bit.
    """
    steps = schedule.horizon
    rows = 1 if offsets is None else offsets.shape[1]
    Gamma0, Gamma1 = np.stack(dp.Gamma0), np.stack(dp.Gamma1)
    states = np.empty((rows, steps + 1, dp.M))
    controls = np.empty((rows, steps, dp.p, dp.N))
    x = np.broadcast_to(x0, (rows, dp.M))
    states[:, 0] = x
    u_prev = np.zeros((rows, dp.p, dp.N))
    for k in range(steps):
        u = _matvec(schedule.A_coef[k], x[:, None])
        coupled = _matvec(schedule.B_coef[k], u_prev[:, None])
        for j in range(dp.p):
            u = u + coupled[:, :, j]
        if offsets is not None:
            u = u + offsets[k]
        now = _matvec(Gamma0, u)
        before = _matvec(Gamma1, u_prev)
        x = _matvec(dp.Phi, x)
        for i in range(dp.p):
            x = x + now[:, i] + before[:, i]
        controls[:, k] = u
        states[:, k + 1] = x
        u_prev = u
    return states, controls


def _quadratic(v, W):
    """v' W v for each vector along the last axis of v."""
    return np.matmul(np.matmul(v[..., None, :], W), v[..., :, None])[..., 0, 0]


def _costs(states, controls, weights):
    """Batched (total, per-player) costs of (rows, ...) trajectories.

    Each cost is a running sum in step order, terminal term first, so a
    batch of one equals a plain step-by-step sum bit for bit.
    """
    steps, p = controls.shape[1:3]
    x_run = np.stack([_quadratic(states[:, :steps], Q) for Q in weights.Q],
                     axis=-1)
    x_end = np.stack([_quadratic(states[:, steps], QN) for QN in weights.QN],
                     axis=-1)
    u_run = np.stack([_quadratic(controls[:, :, i], weights.R[i])
                      for i in range(p)], axis=-1)
    per_player = x_end
    # Shared-objective total: first controller's state weights, everyone's
    # control effort.  Matches the per-player costs exactly when all state
    # weights coincide, which both bundled presets satisfy.
    total = x_end[:, 0]
    for k in range(steps):
        per_player = per_player + x_run[:, k] + u_run[:, k]
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
    if weights.p != dp.p:
        raise DimensionError(
            f"{weights.p} weight sets for {dp.p} controllers")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != dp.M:
        raise DimensionError(f"x0 has length {x0.shape[0]}, expected {dp.M}")
    return x0


def rollout(dp, schedule, x0, weights):
    """Simulate the closed loop from x0 and return the costed trajectory."""
    x0 = _checked_x0(dp, schedule, weights, x0)
    states, controls = _closed_loop(dp, schedule, x0)
    total, per_player = _costs(states, controls, weights)
    return Trajectory(states=states[0], controls=controls[0],
                      per_player_cost=per_player[0],
                      total_cost=float(total[0]))


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


def _draw_deviation(seed, trial, p, steps, N, magnitude):
    """(player, step, delta) of one trial, from its own (seed, trial) stream."""
    rng = np.random.default_rng((int(seed), trial))
    player = int(rng.integers(p))
    step = int(rng.integers(steps))
    delta = rng.normal(size=N)
    norm = np.linalg.norm(delta)
    if norm == 0.0:
        delta = np.zeros(N)
        delta[0] = 1.0
        norm = 1.0
    return player, step, delta * (float(magnitude) / norm)


def nash_deviation_check(dp, schedule, weights, x0, trials=200,
                         magnitude=1e-2, seed=0):
    """Probe the no-improvement property of the synthesized equilibrium.

    Each trial perturbs one controller's input at one step by a random
    delta of the given norm, leaves every feedback law in place (all
    controllers, all later steps react to the perturbed history), and
    records the deviator's cost change.  Trials are seeded individually
    from (seed, trial) so they are reproducible and order independent.

    All trials run as rows of one batched closed loop, row 0 being the
    undeviated base, in blocks of DEVIATION_BLOCK rows.
    """
    x0 = _checked_x0(dp, schedule, weights, x0)
    trials = int(trials)
    if trials < 0:
        raise ValidationError(f"trials: must be >= 0, got {trials}")
    rows = trials + 1
    players = np.zeros(rows, dtype=int)
    own_cost = np.empty(rows)
    for start in range(0, rows, DEVIATION_BLOCK):
        stop = min(start + DEVIATION_BLOCK, rows)
        offsets = np.zeros((schedule.horizon, stop - start, dp.p, dp.N))
        for row in range(max(start, 1), stop):
            player, step, delta = _draw_deviation(
                seed, row - 1, dp.p, schedule.horizon, dp.N, magnitude)
            offsets[step, row - start, player] = delta
            players[row] = player
        _, per_player = _costs(*_closed_loop(dp, schedule, x0, offsets),
                               weights)
        if start == 0:
            base = per_player[0]
        own_cost[start:stop] = per_player[np.arange(stop - start),
                                          players[start:stop]]
    deviator = players[1:]
    change = own_cost[1:] - base[deviator]
    margin = change + NASH_TOLERANCE * (1.0 + base[deviator])
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
    except ValueError as exc:
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
    header = trajectory_header(M, p, N)
    if lines[0].split(",") != header:
        raise SchemaError(str(path), "trajectory header does not match sidecar")
    states = np.empty((steps + 1, M))
    controls = np.empty((steps, p, N))
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
        states[k] = values[:M]
        if k < steps:
            controls[k] = np.reshape(values[M:], (p, N))
    if len(lines) - 1 < steps + 1:
        raise SchemaError(str(path), f"{len(lines) - 1} rows, the sidecar's "
                                     f"horizon {steps} needs {steps + 1}")
    return Trajectory(
        states=states,
        controls=controls,
        per_player_cost=np.array(per_player),
        total_cost=total,
    )

