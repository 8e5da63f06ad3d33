"""Plant, delay, and cost-weight data model plus experiment configuration.

The continuous-time plant is

    xdot(t) = A x(t) + sum_i B_i u_i(t - tau_i),

with p controllers whose total (sensing plus actuation) delays tau_i are
each strictly shorter than the sampling period h.  Measurements are the
full state (identity observation).  Sampling with a zero-order hold splits
each controller's input matrix into a current-step part Gamma0 and a
previous-step part Gamma1:

    x(k+1) = Phi x(k) + sum_i [Gamma0_i u_i(k) + Gamma1_i u_i(k-1)],
    Phi    = e^(A h),
    Gamma0_i = int_0^(h - tau_i) e^(A s) ds  B_i,
    Gamma1_i = int_(h - tau_i)^h e^(A s) ds  B_i.

Configurations are JSON documents; see ``load_config`` for the schema.
"""

import enum
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import lin_ops
from .errors import (
    DelayBoundError,
    DimensionError,
    SchemaError,
    ValidationError,
)

# Asymmetry up to this (absolute) size is treated as serialization noise
# and symmetrized away; anything larger is rejected.
SYMMETRY_ATOL = 1e-12

# Tolerance for the Gamma0 + Gamma1 split-conservation check.
SPLIT_CONSERVATION_ATOL = 1e-9

# Size budget: the most float64 entries (80 MB) that a config may ask one
# array of a run to hold.  The largest arrays grow as horizon * (M + p N)^2
# per plant (the recursion's stacked solutions and value matrices, the
# rolled-out histories), and sweeps and comparisons hold one set per grid
# point, so configs past it are rejected before anything is allocated.
MAX_ENTRIES = 10**7


class Scheme(enum.Enum):
    """Controller-design schemes supported by the comparison harness."""

    PROPOSED = "proposed"
    SINGLE_DELAYED = "single_delayed"
    DELAY_FREE_GAME = "delay_free_game"

    def __str__(self):
        return self.value


def _readonly(arr):
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ContinuousPlant:
    """Continuous-time LTI plant with per-controller input maps and delays.

    A: M x M dynamics matrix.
    B: tuple of p input matrices, all M x N.
    delays: total delay tau_i per controller, each in [0, h).
    h: sampling period, > 0.
    """

    A: np.ndarray
    B: tuple
    delays: tuple
    h: float

    def __post_init__(self):
        A = lin_ops.as_matrix(self.A, "A")
        if A.shape[0] != A.shape[1]:
            raise DimensionError(f"A must be square, got {A.shape}")
        B = tuple(lin_ops.as_matrix(b, f"B[{i}]") for i, b in enumerate(self.B))
        if not B:
            raise ValidationError("controller count: need at least one B matrix")
        for i, b in enumerate(B):
            if b.shape != B[0].shape:
                raise DimensionError(
                    f"B[{i}] has shape {b.shape}, expected {B[0].shape}")
            if b.shape[0] != A.shape[0]:
                raise DimensionError(
                    f"B[{i}] has {b.shape[0]} rows, expected {A.shape[0]}")
        h = float(self.h)
        if not (np.isfinite(h) and h > 0):
            raise ValidationError(f"sampling period: h must be positive, got {h}")
        delays = tuple(float(t) for t in self.delays)
        if len(delays) != len(B):
            raise DimensionError(
                f"{len(delays)} delays for {len(B)} controllers")
        for i, tau in enumerate(delays):
            if not (np.isfinite(tau) and 0.0 <= tau < h):
                raise DelayBoundError(
                    f"delay-bound: delay[{i}]={tau} must satisfy 0 <= tau < h={h}")
        object.__setattr__(self, "A", _readonly(A))
        object.__setattr__(self, "B", tuple(_readonly(b) for b in B))
        object.__setattr__(self, "delays", delays)
        object.__setattr__(self, "h", h)

    @property
    def M(self):
        return self.A.shape[0]

    @property
    def N(self):
        return self.B[0].shape[1]

    @property
    def p(self):
        return len(self.B)

    def with_delays(self, delays):
        """Copy of this plant with the delay vector replaced."""
        return replace(self, delays=tuple(float(t) for t in delays))


@dataclass(frozen=True)
class DiscretePlant:
    """Sampled plant: Phi plus the split input matrices per controller."""

    Phi: np.ndarray
    Gamma0: tuple
    Gamma1: tuple

    def __post_init__(self):
        Phi = lin_ops.as_matrix(self.Phi, "Phi")
        if Phi.shape[0] != Phi.shape[1]:
            raise DimensionError(f"Phi must be square, got {Phi.shape}")
        G0 = tuple(lin_ops.as_matrix(g, f"Gamma0[{i}]")
                   for i, g in enumerate(self.Gamma0))
        G1 = tuple(lin_ops.as_matrix(g, f"Gamma1[{i}]")
                   for i, g in enumerate(self.Gamma1))
        if not G0 or len(G0) != len(G1):
            raise DimensionError("Gamma0 and Gamma1 must pair up per controller")
        shape = G0[0].shape
        for i, g in enumerate(G0 + G1):
            if g.shape != shape:
                raise DimensionError(
                    f"input matrix {i} has shape {g.shape}, expected {shape}")
        if shape[0] != Phi.shape[0]:
            raise DimensionError(
                f"input matrices have {shape[0]} rows, expected {Phi.shape[0]}")
        object.__setattr__(self, "Phi", _readonly(Phi))
        object.__setattr__(self, "Gamma0", tuple(_readonly(g) for g in G0))
        object.__setattr__(self, "Gamma1", tuple(_readonly(g) for g in G1))

    @property
    def M(self):
        return self.Phi.shape[0]

    @property
    def N(self):
        return self.Gamma0[0].shape[1]

    @property
    def p(self):
        return len(self.Gamma0)

    def select_controller(self, index):
        """Single-controller plant keeping only the given controller's input."""
        return DiscretePlant(self.Phi, (self.Gamma0[index],), (self.Gamma1[index],))


def discretize(plant):
    """Zero-order-hold discretization with the delay split.

    Each distinct time t in {h, h - tau_i, tau_i} costs one augmented
    exponential, which yields both e^(A t) and int_0^t e^(A s) ds
    (``lin_ops.exp_and_integral``).  Gamma1_i comes from the semigroup
    identity Gamma1_i = e^(A (h - tau_i)) int_0^tau_i e^(A s) ds B_i, not
    from the total minus Gamma0_i, so the conservation identity
    Gamma0_i + Gamma1_i = int_0^h e^(A s) ds B_i checked on the result is
    an independent check.  A delay of exactly zero yields Gamma1_i = +0.0.
    """
    pairs = {}

    def exp_pair(t):
        if t not in pairs:
            pairs[t] = lin_ops.exp_and_integral(plant.A, t)
        return pairs[t]

    Phi, total = exp_pair(plant.h)
    Gamma0 = []
    Gamma1 = []
    for B_i, tau in zip(plant.B, plant.delays):
        shift, held = exp_pair(plant.h - tau)
        Gamma0.append(held @ B_i)
        if tau == 0.0:
            Gamma1.append(np.zeros_like(B_i))
        else:
            Gamma1.append(shift @ (exp_pair(tau)[1] @ B_i))
        drift = np.abs(Gamma0[-1] + Gamma1[-1] - total @ B_i).max()
        if drift > SPLIT_CONSERVATION_ATOL:
            raise ValidationError(
                f"delay-split conservation: Gamma0 + Gamma1 deviates from the "
                f"undelayed input matrix by {drift:.3e}")
    return DiscretePlant(Phi, tuple(Gamma0), tuple(Gamma1))


def _checked_weight(W, name, definite):
    W = lin_ops.as_matrix(W, name)
    if W.shape[0] != W.shape[1]:
        raise DimensionError(f"{name} must be square, got {W.shape}")
    # Entries near the float limit can overflow in the skew, the
    # symmetrization or the eigenvalues; each is checked before use.
    with np.errstate(over="ignore", invalid="ignore"):
        skew = np.abs(W - W.T).max() if W.size else 0.0
        if skew > SYMMETRY_ATOL:
            raise ValidationError(
                f"weight symmetry: {name} is asymmetric by {skew:.3e}")
        W = lin_ops.symmetrize(W)
        if not np.all(np.isfinite(W)):
            raise ValidationError(f"weight range: {name} overflows")
        eigs = np.linalg.eigvalsh(W)
    if not np.all(np.isfinite(eigs)):
        raise ValidationError(f"weight range: {name} has non-finite "
                              f"eigenvalues")
    floor = SYMMETRY_ATOL * max(1.0, np.abs(W).max())
    if definite:
        if eigs.min() <= 0.0:
            raise ValidationError(
                f"weight definiteness: {name} must be positive definite "
                f"(min eigenvalue {eigs.min():.3e})")
    elif eigs.min() < -floor:
        raise ValidationError(
            f"weight definiteness: {name} must be positive semi-definite "
            f"(min eigenvalue {eigs.min():.3e})")
    return W


@dataclass(frozen=True)
class GameWeights:
    """Per-controller quadratic weights and the horizon length.

    Q: running state weights, one M x M PSD matrix per controller.
    QN: terminal state weights, same shapes, PSD.
    R: control weights, one N x N positive-definite matrix per controller.
    horizon: number of control steps.

    The running weights are nominally positive definite; semi-definite ones
    (a single weighted output, say) are accepted because the recursion only
    needs R > 0 for well-posed control updates.
    """

    Q: tuple
    QN: tuple
    R: tuple
    horizon: int

    def __post_init__(self):
        Q = tuple(_checked_weight(q, f"Q[{i}]", definite=False)
                  for i, q in enumerate(self.Q))
        QN = tuple(_checked_weight(q, f"QN[{i}]", definite=False)
                   for i, q in enumerate(self.QN))
        R = tuple(_checked_weight(r, f"R[{i}]", definite=True)
                  for i, r in enumerate(self.R))
        if not (len(Q) == len(QN) == len(R)) or not Q:
            raise DimensionError("Q, QN, R must list one matrix per controller")
        for i in range(1, len(Q)):
            if Q[i].shape != Q[0].shape or QN[i].shape != Q[0].shape:
                raise DimensionError("state weights must share one shape")
            if R[i].shape != R[0].shape:
                raise DimensionError("control weights must share one shape")
        if QN[0].shape != Q[0].shape:
            raise DimensionError("QN must match Q in shape")
        if self.horizon != int(self.horizon):
            raise ValidationError(f"horizon: must be an integer, "
                                  f"got {self.horizon}")
        horizon = int(self.horizon)
        if horizon < 1:
            raise ValidationError(f"horizon: must be >= 1, got {horizon}")
        dim = Q[0].shape[0] + len(R) * R[0].shape[0]
        if horizon * dim**2 > MAX_ENTRIES:
            raise ValidationError(
                f"weights.horizon: {horizon} steps of {dim} x {dim} "
                f"matrices exceed the size budget of {MAX_ENTRIES} entries")
        object.__setattr__(self, "Q", tuple(_readonly(q) for q in Q))
        object.__setattr__(self, "QN", tuple(_readonly(q) for q in QN))
        object.__setattr__(self, "R", tuple(_readonly(r) for r in R))
        object.__setattr__(self, "horizon", horizon)

    @property
    def p(self):
        return len(self.Q)

    def select_player(self, index):
        """Weights restricted to one controller (same horizon)."""
        return GameWeights((self.Q[index],), (self.QN[index],),
                           (self.R[index],), self.horizon)

    def shares_state_cost(self):
        """True when every controller carries identical Q and QN."""
        return all(
            np.array_equal(self.Q[i], self.Q[0])
            and np.array_equal(self.QN[i], self.QN[0])
            for i in range(self.p))


def check_compatible(plant, weights, x0=None):
    """Raise :class:`DimensionError` unless the weights, and x0 when given,
    fit the plant (continuous or discretized): one weight set per
    controller, M x M state weights, N x N control weights, M entries of
    x0."""
    if weights.p != plant.p:
        raise DimensionError(
            f"{weights.p} weight sets for {plant.p} controllers")
    if weights.Q[0].shape[0] != plant.M:
        raise DimensionError(
            f"state weights are {weights.Q[0].shape[0]}-dimensional, "
            f"plant has {plant.M} states")
    if weights.R[0].shape[0] != plant.N:
        raise DimensionError(
            f"control weights are {weights.R[0].shape[0]}-dimensional, "
            f"controls have {plant.N}")
    if x0 is not None and x0.shape[0] != plant.M:
        raise DimensionError(
            f"x0 has length {x0.shape[0]}, expected {plant.M}")


@dataclass(frozen=True)
class ExperimentConfig:
    """A complete experiment: plant, weights, initial state, scheme, sweep."""

    plant: ContinuousPlant
    weights: GameWeights
    x0: np.ndarray = None
    scheme: Scheme = Scheme.PROPOSED
    sweep: tuple = None

    def __post_init__(self):
        x0 = np.zeros(self.plant.M) if self.x0 is None else self.x0
        x0 = np.asarray(x0, dtype=float).reshape(-1)
        check_compatible(self.plant, self.weights, x0)
        if x0.size and not np.all(np.isfinite(x0)):
            raise ValidationError("x0 contains non-finite entries")
        scheme = self.scheme
        if not isinstance(scheme, Scheme):
            scheme = Scheme(scheme)
        sweep = self.sweep
        if sweep is not None:
            sweep = tuple(tuple(float(v) for v in grid) for grid in sweep)
            if len(sweep) != self.plant.p:
                raise DimensionError(
                    f"sweep needs {self.plant.p} delay grids, got {len(sweep)}")
            for i, grid in enumerate(sweep):
                if not grid:
                    raise ValidationError(f"sweep grid {i} is empty")
                for v in grid:
                    if not (0.0 <= v < self.plant.h):
                        raise DelayBoundError(
                            f"delay-bound: sweep grid value {v} must satisfy "
                            f"0 <= tau < h={self.plant.h}")
            points = math.prod(len(grid) for grid in sweep)
            dim = self.plant.M + self.plant.p * self.plant.N
            if points * self.weights.horizon * dim**2 > MAX_ENTRIES:
                raise ValidationError(
                    f"sweep.delays_grid: {points} grid points of "
                    f"{self.weights.horizon} steps of {dim} x {dim} matrices "
                    f"exceed the size budget of {MAX_ENTRIES} entries")
        object.__setattr__(self, "x0", _readonly(x0))
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "sweep", sweep)


# ---------------------------------------------------------------------------
# configuration documents
# ---------------------------------------------------------------------------

_PLANT_KEYS = {"A", "B", "delays", "h"}
_WEIGHT_KEYS = {"Q", "QN", "R", "horizon"}
_TOP_KEYS = {"plant", "weights", "x0", "scheme", "sweep"}
_SWEEP_KEYS = {"delays_grid"}


def _expect_mapping(value, path):
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected an object, got {type(value).__name__}")
    return value


def _reject_unknown(mapping, allowed, path):
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise SchemaError(f"{path}.{unknown[0]}", "unknown field")


def _number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(path, "number out of floating-point range") from None


def _integer(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {type(value).__name__}")
    return value


def _vector(value, path):
    if not isinstance(value, list):
        raise SchemaError(path, "expected an array of numbers")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _matrix(value, path):
    if not isinstance(value, list) or not value:
        raise SchemaError(path, "expected a non-empty array of rows")
    rows = [_vector(row, f"{path}[{i}]") for i, row in enumerate(value)]
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise SchemaError(f"{path}[{i}]", f"row length {len(row)} != {width}")
    return rows


def _matrix_list(value, path):
    if not isinstance(value, list) or not value:
        raise SchemaError(path, "expected a non-empty array of matrices")
    return [_matrix(m, f"{path}[{i}]") for i, m in enumerate(value)]


def _delay(value, path):
    # Either a total delay or a {sc, ca} pair summed on ingestion.
    if isinstance(value, dict):
        _reject_unknown(value, {"sc", "ca"}, path)
        missing = {"sc", "ca"} - set(value)
        if missing:
            raise SchemaError(f"{path}.{sorted(missing)[0]}", "missing field")
        return _number(value["sc"], f"{path}.sc") + _number(value["ca"], f"{path}.ca")
    return _number(value, path)


def config_from_dict(doc):
    """Build an :class:`ExperimentConfig` from a parsed JSON document."""
    doc = _expect_mapping(doc, "<document>")
    _reject_unknown(doc, _TOP_KEYS, "<document>")
    for key in ("plant", "weights"):
        if key not in doc:
            raise SchemaError(f"<document>.{key}", "missing field")

    plant_doc = _expect_mapping(doc["plant"], "plant")
    _reject_unknown(plant_doc, _PLANT_KEYS, "plant")
    for key in _PLANT_KEYS:
        if key not in plant_doc:
            raise SchemaError(f"plant.{key}", "missing field")
    delays_doc = plant_doc["delays"]
    if not isinstance(delays_doc, list):
        raise SchemaError("plant.delays", "expected an array")
    delays = [_delay(v, f"plant.delays[{i}]") for i, v in enumerate(delays_doc)]
    plant = ContinuousPlant(
        A=_matrix(plant_doc["A"], "plant.A"),
        B=tuple(_matrix_list(plant_doc["B"], "plant.B")),
        delays=tuple(delays),
        h=_number(plant_doc["h"], "plant.h"),
    )

    weights_doc = _expect_mapping(doc["weights"], "weights")
    _reject_unknown(weights_doc, _WEIGHT_KEYS, "weights")
    for key in ("Q", "R", "horizon"):
        if key not in weights_doc:
            raise SchemaError(f"weights.{key}", "missing field")
    Q = _matrix_list(weights_doc["Q"], "weights.Q")
    QN = (_matrix_list(weights_doc["QN"], "weights.QN")
          if "QN" in weights_doc else Q)
    weights = GameWeights(
        Q=tuple(Q),
        QN=tuple(QN),
        R=tuple(_matrix_list(weights_doc["R"], "weights.R")),
        horizon=_integer(weights_doc["horizon"], "weights.horizon"),
    )

    x0 = _vector(doc["x0"], "x0") if "x0" in doc else None

    scheme = Scheme.PROPOSED
    if "scheme" in doc:
        raw = doc["scheme"]
        if not isinstance(raw, str):
            raise SchemaError("scheme", "expected a string")
        try:
            scheme = Scheme(raw)
        except ValueError:
            choices = ", ".join(s.value for s in Scheme)
            raise SchemaError("scheme", f"must be one of: {choices}") from None

    sweep = None
    if "sweep" in doc:
        sweep_doc = _expect_mapping(doc["sweep"], "sweep")
        _reject_unknown(sweep_doc, _SWEEP_KEYS, "sweep")
        if "delays_grid" not in sweep_doc:
            raise SchemaError("sweep.delays_grid", "missing field")
        grids = sweep_doc["delays_grid"]
        if not isinstance(grids, list):
            raise SchemaError("sweep.delays_grid", "expected an array of arrays")
        sweep = tuple(
            tuple(_vector(grid, f"sweep.delays_grid[{i}]"))
            for i, grid in enumerate(grids))

    return ExperimentConfig(plant=plant, weights=weights, x0=x0,
                            scheme=scheme, sweep=sweep)


def load_config(text):
    """Parse and validate a JSON configuration document.

    Schema (unknown keys are rejected)::

        {
          "plant":   {"A": [[...]], "B": [[[...]], ...],
                      "delays": [number | {"sc":..., "ca":...}, ...],
                      "h": number},
          "weights": {"Q": [[[...]], ...], "QN": optional, "R": [[[...]], ...],
                      "horizon": int},
          "x0":      optional array (default: zero vector),
          "scheme":  optional string (default: "proposed"),
          "sweep":   optional {"delays_grid": [[...], ...]}
        }
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed text and over-long integer literals.
        raise SchemaError("<document>", f"invalid JSON: {exc}") from None
    return config_from_dict(doc)


def config_to_dict(config):
    """Plain-dict form of a config; inverse of :func:`config_from_dict`."""
    doc = {
        "plant": {
            "A": config.plant.A.tolist(),
            "B": [b.tolist() for b in config.plant.B],
            "delays": list(config.plant.delays),
            "h": config.plant.h,
        },
        "weights": {
            "Q": [q.tolist() for q in config.weights.Q],
            "QN": [q.tolist() for q in config.weights.QN],
            "R": [r.tolist() for r in config.weights.R],
            "horizon": config.weights.horizon,
        },
        "x0": config.x0.tolist(),
        "scheme": config.scheme.value,
    }
    if config.sweep is not None:
        doc["sweep"] = {"delays_grid": [list(g) for g in config.sweep]}
    return doc


def dump_config(config):
    """Serialize a config to JSON text; load_config(dump_config(c)) == c."""
    return json.dumps(config_to_dict(config), indent=2) + "\n"


# ---------------------------------------------------------------------------
# bundled experiment presets
# ---------------------------------------------------------------------------

def preset_generic():
    """Two-controller second-order test system.

    Both controllers drive the same input channel; costs weight the full
    state heavily against unit control effort.  The sweep grid covers the
    delay square [0, 0.02]^2 on a 6 x 6 lattice.
    """
    grid = tuple(round(0.004 * i, 10) for i in range(6))
    return ExperimentConfig(
        plant=ContinuousPlant(
            A=[[0.0, 1.0], [-3.0, -4.0]],
            B=([[0.0], [1.0]], [[0.0], [1.0]]),
            delays=(0.01, 0.01),
            h=0.05,
        ),
        weights=GameWeights(
            Q=(100.0 * np.eye(2), 100.0 * np.eye(2)),
            QN=(100.0 * np.eye(2), 100.0 * np.eye(2)),
            R=([[1.0]], [[1.0]]),
            horizon=50,
        ),
        x0=[1.0, -0.8],
        sweep=(grid, grid),
    )


def preset_lfc():
    """Two-area load-frequency-control model, nine states.

    States: [df1, dPg1, dXg1, df2, dPg2, dXg2, dPtie, dPc1, dPc2] (area
    frequency deviation, generator output deviation, valve-position
    deviation for each area, tie-line power deviation, and the requested
    generation deviations that the two controllers integrate).  Each
    controller drives its own area's requested-generation state.  Costs
    weight the tie-line power deviation only.
    """
    Tp, Kp, Tt, Tg = 0.2, 1.0, 0.3, 0.08
    r, T12 = 0.2545, 2.4
    A = np.zeros((9, 9))
    A[0, 0] = -1.0 / Tp
    A[0, 1] = Kp / Tp
    A[0, 6] = Kp / Tp
    A[1, 1] = -1.0 / Tt
    A[1, 2] = 1.0 / Tt
    A[2, 0] = -1.0 / (r * Tg)
    A[2, 2] = -1.0 / Tg
    A[2, 7] = 1.0 / Tg
    A[3, 3] = -1.0 / Tp
    A[3, 4] = Kp / Tp
    A[3, 6] = Kp / Tp
    A[4, 4] = -1.0 / Tt
    A[4, 5] = 1.0 / Tt
    A[5, 3] = -1.0 / (r * Tg)
    A[5, 5] = -1.0 / Tg
    A[5, 8] = 1.0 / Tg
    A[6, 0] = T12
    A[6, 3] = -T12
    B1 = np.zeros((9, 1))
    B1[7, 0] = 1.0
    B2 = np.zeros((9, 1))
    B2[8, 0] = 1.0
    Q = np.zeros((9, 9))
    Q[6, 6] = 1.0
    x0 = np.zeros(9)
    x0[0] = 1.0
    grid = tuple(np.linspace(0.0, 0.008, 4).tolist())
    return ExperimentConfig(
        plant=ContinuousPlant(A=A, B=(B1, B2), delays=(0.004, 0.004), h=0.01),
        weights=GameWeights(Q=(Q, Q), QN=(Q, Q), R=([[1.0]], [[1.0]]),
                            horizon=50),
        x0=x0,
        sweep=(grid, grid),
    )


PRESETS = {
    "generic": preset_generic,
    "lfc": preset_lfc,
}
