"""Plant, delay, and cost-weight data model plus experiment configuration.

The continuous-time plant is

    xdot(t) = A x(t) + sum_i B_i u_i(t - tau_i),

with p controllers whose total (sensing plus actuation) delays tau_i are
each strictly shorter than the sampling period h.  Measurements are the
full state (identity observation).  Sampling with a zero-order hold splits
each controller's B_i into a current-step part Gamma0 and a previous-step
part Gamma1:

    x(k+1) = Phi x(k) + sum_i [Gamma0_i u_i(k) + Gamma1_i u_i(k-1)],
    Phi    = e^(A h),
    Gamma0_i = int_0^(h - tau_i) e^(A s) ds  B_i,
    Gamma1_i = int_(h - tau_i)^h e^(A s) ds  B_i.

Configurations are JSON documents; see ``load_config`` for the schema.
"""

import enum
import json
import math
import numbers
import operator
from dataclasses import InitVar, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import lin_ops
from .errors import (
    DelayBoundError,
    NumericalError,
    SchemaError,
    ValidationError,
)

# Asymmetry up to this size, relative to the weight's largest entry (or
# absolute below 1), is treated as serialization noise and symmetrized
# away; anything larger is rejected.  A semi-definite weight may dip to
# the same floor below zero.
SYMMETRY_ATOL = 1e-12

# Tolerance of the Gamma0 + Gamma1 split-conservation check, relative to
# the zero-delay Gamma0's largest entry (or absolute below 1).
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


def _check_delays(delays, h, name):
    """Raise DelayBoundError naming ``name[i]`` unless each delay is in [0, h)."""
    for i, tau in enumerate(delays):
        if not 0.0 <= tau < h:
            raise DelayBoundError(f"delay-bound: {name}[{i}]={tau} must "
                                  f"satisfy 0 <= tau < h={h}")


def _field(path, name):
    """A field's name in messages: under its config document path, when
    the object was read from one."""
    return f"{path}.{name}" if path else name


def _check_budget(field, entries):
    """Raise ValidationError naming field when entries pass MAX_ENTRIES."""
    if entries > MAX_ENTRIES:
        raise ValidationError(f"{field}: {entries} entries exceed the size "
                              f"budget of {MAX_ENTRIES}")


# ---------------------------------------------------------------------------
# value rules, one per kind, shared by the document readers and the Python
# API; each raises SchemaError naming the field path
# ---------------------------------------------------------------------------

def _number(value, path):
    """value as a float: a finite real number (numpy scalars too), not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise SchemaError(path, f"expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:
        raise SchemaError(path, "number out of floating-point range") from None
    if not math.isfinite(number):
        raise SchemaError(path, f"expected a finite number, got {number}")
    return number


def _integer(value, path, minimum=1):
    """value as an int >= minimum (any int if minimum is None): an int or
    a numpy integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise SchemaError(path, f"expected an integer, got {type(value).__name__}")
    value = operator.index(value)
    if minimum is not None and value < minimum:
        raise SchemaError(path, f"must be >= {minimum}, got {value}")
    return value


def _scheme(value, path):
    """value as a Scheme: a member or its name."""
    try:
        return Scheme(value)
    except ValueError:
        choices = ", ".join(s.value for s in Scheme)
        raise SchemaError(path, f"must be one of: {choices}") from None


def _entries(value, path):
    """value's entries (matrices, delays, grids, plants or table rows) as a
    tuple; a value that has none, such as a number, None or an empty
    sequence, raises SchemaError."""
    try:
        entries = tuple(value)
    except TypeError:
        raise SchemaError(path, f"expected a sequence, got "
                                f"{type(value).__name__}") from None
    if not entries:
        raise SchemaError(path, "expected a non-empty sequence")
    return entries


def _check_stack(matrices, shape, path):
    """Check a field that lists matrices against the (count, rows, columns)
    shape that its object's sizes imply: each matrix, then the count."""
    for i, matrix in enumerate(matrices):
        lin_ops.check_shape(matrix.shape, shape[1:], f"{path}[{i}]")
    lin_ops.check_shape((len(matrices), *shape[1:]), shape, path)


def _instance(value, kind, path):
    """value, checked to be an instance of the class kind: the rule for the
    built objects (plants, weights, schedules, configs) that the Python
    API takes as arguments."""
    if not isinstance(value, kind):
        raise SchemaError(path, f"expected a {kind.__name__}, got "
                                f"{type(value).__name__}")
    return value


# The records that hold arrays compare and hash by identity (eq=False):
# the generated == would compare arrays elementwise, which raises, and
# their hash would hash arrays.  config_to_dict gives a config's value.
@dataclass(frozen=True, eq=False)
class ContinuousPlant:
    """Continuous-time LTI plant with per-controller input maps and delays.

    A: M x M dynamics matrix.
    B: tuple of p input matrices, all M x N.
    delays: total delay tau_i per controller, each in [0, h).
    h: sampling period, > 0.
    path: the plant's config document path ("plant"), under which error
      messages then name its fields; empty for a plant built in code.
    """

    A: np.ndarray
    B: tuple
    delays: tuple
    h: float
    path: InitVar[str] = ""

    def __post_init__(self, path):
        h = _number(self.h, _field(path, "h"))
        A = lin_ops.as_matrix(self.A, _field(path, "A"), square=True)
        B = tuple(lin_ops.as_matrix(b, _field(path, f"B[{i}]"))
                  for i, b in enumerate(_entries(self.B, _field(path, "B"))))
        # A sizes M, B[0] N and B's length p.
        _check_stack(B, (len(B), A.shape[0], B[0].shape[1]), _field(path, "B"))
        if not h > 0:
            raise ValidationError(f"sampling period: {_field(path, 'h')} "
                                  f"must be positive, got {h}")
        where = _field(path, "delays")
        delays = tuple(_number(t, f"{where}[{i}]")
                       for i, t in enumerate(_entries(self.delays, where)))
        lin_ops.check_shape((len(delays),), (len(B),), where)
        _check_delays(delays, h, where if path else "delay")
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
        """Copy of this plant with the delay vector replaced; the plant
        itself when handed its own delay tuple."""
        return self if delays is self.delays else replace(self, delays=delays)


@dataclass(frozen=True, eq=False)
class DiscretePlant:
    """Sampled plant: Phi plus the split input matrices per controller."""

    Phi: np.ndarray
    Gamma0: tuple
    Gamma1: tuple

    def __post_init__(self):
        Phi = lin_ops.as_matrix(self.Phi, "Phi", square=True)
        G0, G1 = (tuple(lin_ops.as_matrix(g, f"{name}[{i}]")
                        for i, g in enumerate(_entries(getattr(self, name),
                                                       name)))
                  for name in ("Gamma0", "Gamma1"))
        # Phi sizes M, Gamma0[0] N and Gamma0's length p.
        shape = (len(G0), Phi.shape[0], G0[0].shape[1])
        _check_stack(G0, shape, "Gamma0")
        _check_stack(G1, shape, "Gamma1")
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


def exp_pairs(plant, points):
    """{t: (e^(A t), int_0^t e^(A s) ds)} for every time t that
    :func:`discretize` needs at each point, from one stacked exponential."""
    h = plant.h
    times = list(dict.fromkeys([h] + [t for delays in points for tau in delays
                                      if tau for t in (h - tau, tau)]))
    return dict(zip(times, zip(*lin_ops.exp_and_integral(plant.A, times))))


def discretize(plant, pairs=None):
    """Zero-order-hold discretization with the delay split.

    Each distinct time t in {h, h - tau_i, tau_i} needs one augmented
    exponential, which yields both e^(A t) and int_0^t e^(A s) ds; they
    come from ``pairs`` (see :func:`exp_pairs`) when the caller computed
    them for several delay points, else from one stacked exponential
    here.  Gamma1_i comes from the semigroup identity
    Gamma1_i = e^(A (h - tau_i)) int_0^tau_i e^(A s) ds B_i, not from the
    total minus Gamma0_i, so the conservation identity
    Gamma0_i + Gamma1_i = int_0^h e^(A s) ds B_i checked on the result is
    an independent check.  A delay of exactly zero yields Gamma1_i = +0.0.
    """
    pairs = pairs or exp_pairs(plant, [plant.delays])
    Phi, total = pairs[plant.h]
    Gamma0 = []
    Gamma1 = []
    for B_i, tau in zip(plant.B, plant.delays):
        shift, held = pairs[plant.h - tau]
        Gamma0.append(held @ B_i)
        if tau == 0.0:
            Gamma1.append(np.zeros_like(B_i))
        else:
            Gamma1.append(shift @ (pairs[tau][1] @ B_i))
        undelayed = total @ B_i
        drift = np.abs(Gamma0[-1] + Gamma1[-1] - undelayed).max()
        if drift > SPLIT_CONSERVATION_ATOL * max(1.0, np.abs(undelayed).max()):
            raise ValidationError(
                f"delay-split conservation: Gamma0 + Gamma1 deviates from the "
                f"zero-delay Gamma0 by {drift:.3e}")
    return DiscretePlant(Phi, tuple(Gamma0), tuple(Gamma1))


def _checked_weight(W, name, definite):
    W = lin_ops.as_matrix(W, name, square=True)
    # Entries near the float limit can overflow in the skew, the
    # symmetrization or the eigenvalues; each is checked before use.
    floor = SYMMETRY_ATOL * max(1.0, np.abs(W).max(initial=0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        skew = np.abs(W - W.T).max(initial=0.0)
        if skew > floor:
            raise ValidationError(
                f"weight symmetry: {name} is asymmetric by {skew:.3e}")
        W = lin_ops.symmetrize(W)
        if not np.all(np.isfinite(W)):
            raise ValidationError(f"weight range: {name} overflows")
        eigs = np.linalg.eigvalsh(W)
    if not np.all(np.isfinite(eigs)):
        raise ValidationError(f"weight range: {name} has non-finite "
                              f"eigenvalues")
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


@dataclass(frozen=True, eq=False)
class GameWeights:
    """Per-controller quadratic weights and the horizon length.

    Q: running state weights, one M x M PSD matrix per controller.
    QN: terminal state weights, same shapes, PSD.
    R: control weights, one N x N positive-definite matrix per controller.
    horizon: number of control steps.
    path: the weights' config document path ("weights"), under which
      error messages then name their fields; empty for weights built in
      code.

    The running weights are nominally positive definite; semi-definite ones
    (a single weighted output, say) are accepted because the recursion only
    needs R > 0 for well-posed control updates.
    """

    Q: tuple
    QN: tuple
    R: tuple
    horizon: int
    path: InitVar[str] = ""

    def __post_init__(self, path):
        horizon = _integer(self.horizon, _field(path, "horizon"))
        Q, QN, R = (tuple(_checked_weight(w, _field(path, f"{name}[{i}]"),
                                          definite=name == "R")
                          for i, w in enumerate(
                              _entries(getattr(self, name), _field(path, name))))
                    for name in ("Q", "QN", "R"))
        # Q[0] sizes M, R[0] N and Q's length p.
        p, M, N = len(Q), Q[0].shape[0], R[0].shape[0]
        for name, weights, n in (("Q", Q, M), ("QN", QN, M), ("R", R, N)):
            _check_stack(weights, (p, n, n), _field(path, name))
        dim = M + p * N
        _check_budget(_field(path, "horizon"), horizon * dim**2)
        object.__setattr__(self, "Q", tuple(_readonly(q) for q in Q))
        object.__setattr__(self, "QN", tuple(_readonly(q) for q in QN))
        object.__setattr__(self, "R", tuple(_readonly(r) for r in R))
        object.__setattr__(self, "horizon", horizon)

    @property
    def p(self):
        return len(self.Q)

    def shares_state_cost(self):
        """True when every controller carries identical Q and QN."""
        return all(
            np.array_equal(self.Q[i], self.Q[0])
            and np.array_equal(self.QN[i], self.QN[0])
            for i in range(self.p))


@dataclass(frozen=True, eq=False)
class GainSchedule:
    """Time-indexed feedback coefficients for every controller.

    A_coef[k, i] is the N x M state coefficient of controller i at step k;
    B_coef[k, i, j] is its N x N coefficient on u_j(k-1).  The stacked gain
    L_i(k) = -[A_i | B1_i | ... | Bp_i] at step k is never stored.
    """

    scheme: Scheme
    A_coef: np.ndarray
    B_coef: np.ndarray

    def __post_init__(self):
        A = lin_ops.as_float(self.A_coef, "A_coef")
        B = lin_ops.as_float(self.B_coef, "B_coef")
        # A_coef sizes the horizon, p, N and M.
        lin_ops.check_shape(A.shape, (None,) * 4, "A_coef")
        steps, p, N, M = A.shape
        lin_ops.check_shape(B.shape, (steps, p, p, N, N), "B_coef")
        for name, coef in (("A_coef", A), ("B_coef", B)):
            if not np.all(np.isfinite(coef)):
                raise ValidationError(f"{name}: gain schedule contains "
                                      f"non-finite entries")
        object.__setattr__(self, "scheme", _scheme(self.scheme, "scheme"))
        object.__setattr__(self, "A_coef", A)
        object.__setattr__(self, "B_coef", B)

    @property
    def horizon(self):
        return self.A_coef.shape[0]

    @property
    def p(self):
        return self.A_coef.shape[1]

    @property
    def N(self):
        return self.A_coef.shape[2]

    @property
    def M(self):
        return self.A_coef.shape[3]


def check_compatible(plant, weights, x0=None):
    """Raise :class:`DimensionError` unless the weights, and x0 when
    given, fit the sizes of the plant (continuous or discretized): one
    M x M state weight and one N x N control weight per controller, M
    entries of x0.  A non-finite x0 entry raises
    :class:`ValidationError`, and weights that are not
    :class:`GameWeights` a :class:`SchemaError`.  Messages lead with the
    field's document path (weights.Q[0], weights.R, x0).  Returns x0, when
    given, as a flat float vector."""
    _instance(weights, GameWeights, "weights")
    _check_stack(weights.Q, (plant.p, plant.M, plant.M), "weights.Q")
    _check_stack(weights.R, (plant.p, plant.N, plant.N), "weights.R")
    if x0 is not None:
        x0 = lin_ops.as_float(x0, "x0").reshape(-1)
        lin_ops.check_shape(x0.shape, (plant.M,), "x0")
        if not np.all(np.isfinite(x0)):
            raise ValidationError("x0 contains non-finite entries")
    return x0


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """A complete experiment: plant, weights, initial state, scheme, sweep."""

    plant: ContinuousPlant
    weights: GameWeights
    x0: np.ndarray = None
    scheme: Scheme = Scheme.PROPOSED
    sweep: tuple = None

    def __post_init__(self):
        _instance(self.plant, ContinuousPlant, "plant")
        _instance(self.weights, GameWeights, "weights")
        scheme = _scheme(self.scheme, "scheme")
        x0 = check_compatible(self.plant, self.weights, np.zeros(self.plant.M)
                              if self.x0 is None else self.x0)
        sweep = self.sweep
        if sweep is not None:
            where = "sweep.delays_grid"
            sweep = tuple(tuple(_number(v, f"{where}[{i}][{j}]") for j, v
                                in enumerate(_entries(grid, f"{where}[{i}]")))
                          for i, grid in enumerate(_entries(sweep, where)))
            lin_ops.check_shape((len(sweep),), (self.plant.p,), where)
            for i, grid in enumerate(sweep):
                _check_delays(grid, self.plant.h, f"{where}[{i}]")
            points = math.prod(len(grid) for grid in sweep)
            dim = self.plant.M + self.plant.p * self.plant.N
            _check_budget(where, points * self.weights.horizon * dim**2)
        object.__setattr__(self, "x0", _readonly(x0))
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "sweep", sweep)


# ---------------------------------------------------------------------------
# configuration documents
# ---------------------------------------------------------------------------

def _fields(value, path, required, optional=None):
    """value, checked to be an object that holds every required key and,
    unless optional is None, no key outside required and optional."""
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected an object, got {type(value).__name__}")
    if optional is not None:
        unknown = sorted(set(value) - set(required) - set(optional))
        if unknown:
            raise SchemaError(f"{path}.{unknown[0]}", "unknown field")
    missing = [key for key in required if key not in value]
    if missing:
        raise SchemaError(f"{path}.{missing[0]}", "missing field")
    return value


def _array(value, path, axes):
    """value, ``axes`` levels of non-empty lists of one length per level
    around numbers that pass _number, as a float array.  Checked a level at
    a time; a failure names the entry by index, as in ``path[1][0]``."""
    level, shape = [value], []
    for _ in range(axes):
        width = len(level[0]) if isinstance(level[0], list) else 0
        for k, entry in enumerate(level):
            if not isinstance(entry, list):
                problem = f"expected an array, got {type(entry).__name__}"
            elif not entry:
                problem = "expected a non-empty array"
            elif len(entry) != width:
                problem = f"length {len(entry)}, expected {width}"
            else:
                continue
            index = np.unravel_index(k, shape)
            raise SchemaError(path + "".join(f"[{i}]" for i in index), problem)
        shape.append(width)
        level = [leaf for entry in level for leaf in entry]
    try:
        if (set(map(type, level)) <= {float, int}
                and all(map(math.isfinite, level))):
            return np.array(level, dtype=float).reshape(shape)
    except OverflowError:  # an integer past the float range
        pass
    # Some leaf departs from the number rule (or is a float subclass).
    return np.array([_number(v, path + "".join(f"[{i}]" for i in index))
                     for v, index in zip(level, np.ndindex(*shape))]
                    ).reshape(shape)


def _delay(value, path):
    # Either a total delay, which the plant checks, or a {sc, ca} pair
    # summed on ingestion.
    if isinstance(value, dict):
        _fields(value, path, ("ca", "sc"), ())
        return _number(value["sc"], f"{path}.sc") + _number(value["ca"], f"{path}.ca")
    return value


def config_from_dict(doc):
    """Build an :class:`ExperimentConfig` from a parsed JSON document."""
    doc = _fields(doc, "<document>", ("plant", "weights"),
                  ("x0", "scheme", "sweep"))
    plant_doc = _fields(doc["plant"], "plant", ("A", "B", "delays", "h"), ())
    delays_doc = plant_doc["delays"]
    if not isinstance(delays_doc, list):
        raise SchemaError("plant.delays", "expected an array")
    delays = [_delay(v, f"plant.delays[{i}]") for i, v in enumerate(delays_doc)]
    plant = ContinuousPlant(
        A=_array(plant_doc["A"], "plant.A", 2),
        B=tuple(_array(plant_doc["B"], "plant.B", 3)),
        delays=tuple(delays),
        h=plant_doc["h"],
        path="plant",
    )

    weights_doc = _fields(doc["weights"], "weights", ("Q", "R", "horizon"),
                          ("QN",))
    Q = _array(weights_doc["Q"], "weights.Q", 3)
    QN = (_array(weights_doc["QN"], "weights.QN", 3)
          if "QN" in weights_doc else Q)
    weights = GameWeights(
        Q=tuple(Q),
        QN=tuple(QN),
        R=tuple(_array(weights_doc["R"], "weights.R", 3)),
        horizon=weights_doc["horizon"],
        path="weights",
    )

    x0 = _array(doc["x0"], "x0", 1) if "x0" in doc else None

    sweep = None
    if "sweep" in doc:
        grids = _fields(doc["sweep"], "sweep", ("delays_grid",),
                        ())["delays_grid"]
        if not isinstance(grids, list):
            raise SchemaError("sweep.delays_grid", "expected an array of arrays")
        sweep = tuple(_array(grid, f"sweep.delays_grid[{i}]", 1)
                      for i, grid in enumerate(grids))

    return ExperimentConfig(plant=plant, weights=weights, x0=x0,
                            scheme=doc.get("scheme", Scheme.PROPOSED),
                            sweep=sweep)


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
    return config_from_dict(load_json(text, "<document>"))


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
    """Serialize a config to JSON text, so that
    config_to_dict(load_config(dump_config(c))) == config_to_dict(c)."""
    return dump_json(config_to_dict(config))


# ---------------------------------------------------------------------------
# file formats: finite numbers only, floats as shortest round-trip decimals
# (equal values, equal bytes), None as an empty CSV cell or JSON null;
# numbers read back pass through _number
# ---------------------------------------------------------------------------

class _RepeatedKey(Exception):
    """A JSON object repeats a key."""


def _unique(pairs):
    """The object of a JSON object's pairs; _RepeatedKey if a key repeats."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        raise _RepeatedKey
    return doc


def _repeated_key(node, path):
    """The path of the first repeated key, depth first, in a document whose
    objects were parsed as tuples of their (key, value) pairs; None if no
    key repeats."""
    if isinstance(node, tuple):
        seen = set()
        for key, value in node:
            if key in seen:
                return f"{path}.{key}"
            seen.add(key)
            found = _repeated_key(value, f"{path}.{key}")
            if found:
                return found
    elif isinstance(node, list):
        for i, value in enumerate(node):
            found = _repeated_key(value, f"{path}[{i}]")
            if found:
                return found
    return None


def load_json(text, path):
    """The document in JSON text or bytes; SchemaError naming path when
    the text is not JSON (or not UTF-8), and naming the key's path when an
    object repeats a key, since which value a reader takes would then be a
    guess."""
    try:
        try:
            return json.loads(text, object_pairs_hook=_unique)
        except _RepeatedKey:
            doc = json.loads(text, object_pairs_hook=tuple)
        raise SchemaError(_repeated_key(doc, path), "repeated key")
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed text and over-long integer literals.
        raise SchemaError(path, f"invalid JSON: {exc}") from None


def dump_json(doc):
    """JSON text of doc, two-space indented, with a final newline."""
    try:
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        # A non-finite number or a circular reference.
        raise NumericalError(f"cannot write JSON: {exc}") from None


def _cell(value):
    if value is None or isinstance(value, (str, int)):
        return "" if value is None else str(value)
    if not math.isfinite(value):
        raise NumericalError(f"cannot write {value} to a CSV file")
    return repr(float(value))


def write_csv(rows, path):
    """Write {column: value} rows, which share their columns, as CSV."""
    lines = [",".join(rows[0])]
    lines += [",".join(map(_cell, row.values())) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


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
