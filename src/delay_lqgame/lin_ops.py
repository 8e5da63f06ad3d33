"""Dense real-matrix kernels: exponentials, exponential integrals and
pivoted solves.

Everything here is a pure function of its inputs; matrices are plain
float64 ndarrays, never mutated but for :func:`solve_into`'s ``out``.
"""

import numpy as np

from .errors import (
    DimensionError,
    IntervalError,
    SingularMatrixError,
    ValidationError,
)

# Relative pivot threshold below which a solve is reported as singular.
PIVOT_RTOL = 1e-12


def as_float(a, name):
    """a as a float64 array.  Its values must be real integers or floats,
    as the file readers require: a bool, complex, string, date or object
    array, a nest holding a bool or a 0-d bool array, or one that numpy
    cannot build, raises DimensionError."""
    try:
        arr = np.asarray(a)
    except (TypeError, ValueError) as exc:
        raise DimensionError(f"{name}: not an array of numbers ({exc})") from None
    if arr.dtype != np.float64:
        if arr.dtype.kind not in "iuf":
            raise DimensionError(f"{name}: expected real numbers, got "
                                 f"{arr.dtype} values")
        arr = arr.astype(np.float64)
    # numpy reads a bool among numbers as 1 or 0, be it a bool, a numpy
    # bool or a 0-d bool array (a cell's dtype, else its type, is bool);
    # only a nest that is not already an array can hide one.
    if not isinstance(a, np.ndarray) and any(
            getattr(cell, "dtype", type(cell)) == bool
            for cell in np.asarray(a, dtype=object).flat):
        raise DimensionError(f"{name}: expected real numbers, got bool values")
    return arr


def check_shape(shape, expected, path):
    """The shape rule: raise :class:`DimensionError` unless shape matches
    expected axis by axis, a None in expected matching any length.  The
    message leads with the field path, then the actual and the expected
    shape, a free axis written *: ``B[1]: shape (2, 2), expected (2, 1)``."""
    if len(shape) == len(expected):
        for have, want in zip(shape, expected):
            if want is not None and want != have:
                break
        else:
            return
    axes = ", ".join("*" if n is None else str(n) for n in expected)
    raise DimensionError(f"{path}: shape {shape}, expected "
                         f"({axes}{',' if len(expected) == 1 else ''})")


def as_matrix(a, name="matrix", square=False):
    """Coerce to a finite 2-D (square, if asked) float64 array."""
    arr = as_float(a, name)
    rows = arr.shape[:1] if square and arr.ndim else (None,)
    check_shape(arr.shape, rows * 2, name)
    if arr.size and not np.all(np.isfinite(arr)):
        raise DimensionError(f"{name} contains non-finite entries")
    return arr


def symmetrize(A):
    """Return (A + A^T)/2, transposing the last two axes of a stack."""
    return 0.5 * (A + np.swapaxes(A, -1, -2))


# Coefficients b_0..b_m of the degree-m Pade approximant of e^x, scaled to
# integers (Higham 2005, "The scaling and squaring method for the matrix
# exponential revisited")...
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0,
        1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}
# ...and the largest 1-norm theta_m for which each degree is accurate to
# unit roundoff in double precision (table 2.3 of the same paper).
_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
          (7, 9.504178996162932e-1), (9, 2.097847961257068e0))
_THETA_13 = 5.371920351148152e0


def _pade(A, m):
    """Odd and even parts U, V of the degree-m Pade approximant of e^A,
    for each matrix of the stack A; e^A ~= (V - U)^-1 (V + U)."""
    b = _PADE[m]
    ident = np.eye(A.shape[-1])
    A2 = A @ A
    if m == 13:
        A4 = A2 @ A2
        A6 = A4 @ A2
        U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
                 + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
        V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
             + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
        return U, V
    powers = [ident, A2]  # A^0, A^2, ..., A^(m-1)
    while len(powers) <= m // 2:
        powers.append(powers[-1] @ A2)
    U = A @ sum(b[2 * j + 1] * P for j, P in enumerate(powers))
    V = sum(b[2 * j] * P for j, P in enumerate(powers))
    return U, V


def mat_exp(A, t=1.0):
    """Matrix exponential e^(A*t) for one time t, or the stack of e^(A*t_k)
    for a vector t.

    Pade scaling and squaring (Higham 2005), per time: degree 3, 5, 7, 9
    or 13 chosen by the 1-norm of A*t, then repeated squaring.  The times
    of one degree and squaring count run as one stack, whose products and
    solve make each matrix's own BLAS/LAPACK calls, so every exponential
    has the bits of its time alone.  The first time whose exponential
    overflows raises :class:`ValidationError` naming it.
    """
    A = as_matrix(A, "A", square=True)
    ts = np.asarray(t, dtype=float)
    if not np.isfinite(ts).all():
        raise IntervalError(f"t must be finite, got {ts[~np.isfinite(ts)][0]}")
    # An argument, norm or square past the float range leaves its
    # exponential non-finite, which is reported, so it need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        A = A * ts.reshape(-1, 1, 1)
        E = np.full(A.shape, np.inf)
        groups = {}
        for k, norm in enumerate(np.abs(A).sum(axis=-2).max(axis=-1)):
            if np.isfinite(norm):
                m = next((m for m, theta in _THETA if norm <= theta), 13)
                s = (max(0, int(np.ceil(np.log2(norm / _THETA_13))))
                     if m == 13 else 0)
                groups.setdefault((m, s), []).append(k)
        for (m, s), ks in groups.items():
            U, V = _pade(A[ks] / 2.0 ** s, m)
            X = np.linalg.solve(V - U, V + U)
            for _ in range(s):
                X = X @ X
            E[ks] = X
    bad = np.flatnonzero(~np.isfinite(E).all(axis=(1, 2)))
    if bad.size:
        raise ValidationError(f"matrix exponential: e^(A t) at t = "
                              f"{float(ts.flat[bad[0]])!r} overflows")
    return E if ts.ndim else E[0]


def exp_and_integral(A, t):
    """e^(A*t) and the integral of e^(A*s) over s in [0, t]: two M x M
    arrays for one time t, two (len(t), M, M) stacks for a vector t.

    Both are blocks of the exponential of the augmented matrix
    [[A, I], [0, 0]] t: the top-left and the top-right one.
    """
    A = as_matrix(A, "A", square=True)
    m = A.shape[0]
    aug = np.zeros((2 * m, 2 * m))
    aug[:m, :m] = A
    aug[:m, m:] = np.eye(m)
    E = mat_exp(aug, t)
    return E[..., :m, :m], E[..., :m, m:]


def solve(A, B):
    """Solve A @ X = B by LU with partial pivoting, for one system or a
    stack of them: A is (..., n, n) and B is (..., n, m) with the same
    leading axes, and a 2-D pair is the stack of one.  The operands are
    checked, then :func:`solve_into` solves the stack of systems [A | B],
    its failures this function's, with ``.row`` counting the systems over
    the flattened leading axes.  X is returned shaped like B; for 0 x 0
    systems it is empty.
    """
    A = as_float(A, "A")
    B = as_float(B, "B")
    n = A.shape[-1] if A.ndim else None
    check_shape(A.shape, (*A.shape[:-2], n, n), "A")
    check_shape(B.shape, (*A.shape[:-1], None), "B")
    X = np.empty(B.shape)
    if n:
        systems = np.concatenate((A, B), axis=-1).reshape(
            -1, n, n + B.shape[-1])
        solve_into(systems, X.reshape(len(systems), *B.shape[-2:]))
    return X


def solve_into(systems, out):
    """Solve each system [A | B] of the float64 stack ``systems``, shaped
    (stack, n, n + m), into ``out``, shaped (stack, n, m), checking only
    finiteness.  Systems run in stack order and the first that fails
    raises, with its index as ``.row``: :class:`DimensionError` for a
    non-finite entry, :class:`SingularMatrixError` for a smallest pivot
    below PIVOT_RTOL times A's largest |entry|, with that pivot and its
    position on U's diagonal.  Each step swaps up the first row holding
    the column's largest remaining |entry|, as LAPACK's getrf does, on
    Python lists.  Measured against LAPACK per system, the lists win up
    to about 3 rows (the presets' systems have 2) and lose past them:
    1.3x slower at 4 rows, 2.5x at 6.  A stack of 0 x 0 systems leaves
    the empty ``out`` as it is."""
    n = systems.shape[1]
    if not n:
        return
    finite = np.isfinite(systems)
    bad = (None if np.count_nonzero(finite) == finite.size
           else int(np.argmin(finite.all(axis=(1, 2)))))
    X = []
    for row, rows in enumerate(systems.tolist()):
        if row == bad:
            raise DimensionError(f"A or B has non-finite entries in system "
                                 f"{row}", row)
        X.append(_lu_solve(rows, n, row))
    if X:
        out[...] = X


def _lu_solve(rows, n, row):
    """X of the system whose rows [A | B] are the lists ``rows`` (changed
    in place), by :func:`solve_into`'s elimination; ``row`` names the system
    in a raised :class:`SingularMatrixError`."""
    scale = max(abs(v) for r in rows for v in r[:n])
    for k in range(n):
        best = k  # the first row holding the column's largest |entry|
        for r in range(k + 1, n):
            if abs(rows[r][k]) > abs(rows[best][k]):
                best = r
        rows[k], rows[best] = rows[best], rows[k]
        top = rows[k]
        pivot = top[k]
        if pivot != 0.0:
            # An exactly zero column is left as it is; the check reports it.
            for r in range(k + 1, n):
                factor = rows[r][k] / pivot
                rows[r] = [v - factor * w for v, w in zip(rows[r], top)]
    pivots = [abs(rows[k][k]) for k in range(n)]
    smallest = min(pivots)
    if smallest <= PIVOT_RTOL * scale:
        index = pivots.index(smallest)
        raise SingularMatrixError(
            f"matrix is numerically singular (pivot {smallest:.3e} at "
            f"position {index})", smallest, index, row)
    X = [None] * n
    for k in range(n - 1, -1, -1):
        top = rows[k]
        x = top[n:]
        for j in range(k + 1, n):
            entry = top[j]
            x = [v - entry * w for v, w in zip(x, X[j])]
        pivot = top[k]
        X[k] = [v / pivot for v in x]
    return X
