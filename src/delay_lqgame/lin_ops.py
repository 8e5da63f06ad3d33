"""Dense real-matrix kernels: exponentials, exponential integrals and
pivoted solves.

Everything here is a pure function of its inputs; matrices are plain
float64 ndarrays and are never mutated.
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


def as_matrix(a, name="matrix"):
    """Coerce to a finite 2-D float64 array, validating on the way in."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise DimensionError(f"{name} contains non-finite entries")
    return arr


def _require_square(A, name):
    if A.shape[0] != A.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {A.shape}")


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
    """Odd and even parts U, V of the degree-m Pade approximant of e^A;
    e^A ~= (V - U)^-1 (V + U)."""
    b = _PADE[m]
    ident = np.eye(A.shape[0])
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


def _expm(A, name):
    """e^A by Pade scaling and squaring (Higham 2005): the lowest degree
    in 3/5/7/9 whose theta bounds the 1-norm, else degree 13 after
    halving A until its 1-norm is at most theta_13, then squaring back.
    Raises :class:`ValidationError` naming the exponential ``name`` when
    the 1-norm or the squared result overflows."""
    norm = np.abs(A).sum(axis=0).max()
    if not np.isfinite(norm):
        raise ValidationError(
            f"matrix exponential: {name}: the argument's 1-norm overflows")
    for m, theta in _THETA:
        if norm <= theta:
            U, V = _pade(A, m)
            return np.linalg.solve(V - U, V + U)
    squarings = max(0, int(np.ceil(np.log2(norm / _THETA_13))))
    U, V = _pade(A / 2.0 ** squarings, 13)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(squarings):
        E = E @ E
    if not np.all(np.isfinite(E)):
        raise ValidationError(f"matrix exponential: {name} overflows")
    return E


def mat_exp(A, t=1.0):
    """Matrix exponential e^(A*t).

    Pade scaling and squaring (Higham 2005): degree 3, 5, 7, 9 or 13
    chosen by the 1-norm of A*t, then repeated squaring.
    """
    A = as_matrix(A, "A")
    _require_square(A, "A")
    t = float(t)
    if not np.isfinite(t):
        raise IntervalError(f"t must be finite, got {t}")
    # An argument, norm or square past the float range is caught by the
    # finiteness checks of _expm, so it need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        return _expm(A * t, f"e^(A t) at t = {t!r}")


def exp_and_integral(A, t):
    """e^(A*t) and the integral of e^(A*s) over s in [0, t].

    Both are blocks of one exponential of the augmented matrix
    [[A, I], [0, 0]] t: the top-left and the top-right one.
    """
    A = as_matrix(A, "A")
    _require_square(A, "A")
    m = A.shape[0]
    aug = np.zeros((2 * m, 2 * m))
    aug[:m, :m] = A
    aug[:m, m:] = np.eye(m)
    E = mat_exp(aug, t)
    return E[:m, :m], E[:m, m:]


def solve(A, B):
    """Solve A @ X = B by LU with partial pivoting.

    Step k swaps up the first row holding the largest remaining |entry| of
    column k, the choice LAPACK's getrf makes, and eliminates below it in
    A and B together.  Raises :class:`SingularMatrixError` when the
    smallest pivot falls below PIVOT_RTOL times the largest entry of A,
    reporting that pivot and its position on the diagonal of U (the column
    of A it belongs to).  Otherwise back substitution on the same
    factorization gives X.

    The arithmetic runs on Python lists: the systems this package solves
    have p*N rows, where per-call array overhead outweighs the flops.
    """
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    _require_square(A, "A")
    n = A.shape[0]
    if B.shape[0] != n:
        raise DimensionError(f"B has {B.shape[0]} rows, expected {n}")
    rows = [a + b for a, b in zip(A.tolist(), B.tolist())]
    scale = max(abs(v) for row in rows for v in row[:n])
    for k in range(n):
        best = max(range(k, n), key=lambda r: abs(rows[r][k]))
        rows[k], rows[best] = rows[best], rows[k]
        top = rows[k]
        if top[k] != 0.0:
            # An exactly zero column is left as it is; the check reports it.
            for r in range(k + 1, n):
                factor = rows[r][k] / top[k]
                rows[r] = [v - factor * w for v, w in zip(rows[r], top)]
    pivots = [abs(rows[k][k]) for k in range(n)]
    smallest = min(pivots)
    index = pivots.index(smallest)
    if smallest <= PIVOT_RTOL * scale:
        raise SingularMatrixError(
            f"matrix is numerically singular (pivot {smallest:.3e} at "
            f"position {index})", smallest, index)
    X = [None] * n
    for k in range(n - 1, -1, -1):
        row = rows[k]
        x = row[n:]
        for j in range(k + 1, n):
            x = [v - row[j] * w for v, w in zip(x, X[j])]
        X[k] = [v / row[k] for v in x]
    return np.array(X).reshape(B.shape)
