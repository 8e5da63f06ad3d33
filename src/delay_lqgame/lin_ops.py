"""Dense real-matrix kernels: exponentials, exponential integrals and
pivoted solves.

Everything here is a pure function of its inputs; matrices are plain
float64 ndarrays and are never mutated.
"""

import warnings

import numpy as np
import scipy.linalg

from .errors import DimensionError, IntervalError, SingularMatrixError

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
    """Return (A + A^T)/2."""
    return 0.5 * (A + A.T)


def mat_exp(A, t=1.0):
    """Matrix exponential e^(A*t).

    Scaling-and-squaring with a fixed-order rational core (scipy's expm),
    adequate for the small dense matrices this package works with.
    """
    A = as_matrix(A, "A")
    _require_square(A, "A")
    t = float(t)
    if not np.isfinite(t):
        raise IntervalError(f"t must be finite, got {t}")
    return scipy.linalg.expm(A * t)


def _exp_cumulative(A, t):
    # int_0^t e^(A s) ds is the top-right block of exp([[A, I], [0, 0]] t).
    m = A.shape[0]
    aug = np.zeros((2 * m, 2 * m))
    aug[:m, :m] = A
    aug[:m, m:] = np.eye(m)
    return scipy.linalg.expm(aug * t)[:m, m:]


def exp_integral(A, a, b):
    """Integral of e^(A*s) over s in [a, b], with 0 <= a <= b.

    Computed as the difference of two cumulative integrals from 0, each
    read off an augmented-matrix exponential; no quadrature involved.
    """
    A = as_matrix(A, "A")
    _require_square(A, "A")
    a = float(a)
    b = float(b)
    if not (0.0 <= a <= b):
        raise IntervalError(f"interval must satisfy 0 <= a <= b, got [{a}, {b}]")
    return _exp_cumulative(A, b) - _exp_cumulative(A, a)


def solve(A, B):
    """Solve A @ X = B by LU with partial pivoting.

    Raises :class:`SingularMatrixError` when the smallest pivot falls below
    PIVOT_RTOL times the largest entry of A, reporting that pivot and its
    position on the diagonal of U (the column of A it belongs to).
    """
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    _require_square(A, "A")
    if B.shape[0] != A.shape[0]:
        raise DimensionError(
            f"B has {B.shape[0]} rows, expected {A.shape[0]}")
    with warnings.catch_warnings():
        # lu_factor warns on exact zero pivots; our own check below governs.
        warnings.simplefilter("ignore")
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    pivots = np.abs(np.diag(lu))
    index = int(pivots.argmin())
    smallest = pivots[index]
    if smallest <= PIVOT_RTOL * np.abs(A).max():
        raise SingularMatrixError(
            f"matrix is numerically singular (pivot {smallest:.3e} at "
            f"position {index})", smallest, index)
    return scipy.linalg.lu_solve((lu, piv), B, check_finite=False)

