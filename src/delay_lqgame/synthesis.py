"""Offline synthesis of distributed feedback gain schedules.

Every controller applies a law that is linear in the current state and in
all controllers' previous inputs,

    u_i(k) = A_i(k) x(k) + sum_j Bj_i(k) u_j(k-1),

the minimal information each controller actually has: its peers' current
moves are unknown (they are computed simultaneously), but last step's moves
have been exchanged.  On the stacked vector z(k) = [x(k); u_1(k-1); ...;
u_p(k-1)] the law reads u_i(k) = -L_i(k) z(k) with
L_i = -[A_i | B1_i | ... | Bp_i].

Gains are computed by one backward recursion over per-controller quadratic
value matrices S_i(k) (cost-to-go of controller i from step k).  At each
step, every controller's gain must be the exact minimizer of its one-step
cost given the other controllers' same-step coefficients, which makes the
coefficients the solution of a simultaneous system of linear equations: the
stage-wise equilibrium condition of the underlying non-cooperative game.
The system is stacked over all p controllers and solved in one shot.
Value matrices are symmetrized after every update to stop round-off drift
from compounding across the horizon.

Known controllers are this recursion on a prepared plant: one controller
gives the stacked-state delayed regulator, zero delays the delay-free game.
"""

from dataclasses import dataclass

import numpy as np

from . import lin_ops
from .errors import (
    CouplingSingularityError,
    DimensionError,
    SingularMatrixError,
    ValidationError,
)
from .model import Scheme


@dataclass(frozen=True)
class GainSchedule:
    """Time-indexed feedback coefficients for every controller.

    A_coef[k, i] is the N x M state coefficient of controller i at step k;
    B_coef[k, i, j] is its N x N coefficient on u_j(k-1).  The stacked gain
    L_i(k) is a derived view (see :meth:`gain`), never stored.
    """

    scheme: Scheme
    A_coef: np.ndarray
    B_coef: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A_coef, dtype=float)
        B = np.asarray(self.B_coef, dtype=float)
        if A.ndim != 4:
            raise DimensionError(f"A_coef must have 4 axes, got {A.ndim}")
        steps, p, N, M = A.shape
        if B.shape != (steps, p, p, N, N):
            raise DimensionError(
                f"B_coef shape {B.shape} does not match A_coef {A.shape}")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
            raise ValidationError("gain schedule contains non-finite entries")
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

    def coefficients(self, k, i):
        """Stacked coefficient row [A_i | B1_i | ... | Bp_i] at step k."""
        blocks = [self.A_coef[k, i]]
        blocks.extend(self.B_coef[k, i, j] for j in range(self.p))
        return np.hstack(blocks)

    def gain(self, k, i):
        """L_i(k), i.e. the negated stacked coefficients."""
        return -self.coefficients(k, i)


def _check_pair(dp, weights):
    if weights.p != dp.p:
        raise DimensionError(
            f"{weights.p} weight sets for {dp.p} controllers")
    if weights.Q[0].shape[0] != dp.M:
        raise DimensionError(
            f"state weights are {weights.Q[0].shape[0]}-dimensional, "
            f"plant has {dp.M} states")
    if weights.R[0].shape[0] != dp.N:
        raise DimensionError(
            f"control weights are {weights.R[0].shape[0]}-dimensional, "
            f"controls have {dp.N}")


def _embedded_state_weight(Q, dim):
    out = np.zeros((dim, dim))
    out[:Q.shape[0], :Q.shape[0]] = Q
    return out


def _control_row(dp, S, i):
    """Blocks of D_i^T S, where D_i routes u_i into [x; u_1; ...; u_p].

    D_i stacks Gamma0_i on top of a lone identity in controller i's slot, so
    D_i^T S collapses to Gamma0_i^T (row block 1) plus row block i+1.
    """
    M, N = dp.M, dp.N
    own = slice(M + i * N, M + (i + 1) * N)
    return dp.Gamma0[i].T @ S[:M, :] + S[own, :]


def _value_update(dp, weights, S_next, U, E, i):
    """Next value matrix for controller i given everyone's coefficients U."""
    M, N, p = dp.M, dp.N, dp.p
    dim = M + p * N
    top = np.hstack([dp.Phi] + list(dp.Gamma1))
    for n in range(p):
        if n != i:
            top = top + dp.Gamma0[n] @ U[n]
    rows = [top]
    for m in range(p):
        rows.append(U[m] if m != i else np.zeros((N, dim)))
    C = np.vstack(rows)
    P11 = C.T @ S_next[i] @ C + _embedded_state_weight(weights.Q[i], dim)
    # With L_i = -U_i the correction term L_i^T P22 L_i equals U_i^T E_i U_i.
    return lin_ops.symmetrize(P11 - U[i].T @ E[i] @ U[i])


def synthesize(dp, weights, return_values=False):
    """Gain schedule for any number of controllers, tagged ``proposed``.

    Walks k = horizon-1 .. 0.  Per step the simultaneous equations over all
    coefficients {A_i, Bj_i} are stacked into one (p N) x (p N) system with
    a column per column of [Phi | Gamma1_1 | ... | Gamma1_p] and solved
    directly.  Raises :class:`CouplingSingularityError` with the step and
    the controller whose block holds the smallest pivot if it is singular.

    With ``return_values`` the full value-matrix history is returned as a
    second output: values[k][i] is S_i(k), k = 0..horizon.
    """
    _check_pair(dp, weights)
    M, N, p, steps = dp.M, dp.N, dp.p, weights.horizon
    dim = M + p * N
    target = np.hstack([dp.Phi] + list(dp.Gamma1))
    S = [_embedded_state_weight(QN, dim) for QN in weights.QN]
    A_coef = np.zeros((steps, p, N, M))
    B_coef = np.zeros((steps, p, p, N, N))
    # Each step builds fresh value matrices, so the history keeps references.
    values = [S]
    for k in range(steps - 1, -1, -1):
        G = np.zeros((p * N, p * N))
        W = np.zeros((p * N, dim))
        E = []
        for i in range(p):
            T = _control_row(dp, S[i], i)
            T1 = T[:, :M]
            rows = slice(i * N, (i + 1) * N)
            for j in range(p):
                block = T1 @ dp.Gamma0[j] + T[:, M + j * N: M + (j + 1) * N]
                if j == i:
                    block = block + weights.R[i]
                G[rows, j * N:(j + 1) * N] = block
            E.append(G[rows, i * N:(i + 1) * N])
            W[rows, :] = -(T1 @ target)
        try:
            # + 0.0 is exact but turns -0.0 into 0.0, so vanishing terms
            # (the delay terms of a zero-delay plant) are written as 0.0.
            sol = lin_ops.solve(G, W) + 0.0
        except SingularMatrixError as exc:
            controller = exc.index // N + 1
            raise CouplingSingularityError(
                f"stacked best-response system is singular at step {k} for "
                f"controller {controller} (pivot {exc.pivot:.3e})",
                exc.pivot, step=k, controller=controller) from None
        U = [sol[i * N:(i + 1) * N, :] for i in range(p)]
        for i in range(p):
            A_coef[k, i] = U[i][:, :M]
            for j in range(p):
                B_coef[k, i, j] = U[i][:, M + j * N: M + (j + 1) * N]
        S = [_value_update(dp, weights, S, U, E, i) for i in range(p)]
        values.append(S)
    schedule = GainSchedule(Scheme.PROPOSED, A_coef, B_coef)
    return (schedule, values[::-1]) if return_values else schedule
