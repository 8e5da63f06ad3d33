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

The step works on stacked routing matrices built once per plant:
z(k+1) = Abar z(k) + D [u_1(k); ...; u_p(k)] with

    D    = [[Gamma0_1 ... Gamma0_p]; I_pN],
    Abar = [[Phi | Gamma1_1 ... Gamma1_p]; 0],

so D_i (the N columns of D that route u_i) gives controller i's rows of
the system as D_i^T S_i, and the value update sees the step
C_i = Abar + sum_{j != i} D_j U_j with every other controller's law
applied.  Every product is one array operation over all controllers, and
over a leading batch axis of plants that share M, N, p and the weights;
only the small LU solve runs once per plant and step.

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
from .model import Scheme, check_compatible


@dataclass(frozen=True)
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


def _embedded(weights, dim):
    """The M x M weights embedded top-left in dim x dim zeros, stacked."""
    M = weights[0].shape[0]
    out = np.zeros((len(weights), dim, dim))
    out[:, :M, :M] = weights
    return out


def synthesize_batch(plants, weights, return_values=False):
    """Gain schedules, each tagged ``proposed``, for plants that share M, N,
    p and the weights.

    Walks k = horizon-1 .. 0 with every plant on a leading batch axis.  Per
    step and plant the simultaneous equations over all coefficients
    {A_i, Bj_i} are stacked into one (p N) x (p N) system with a column per
    column of [Phi | Gamma1_1 | ... | Gamma1_p] and solved directly.  A
    plant's arithmetic does not depend on the batch around it, so each
    schedule equals a batch-of-1 call bit for bit.  Raises
    :class:`CouplingSingularityError` with the step, the controller whose
    block holds the smallest pivot, and the plant's index in the batch if
    a system is singular.

    With ``return_values`` the value-matrix history is returned as a second
    output: values[k, b, i] is S_i(k) of plant b, k = 0..horizon.
    """
    plants = list(plants)
    if not plants:
        raise ValidationError("synthesize: no plants given")
    for dp in plants:
        check_compatible(dp, weights)
    M, N, p, steps = plants[0].M, plants[0].N, plants[0].p, weights.horizon
    batch, n, dim = len(plants), p * N, M + p * N
    # Routing D = [[Gamma0_1 ... Gamma0_p]; I] and open-loop step
    # Abar = [[Phi | Gamma1_1 ... Gamma1_p]; 0] of z = [x; u_1; ...; u_p].
    D = np.zeros((batch, dim, n))
    D[:, :M] = [np.hstack(dp.Gamma0) for dp in plants]
    D[:, M:] = np.eye(n)
    target = np.stack([np.hstack((dp.Phi,) + dp.Gamma1) for dp in plants])
    Abar = np.zeros((batch, 1, dim, dim))
    Abar[:, 0, :M] = target
    # D_i^T for every controller i: (batch, p, N, dim).
    Dt = D.transpose(0, 2, 1).reshape(batch, p, N, dim)
    Q = _embedded(weights.Q, dim)
    R = np.zeros((n, n))
    for i, R_i in enumerate(weights.R):
        R[i * N:(i + 1) * N, i * N:(i + 1) * N] = R_i
    # others[i] keeps every controller's rows of U but controller i's.
    others = np.ones((p, n, 1))
    for i in range(p):
        others[i, i * N:(i + 1) * N] = 0.0
    S = np.broadcast_to(_embedded(weights.QN, dim), (batch, p, dim, dim))
    # Each step builds fresh value matrices, so the history keeps
    # references; it is kept only when asked for, since it grows with the
    # batch.
    values = [S]
    U = np.empty((steps, batch, n, dim))
    for k in range(steps - 1, -1, -1):
        T = Dt @ S
        G = (T @ D[:, None]).reshape(batch, n, n) + R
        W = -(T[..., :M] @ target[:, None]).reshape(batch, n, dim)
        for b in range(batch):
            try:
                U[k, b] = lin_ops.solve(G[b], W[b])
            except SingularMatrixError as exc:
                controller = exc.index // N + 1
                which = f" of plant {b}" if batch > 1 else ""
                raise CouplingSingularityError(
                    f"stacked best-response system{which} is singular at "
                    f"step {k} for controller {controller} "
                    f"(pivot {exc.pivot:.3e})",
                    exc.pivot, step=k, controller=controller,
                    plant=b) from None
        Ui = U[k].reshape(batch, p, N, dim)
        # E_i = D_i^T S_i D_i + R_i, the diagonal blocks of G.
        E = G.reshape(batch, p, N, p, N).diagonal(0, 1, 3)
        E = E.transpose(0, 3, 1, 2)
        # C_i: the step controller i sees with every other law applied.
        C = Abar + D[:, None] @ (U[k, :, None] * others)
        S = lin_ops.symmetrize(C.swapaxes(-1, -2) @ S @ C + Q
                               - Ui.swapaxes(-1, -2) @ E @ Ui)
        if return_values:
            values.append(S)
    # + 0.0 is exact but turns -0.0 into 0.0, so vanishing terms (the delay
    # terms of a zero-delay plant) are written as 0.0.
    U = (U + 0.0).reshape(steps, batch, p, N, dim)
    A_coef = U[..., :M].transpose(1, 0, 2, 3, 4)
    B_coef = U[..., M:].reshape(steps, batch, p, N, p, N)
    B_coef = B_coef.transpose(1, 0, 2, 4, 3, 5)
    schedules = [GainSchedule(Scheme.PROPOSED,
                              np.ascontiguousarray(A_coef[b]),
                              np.ascontiguousarray(B_coef[b]))
                 for b in range(batch)]
    return (schedules, np.stack(values[::-1])) if return_values else schedules


def synthesize(dp, weights, return_values=False):
    """Gain schedule of one plant, tagged ``proposed``: the batch-of-1
    case of :func:`synthesize_batch`.

    With ``return_values`` the full value-matrix history is returned as a
    second output: values[k][i] is S_i(k), k = 0..horizon.
    """
    if not return_values:
        return synthesize_batch([dp], weights)[0]
    schedules, values = synthesize_batch([dp], weights, return_values=True)
    return schedules[0], values[:, 0]
