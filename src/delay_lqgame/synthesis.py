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
z(k+1) = Abar z(k) + D u(k), u = [u_1; ...; u_p], with

    D    = [[Gamma0_1 ... Gamma0_p]; I_pN],
    Abar = [[Phi | Gamma1_1 ... Gamma1_p]; 0].

Controller i's step cost is z^T Q_i z plus the quadratic form of its
augmented matrix SR_i = blockdiag(S_i, E_i^T R_i E_i) on [z(k+1); u(k)] =
Abar' z(k) + K u(k), where K = [D; I_pN], Abar' = [Abar; 0] and E_i
picks u_i out of u.  So with K_i (the N columns of K that route u_i) its
rows of the system [G | W] are K_i^T SR_i [K | -Abar'], which is
D_i^T S_i [D | -Abar] plus R_i in G.  The solution U holds every law,
u_i = U_i z, and the value update evaluates them on Z = Abar' + K U =
[F; U], F = Abar + D U being the loop:

    S_i <- sym(Q_i + Z^T SR_i Z) = sym(Q_i + F^T S_i F + U_i^T R_i U_i).

R_i sits in a corner of SR_i that no step writes, so it enters the system
and the value update through the products alone.  Every product is one
array operation over all controllers and over a leading batch axis of
plants that share M, N, p and the weights; so is the LU solve, one
``lin_ops.solve_into`` call per step.

Known controllers are this recursion on a prepared plant: one controller
gives the stacked-state delayed regulator, zero delays the delay-free game.
The design layer at the end of this module prepares each scheme's plants
and designs them in one batch, so designing alone (the ``synthesize``
command) loads neither the comparison tables nor the rollout.
"""

from dataclasses import replace

import numpy as np

from . import lin_ops
from .errors import (
    CouplingSingularityError,
    DimensionError,
    NumericalError,
    SingularMatrixError,
)
from .model import (
    DiscretePlant,
    ExperimentConfig,
    GainSchedule,
    Scheme,
    _entries,
    _instance,
    _scheme,
    check_compatible,
    discretize,
    exp_pairs,
)


def _embedded(weights, dim):
    """The M x M weights embedded top-left in dim x dim zeros, stacked."""
    M = weights[0].shape[0]
    out = np.zeros((len(weights), dim, dim))
    out[:, :M, :M] = weights
    return out


def _augmented(S, R):
    """SR_i = blockdiag(S_i, E_i^T R_i E_i) for the value matrices S,
    shaped (..., p, dim, dim), and the control weights R, shaped (p, N, N):
    a new (..., p, dim + p N, dim + p N) array, E_i selecting controller
    i's N of the p N inputs.  S_i is then the view SR[..., :dim, :dim]."""
    p, N = R.shape[:2]
    dim = S.shape[-1]
    SR = np.zeros(S.shape[:-2] + (dim + p * N,) * 2)
    SR[..., :dim, :dim] = S
    for i, R_i in enumerate(R):
        at = slice(dim + i * N, dim + (i + 1) * N)
        SR[..., i, at, at] = R_i
    return SR


def _policy_evaluation(SR, Z, Q, work):
    """S_i <- sym(Q_i + Z^T SR_i Z) in place, where S_i is SR_i's top-left
    block: with Z = [F; U], the values sym(Q_i + F^T S_i F + U_i^T R_i U_i)
    of the laws u = U z one step back on the loop z(k+1) = F z(k).  SR:
    (..., p, dim + p N, dim + p N) from :func:`_augmented`; Z:
    (..., 1, dim + p N, dim); Q: (..., p, dim, dim); ``work``: one buffer
    shaped (..., p, dim, dim + p N) and one shaped like Q."""
    ZtSR, total = work
    dim = Z.shape[-1]
    np.matmul(Z.swapaxes(-1, -2), SR, out=ZtSR)
    np.matmul(ZtSR, Z, out=total)
    total += Q
    # Halving is exact, so halving first gives sym's bits, and the strided
    # block of SR is written once.
    total *= 0.5
    np.add(total, total.swapaxes(-1, -2), out=SR[..., :dim, :dim])


# An overflowing value matrix is reported by the next step's solve.
@np.errstate(over="ignore", invalid="ignore")
def synthesize_batch(plants, weights, return_values=False):
    """Gain schedules, each tagged ``proposed``, for plants that share M, N,
    p and the weights.

    Walks k = horizon-1 .. 0 with every plant on a leading batch axis.  Per
    step and plant the simultaneous equations over all coefficients
    {A_i, Bj_i} are stacked into one (p N) x (p N) system with a column per
    column of [Phi | Gamma1_1 | ... | Gamma1_p], and one stacked solve per
    step solves every plant's system.  Each controller's value matrix is
    the top-left block of its augmented matrix SR_i, built once per call,
    so a step is two products into [G | W], the solve, the loop F and the
    value update's two products on Z = [F; U] (module docstring).  A
    plant's arithmetic does not depend on the batch around it, so each
    schedule equals a batch-of-1 call bit for bit.  Raises
    :class:`CouplingSingularityError` with the step, the controller whose
    block holds the smallest pivot, and the plant's index in the batch if
    a system is singular, and :class:`NumericalError` with the step and
    the plant's index if the value recursion leaves the finite range; of
    a step's failing plants, the first in the batch is named.

    With ``return_values`` the value-matrix history is returned as a second
    output: values[k, b, i] is S_i(k) of plant b, k = 0..horizon.
    """
    plants = _entries(plants, "plants")
    for b, dp in enumerate(plants):
        check_compatible(_instance(dp, DiscretePlant, f"plants[{b}]"),
                         weights)
    M, N, p, steps = plants[0].M, plants[0].N, plants[0].p, weights.horizon
    batch, n, dim = len(plants), p * N, M + p * N
    # [K | -Abar'], where [z(k+1); u(k)] = Abar' z(k) + K u(k) with
    # K = [D; I] and Abar' = [Abar; 0], with a controller axis to broadcast
    # over; z = [x; u_1; ...; u_p].
    KA = np.zeros((batch, 1, dim + n, n + dim))
    KA[:, 0, :M, :n] = [np.hstack(dp.Gamma0) for dp in plants]
    KA[:, 0, M:, :n] = np.tile(np.eye(n), (2, 1))
    KA[:, 0, :M, n:] = [-np.hstack((dp.Phi,) + dp.Gamma1) for dp in plants]
    D, minus_Abar = KA[:, 0, :dim, :n], KA[:, 0, :dim, n:].copy()
    # K_i^T = [D_i^T | E_i] for every controller i: (batch, p, N, dim + n).
    Kt = KA[:, 0, :, :n].transpose(0, 2, 1).reshape(batch, p, N, dim + n)
    Q = _embedded(weights.Q, dim)
    # Every product writes through out= into buffers and views built once.
    # The history, kept only when asked for, holds copies of S.
    SR = _augmented(np.tile(_embedded(weights.QN, dim), (batch, 1, 1, 1)),
                    np.array(weights.R))
    S = SR[..., :dim, :dim]
    values = [S.copy()] if return_values else None
    T = np.empty((batch, p, N, dim + n))
    GW4 = np.empty((batch, p, N, n + dim))
    GW = GW4.reshape(batch, n, n + dim)
    work = (np.empty((batch, p, dim, dim + n)), np.empty(S.shape))
    # The step's Z = [F; U], one for every controller.
    Z = np.empty((batch, 1, dim + n, dim))
    F, Uz = Z[:, 0, :dim], Z[:, 0, dim:]
    U = np.empty((steps, batch, n, dim))
    for k in range(steps - 1, -1, -1):
        # Controller i's rows K_i^T SR_i [K | -Abar'] = D_i^T S_i [D | -Abar]
        # + [R_i E_i | 0] of the stacked system [G | W], whose solution U
        # holds every law: u_i = U_i z.
        np.matmul(Kt, SR, out=T)
        np.matmul(T, KA, out=GW4)
        try:
            lin_ops.solve_into(GW, U[k])
        except DimensionError as exc:  # a non-finite entry
            raise NumericalError(f"value recursion leaves the finite range "
                                 f"at step {k}", k, exc.row) from None
        except SingularMatrixError as exc:
            controller = exc.index // N + 1
            which = f" of plant {exc.row}" if batch > 1 else ""
            raise CouplingSingularityError(
                f"stacked best-response system{which} is singular at step "
                f"{k} for controller {controller} (pivot {exc.pivot:.3e})",
                exc.pivot, step=k, controller=controller,
                plant=exc.row) from None
        # Z = [F; U], F = Abar + D U being the loop with every law applied.
        np.copyto(Uz, U[k])
        np.matmul(D, Uz, out=F)
        F -= minus_Abar
        _policy_evaluation(SR, Z, Q, work)
        if return_values:
            values.append(S.copy())
    # + 0.0 is exact but turns -0.0 into 0.0, so vanishing terms (the delay
    # terms of a zero-delay plant) are written as 0.0.
    U5 = U.reshape(steps, batch, p, N, dim)
    U5 += 0.0
    A_coef = U5[..., :M].transpose(1, 0, 2, 3, 4)
    B_coef = U5[..., M:].reshape(steps, batch, p, N, p, N)
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
    _instance(dp, DiscretePlant, "dp")
    if not return_values:
        return synthesize_batch([dp], weights)[0]
    schedules, values = synthesize_batch([dp], weights, return_values=True)
    return schedules[0], values[:, 0]


# ---------------------------------------------------------------------------
# the design layer: each scheme's plants, designed in one batch
# ---------------------------------------------------------------------------

def _lone_first(dp):
    """The plant with every input but controller 1's cut off."""
    zero = np.zeros_like(dp.Gamma0[0])
    rest = (zero,) * (dp.p - 1)
    return replace(dp, Gamma0=dp.Gamma0[:1] + rest,
                   Gamma1=dp.Gamma1[:1] + rest)


def _named(exc, scheme, delays):
    """``exc`` of a failing batch row, named by the row's scheme and delays."""
    exc.args = (f"{exc} for scheme {scheme} at delays {delays}",)
    exc.delays = delays
    return exc


def _designs(config, schemes, points):
    """Every scheme's schedule at every delay point, point-major, tagged
    with its scheme, all designed in one batch of the one recursion; and
    the points' true plants, discretized from one stacked exponential.

    The batch holds each scheme's rows, schemes in the order given:
    ``proposed`` rows on the points' true plants, ``single_delayed`` rows
    on them with controller 1's input alone, and one ``delay_free_game``
    row on the zero-delay plant, which serves every point.  Each row is
    labelled with its scheme and delays, which name a failing design; its
    ``.plant``/``.row`` is the row's index in this batch.  ``proposed``
    rows come back as the recursion built them, and every other row is
    retagged once, however many points it serves.
    """
    pairs = exp_pairs(config.plant, points)
    plants = [discretize(config.plant.with_delays(point), pairs)
              for point in points]
    labels, batch, at = [], [], []
    for scheme in schemes:
        if scheme is Scheme.DELAY_FREE_GAME:
            zero = (0.0,) * config.plant.p
            at.append([len(batch)] * len(points))
            labels.append((scheme, zero))
            batch.append(discretize(config.plant.with_delays(zero), pairs))
            continue
        at.append(range(len(batch), len(batch) + len(points)))
        labels += [(scheme, point) for point in points]
        batch += (plants if scheme is Scheme.PROPOSED
                  else map(_lone_first, plants))
    try:
        # A lone plant goes through ``synthesize``, the batch-of-1 case of
        # the same recursion, so per-call tracing of that public entry
        # point (lqbench/tracing.py) still sees every single design.
        schedules = (synthesize_batch(batch, config.weights) if len(batch) > 1
                     else [synthesize(batch[0], config.weights)])
    except NumericalError as exc:
        raise _named(exc, *labels[exc.row])
    schedules = [schedule if scheme is Scheme.PROPOSED
                 else replace(schedule, scheme=scheme)
                 for schedule, (scheme, _) in zip(schedules, labels)]
    return [schedules[row] for rows in zip(*at) for row in rows], plants


def synthesize_for_scheme(config, scheme):
    """Gain schedule for one scheme on the config's plant, tagged with it."""
    _instance(config, ExperimentConfig, "config")
    return _designs(config, [_scheme(scheme, "scheme")],
                    [config.plant.delays])[0][0]
