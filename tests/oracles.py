"""Independent reference implementations used only to check the package.

Nothing here may call into delay_lqgame's numerics: the exponential is a
scaled truncated Taylor series, the integral is adaptive Simpson over that
series, the regulator recursion is the textbook difference-equation form,
the game oracles iterate best responses to a fixed point, eliminate the
two-controller coupling in closed form, or solve the stacked system with
LAPACK and update each value with the controller's own law left out of
its loop (``c_form_recursion``), the value update on given laws is
plain 2-D products per controller (``policy_evaluation``), and the
closed loop runs one trajectory at a time, each step one dot: the
controls and the next state from the last controls and the state,
through that step's matrix [K_k; [Gamma1 | Phi] + Gamma0 K_k], built
anew for each step.  A deviation adds [delta, Gamma0 delta] to the
step's result.  Its dots (the step's, Gamma0 K_k's and Gamma0 delta's,
the costs' v'Wv, a deviation's delta . delta) are two-operand np.einsum
calls, as in the package: numpy's own loop sums a dot over contiguous
vectors the same way on every BLAS kernel and at every operand offset.
The dense deviation check keeps the batched check's earlier layout (every
trial a full row from step 0, every player costed) as the reference the
package's check, which runs each distinct deviation once, must equal.

Views of package results live here too, because only the tests use
them: ``exp_integral`` (an interval integral as a difference of the
package's cumulative ones), ``lone_expm`` and ``lone_discretize`` (the
package's Pade steps run on one 2-D matrix, one time at a time, and the
delay split assembled from such exponentials: the references that the
stacked exponential pass must equal bit for bit), ``coefficients`` and
``gain`` (a
controller's stacked coefficient row and its negation),
``select_controller`` and ``select_player`` (one controller's plant and
weights), and ``lifted_single_design`` (controller 1 designed alone on
its own plant and weights, then lifted to p controllers with zeros: the
former path of the ``single_delayed`` baseline).
"""

import numpy as np

from delay_lqgame import lin_ops
from delay_lqgame.errors import IntervalError, ValidationError
from delay_lqgame.lin_ops import exp_and_integral
from delay_lqgame.model import DiscretePlant, GameWeights
from delay_lqgame.deviation import (
    DEVIATION_BLOCK,
    NASH_TOLERANCE,
    DeviationReport,
)
from delay_lqgame.simulate import _checked_x0
from delay_lqgame.synthesis import GainSchedule, synthesize


def series_expm(A, t=1.0, terms=40):
    """e^(A t) by scaling, >= `terms`-term Taylor series, and squaring."""
    A = np.asarray(A, dtype=float) * float(t)
    n = A.shape[0]
    norm = np.abs(A).sum(axis=1).max() if A.size else 0.0
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
    S = A / (2.0 ** squarings)
    out = np.eye(n)
    term = np.eye(n)
    for j in range(1, terms + 1):
        term = term @ S / j
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def simpson_exp_integral(A, a, b, tol=1e-10, max_depth=30):
    """Adaptive composite Simpson approximation of int_a^b e^(A s) ds.

    The integrand is evaluated with :func:`series_expm`; refinement is
    driven by the max-norm of the Richardson error estimate.
    """
    A = np.asarray(A, dtype=float)
    if b == a:
        return np.zeros_like(A)

    def f(s):
        return series_expm(A, s)

    def simpson(fa, fm, fb, lo, hi):
        return (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(lo, hi, fa, fm, fb, whole, tol, depth):
        mid = 0.5 * (lo + hi)
        flm = f(0.5 * (lo + mid))
        frm = f(0.5 * (mid + hi))
        left = simpson(fa, flm, fm, lo, mid)
        right = simpson(fm, frm, fb, mid, hi)
        err = np.abs(left + right - whole).max()
        if err <= 15.0 * tol or depth >= max_depth:
            return left + right + (left + right - whole) / 15.0
        return (recurse(lo, mid, fa, flm, fm, left, tol / 2.0, depth + 1)
                + recurse(mid, hi, fm, frm, fb, right, tol / 2.0, depth + 1))

    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    return recurse(a, b, fa, fm, fb, simpson(fa, fm, fb, a, b), tol, 0)


def finite_horizon_lqr(F, G, Q, R, QN, steps):
    """Textbook finite-horizon discrete regulator.

    Dynamics z(k+1) = F z(k) + G v(k), cost z'Qz + v'Rv per step plus
    terminal z'QNz.  Returns the gain stack K with v(k) = -K[k] z(k),
    computed via S = Q + F'SF - F'SG K, the difference-equation form
    (deliberately a different algebraic arrangement than the package's).
    """
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    S = np.asarray(QN, dtype=float).copy()
    gains = np.zeros((steps, G.shape[1], F.shape[0]))
    for k in range(steps - 1, -1, -1):
        K = np.linalg.solve(R + G.T @ S @ G, G.T @ S @ F)
        S = Q + F.T @ S @ F - F.T @ S @ G @ K
        S = 0.5 * (S + S.T)
        gains[k] = K
    return gains


def augmented_delay_lqr(Phi, Gamma0, Gamma1, Q, R, QN, steps):
    """Delayed single-controller gains via an explicit stacked regulator.

    Stacks [x; u(k-1)] with dynamics [[Phi, Gamma1], [0, 0]] and input
    [[Gamma0], [I]], then defers to :func:`finite_horizon_lqr`.  Returns
    K with u(k) = -K[k] [x; u(k-1)].
    """
    M = Phi.shape[0]
    N = Gamma0.shape[1]
    F = np.zeros((M + N, M + N))
    F[:M, :M] = Phi
    F[:M, M:] = Gamma1
    G = np.vstack([Gamma0, np.eye(N)])
    Qbar = np.zeros((M + N, M + N))
    Qbar[:M, :M] = Q
    QbarN = np.zeros((M + N, M + N))
    QbarN[:M, :M] = QN
    return finite_horizon_lqr(F, G, Qbar, R, QbarN, steps)


def best_response_game(Phi, Gamma0, Q, QN, R, steps, tol=1e-12, max_iter=2000):
    """Delay-free p-player feedback game by iterated best response.

    At each backward step the state-feedback coefficients are iterated to a
    fixed point (each player exactly optimal against the others), then the
    value matrices are updated in the direct closed-loop form
    Q_i + A_i'R_iA_i + closed' S_i closed.  Returns coefficients of shape
    (steps, p, N, M) for laws u_i = A_i x.
    """
    p = len(Gamma0)
    M = Phi.shape[0]
    N = Gamma0[0].shape[1]
    S = [np.asarray(QN[i], dtype=float).copy() for i in range(p)]
    coeffs = np.zeros((steps, p, N, M))
    for k in range(steps - 1, -1, -1):
        A = [np.zeros((N, M)) for _ in range(p)]
        for _ in range(max_iter):
            new = []
            for i in range(p):
                drift = Phi.copy()
                for j in range(p):
                    if j != i:
                        drift = drift + Gamma0[j] @ A[j]
                E = R[i] + Gamma0[i].T @ S[i] @ Gamma0[i]
                new.append(-np.linalg.solve(E, Gamma0[i].T @ S[i] @ drift))
            delta = max(np.abs(new[i] - A[i]).max() for i in range(p))
            A = new
            if delta < tol:
                break
        closed = Phi.copy()
        for j in range(p):
            closed = closed + Gamma0[j] @ A[j]
        S = [0.5 * ((Q[i] + A[i].T @ R[i] @ A[i] + closed.T @ S[i] @ closed)
                    + (Q[i] + A[i].T @ R[i] @ A[i] + closed.T @ S[i] @ closed).T)
             for i in range(p)]
        for i in range(p):
            coeffs[k, i] = A[i]
    return coeffs


def delayed_best_response_game(Phi, Gamma0, Gamma1, Q, QN, R, steps,
                               tol=1e-13, max_iter=5000):
    """Delayed p-player game by iterated best response on z = [x; u(k-1)].

    D_i routes u_i into z, Abar = [[Phi | Gamma1]; 0] is the step with no
    inputs.  At each backward step every player's stacked coefficients
    U_i = -(R_i + D_i'S_iD_i)^-1 D_i'S_i (Abar + sum_{j!=i} D_j U_j) are
    iterated to a fixed point, then the values are updated in the direct
    closed-loop form Q_i + U_i'R_iU_i + C'S_iC with C = Abar + sum_j D_j U_j.
    Returns (A_coef, B_coef) shaped like the package's gain schedule.
    """
    p = len(Gamma0)
    M = Phi.shape[0]
    N = Gamma0[0].shape[1]
    dim = M + p * N
    Abar = np.zeros((dim, dim))
    Abar[:M] = np.hstack([Phi] + list(Gamma1))
    D = []
    for i in range(p):
        Di = np.zeros((dim, N))
        Di[:M] = Gamma0[i]
        Di[M + i * N:M + (i + 1) * N] = np.eye(N)
        D.append(Di)

    def embed(W):
        out = np.zeros((dim, dim))
        out[:M, :M] = W
        return out

    S = [embed(QN[i]) for i in range(p)]
    A_coef = np.zeros((steps, p, N, M))
    B_coef = np.zeros((steps, p, p, N, N))
    for k in range(steps - 1, -1, -1):
        U = [np.zeros((N, dim)) for _ in range(p)]
        for _ in range(max_iter):
            new = []
            for i in range(p):
                drift = Abar + sum(D[j] @ U[j] for j in range(p) if j != i)
                E = R[i] + D[i].T @ S[i] @ D[i]
                new.append(-np.linalg.solve(E, D[i].T @ S[i] @ drift))
            delta = max(np.abs(new[i] - U[i]).max() for i in range(p))
            U = new
            if delta < tol:
                break
        C = Abar + sum(D[j] @ U[j] for j in range(p))
        S = [embed(Q[i]) + U[i].T @ R[i] @ U[i] + C.T @ S[i] @ C
             for i in range(p)]
        S = [0.5 * (Si + Si.T) for Si in S]
        for i in range(p):
            A_coef[k, i] = U[i][:, :M]
            for j in range(p):
                B_coef[k, i, j] = U[i][:, M + j * N:M + (j + 1) * N]
    return A_coef, B_coef


def c_form_recursion(dp, weights):
    """The stacked best-response recursion with the value update in the
    form that leaves each controller's own law out of its loop.

    On z = [x; u_1(k-1); ...; u_p(k-1)], D = [[Gamma0_1 ... Gamma0_p]; I]
    routes the inputs and Abar = [[Phi | Gamma1_1 ... Gamma1_p]; 0] is the
    step with no inputs.  Per step, controller i's rows of the stacked
    system are D_i'S_i D + [0 R_i 0] on the left and -D_i'S_i Abar on the
    right, solved by np.linalg.solve for every law u_i = U_i z.  Then, with
    the others mask keeping every controller's columns of D but i's,
    C_i = Abar + sum_{j != i} D_j U_j and E_i = D_i'S_i D_i + R_i,

        S_i <- sym(C_i'S_i C_i + Q_i - U_i'E_i U_i).

    Returns U, shaped (steps, p*N, M + p*N) with row block i holding
    [A_i | B1_i | ... | Bp_i], and the values S_i(k), shaped
    (steps + 1, p, M + p*N, M + p*N).
    """
    M, N, p, steps = dp.M, dp.N, dp.p, weights.horizon
    n, dim = p * N, M + p * N
    D = np.zeros((dim, n))
    D[:M] = np.hstack(dp.Gamma0)
    D[M:] = np.eye(n)
    Abar = np.zeros((dim, dim))
    Abar[:M] = np.hstack((dp.Phi,) + dp.Gamma1)
    others = np.ones((p, 1, n))
    for i in range(p):
        others[i, :, i * N:(i + 1) * N] = 0.0

    def embed(W):
        out = np.zeros((dim, dim))
        out[:M, :M] = W
        return out

    def block(i):
        return slice(i * N, (i + 1) * N)

    Q = [embed(Q_i) for Q_i in weights.Q]
    S = [embed(QN_i) for QN_i in weights.QN]
    values = [S]
    U = np.zeros((steps, n, dim))
    for k in range(steps - 1, -1, -1):
        G = np.vstack([D[:, block(i)].T @ S[i] @ D for i in range(p)])
        for i in range(p):
            G[block(i), block(i)] += weights.R[i]
        W = -np.vstack([D[:, block(i)].T @ S[i] @ Abar for i in range(p)])
        U[k] = np.linalg.solve(G, W)
        new = []
        for i in range(p):
            U_i, D_i = U[k, block(i)], D[:, block(i)]
            C_i = Abar + (D * others[i]) @ U[k]
            E_i = D_i.T @ S[i] @ D_i + weights.R[i]
            S_i = C_i.T @ S[i] @ C_i + Q[i] - U_i.T @ E_i @ U_i
            new.append(0.5 * (S_i + S_i.T))
        S = new
        values.append(S)
    return U, np.array(values[::-1])


def policy_evaluation(S, F, U, Q, R):
    """The values of the laws u_i = U_i z one step back on the loop
    z(k+1) = F z(k): sym(Q_i + F'S_i F + U_i'R_i U_i) for each controller
    i, from plain 2-D products.  S, Q: (p, dim, dim); U: (p*N, dim), row
    block i holding U_i; R: the p blocks R_i, each N x N."""
    N = R[0].shape[0]
    values = []
    for i, (S_i, Q_i, R_i) in enumerate(zip(S, Q, R)):
        U_i = U[i * N:(i + 1) * N]
        total = Q_i + F.T @ S_i @ F + U_i.T @ R_i @ U_i
        values.append(0.5 * (total + total.T))
    return np.array(values)


def two_controller_game(Phi, Gamma0, Gamma1, Q, QN, R, steps):
    """Two-controller delayed game with the coupling eliminated in closed form.

    Works on z = [x; u_1(k-1); u_2(k-1)], where D_i = [Gamma0_i; e_i] routes
    u_i into z.  Per step controller i's first-order condition is
    E_i U_i = -(D_i' S_i) [[F]; 0] - (D_i' S_i D_j) U_j, with
    F = [Phi | Gamma1_1 | Gamma1_2] and E_i = D_i' S_i D_i + R_i,
    i.e. U_i = -g_i - a2_i U_j; each U_i then follows from one solve with
    I - a2_i a2_j.  Values are updated in the direct closed-loop form
    Q_i + U_i'R_iU_i + Cl' S_i Cl.  Returns (A_coef, B_coef) shaped
    (steps, 2, N, M) and (steps, 2, 2, N, N) for laws u_i = A_i x + sum_j
    Bj_i u_j(k-1).
    """
    M = Phi.shape[0]
    N = Gamma0[0].shape[1]
    dim = M + 2 * N
    F = np.hstack([Phi, Gamma1[0], Gamma1[1]])
    D = []
    for i in range(2):
        Di = np.zeros((dim, N))
        Di[:M] = Gamma0[i]
        Di[M + i * N: M + (i + 1) * N] = np.eye(N)
        D.append(Di)
    S = []
    for i in range(2):
        Si = np.zeros((dim, dim))
        Si[:M, :M] = QN[i]
        S.append(Si)
    A_coef = np.zeros((steps, 2, N, M))
    B_coef = np.zeros((steps, 2, 2, N, N))
    for k in range(steps - 1, -1, -1):
        g, a2 = [], []
        for i in range(2):
            T = D[i].T @ S[i]
            sol = np.linalg.solve(T @ D[i] + R[i],
                                  np.hstack([T[:, :M] @ F, T @ D[1 - i]]))
            g.append(sol[:, :dim])
            a2.append(sol[:, dim:])
        U = [np.linalg.solve(np.eye(N) - a2[i] @ a2[1 - i],
                             a2[i] @ g[1 - i] - g[i]) for i in range(2)]
        Cl = np.vstack([F + Gamma0[0] @ U[0] + Gamma0[1] @ U[1], U[0], U[1]])
        for i in range(2):
            Qbar = np.zeros((dim, dim))
            Qbar[:M, :M] = Q[i]
            Si = Qbar + U[i].T @ R[i] @ U[i] + Cl.T @ S[i] @ Cl
            S[i] = 0.5 * (Si + Si.T)
            A_coef[k, i] = U[i][:, :M]
            B_coef[k, i, 0] = U[i][:, M:M + N]
            B_coef[k, i, 1] = U[i][:, M + N:]
    return A_coef, B_coef


def delay_free_game(Phi, Gamma0, Q, QN, R, steps):
    """Two-controller feedback game on a zero-delay plant, in closed form.

    Pure state feedback u_i = A_i x with values on the plant state alone.
    Per step E_i = R_i + Gamma0_i' S_i Gamma0_i, a1_i and a2_i solve
    E_i [a1_i | a2_i] = Gamma0_i' S_i [Phi | Gamma0_j], and
    A_i = (I - a2_i a2_j)^-1 (a2_i a1_j - a1_i).  Values follow
    Q_i + Cl_j' S_i Cl_j - A_i' E_i A_i with Cl_j = Phi + Gamma0_j A_j.
    Returns A_coef shaped (steps, 2, N, M).
    """
    M = Phi.shape[0]
    N = Gamma0[0].shape[1]
    S = [np.array(QN[0], dtype=float), np.array(QN[1], dtype=float)]
    A_coef = np.zeros((steps, 2, N, M))
    for k in range(steps - 1, -1, -1):
        a1, a2, E = [], [], []
        for i in range(2):
            Ei = R[i] + Gamma0[i].T @ S[i] @ Gamma0[i]
            sol = np.linalg.solve(Ei, np.hstack([
                Gamma0[i].T @ S[i] @ Phi, Gamma0[i].T @ S[i] @ Gamma0[1 - i]]))
            a1.append(sol[:, :M])
            a2.append(sol[:, M:])
            E.append(Ei)
        A = [np.linalg.solve(np.eye(N) - a2[i] @ a2[1 - i],
                             a2[i] @ a1[1 - i] - a1[i]) for i in range(2)]
        for i in range(2):
            closed = Phi + Gamma0[1 - i] @ A[1 - i]
            Si = Q[i] + closed.T @ S[i] @ closed - A[i].T @ E[i] @ A[i]
            S[i] = 0.5 * (Si + Si.T)
            A_coef[k, i] = A[i]
    return A_coef


def _quadratic(v, W):
    """v' W v for each vector along the last axis of v, as the dot of
    v' W (one np.einsum dot per column of W) with v."""
    return np.einsum("...j,...j->...", np.einsum("...i,...ij->...j", v, W), v)


def _law(schedule, k):
    """[B_coef[k] | A_coef[k]] as one (p N, p N + M) matrix, row block i
    being controller i's coefficients of [u_1(k-1), ..., u_p(k-1), x(k)]."""
    p = schedule.p
    return np.block([[*(schedule.B_coef[k, i, j] for j in range(p)),
                      schedule.A_coef[k, i]] for i in range(p)])


def _step(dp, schedule, k):
    """L_k = [K_k; [Gamma1 | Phi] + Gamma0 K_k], K_k = _law(schedule, k):
    the map of [u(k-1), x(k)] to [u(k), x(k+1)] with every law in place."""
    K = _law(schedule, k)
    free = np.hstack([*dp.Gamma1, dp.Phi])
    return np.vstack((K, free + np.einsum("mi,ij->mj", np.hstack(dp.Gamma0),
                                          K)))


def _kick(dp, offset):
    """[offset, Gamma0 offset]: what an input offset (p N,) adds to the
    step's [u(k), x(k+1)], every law left in place."""
    return np.concatenate((offset, np.einsum("mi,i->m", np.hstack(dp.Gamma0),
                                             offset)))


def closed_loop(dp, schedule, x0, deviation=None):
    """One closed-loop trajectory, step by step.

    deviation is (player, step, delta): delta is added to that player's
    input at that single step, every law stays in place afterwards.
    Returns states (horizon + 1, M) and controls (horizon, p, N).
    """
    steps, N, n = schedule.horizon, dp.N, dp.p * dp.N
    states = np.zeros((steps + 1, dp.M))
    controls = np.zeros((steps, dp.p, N))
    window = np.concatenate((np.zeros(n),
                             np.asarray(x0, dtype=float).reshape(-1)))
    states[0] = window[n:]
    for k in range(steps):
        window = np.einsum("ij,j->i", _step(dp, schedule, k), window)
        if deviation is not None and deviation[1] == k:
            offset = np.zeros(n)
            offset[deviation[0] * N:(deviation[0] + 1) * N] = deviation[2]
            window = window + _kick(dp, offset)
        controls[k] = window[:n].reshape(dp.p, N)
        states[k + 1] = window[n:]
    return states, controls


def quadratic_costs(states, controls, weights):
    """(total, per-player) costs of one trajectory, summed step by step.

    The total uses controller 1's state weights and every controller's
    control effort.
    """
    p = weights.p
    per_player = np.zeros(p)
    x_final = states[-1]
    for i in range(p):
        J = _quadratic(x_final, weights.QN[i])
        for k in range(controls.shape[0]):
            J += _quadratic(states[k], weights.Q[i])
            J += _quadratic(controls[k, i], weights.R[i])
        per_player[i] = J
    total = float(_quadratic(x_final, weights.QN[0]))
    for k in range(controls.shape[0]):
        total += _quadratic(states[k], weights.Q[0])
        for i in range(p):
            total += _quadratic(controls[k, i], weights.R[i])
    return total, per_player


def per_trial_deviation_check(dp, schedule, weights, x0, trials, magnitude,
                              seed, tolerance):
    """Unilateral-deviation trials re-rolled one trajectory at a time.

    Trial t takes (player, step, delta) from deviation_draws, adds delta
    to that player's input at that step and records the deviator's cost
    change against the undeviated loop.
    Returns (passed, min_delta, min_margin), the margin being the change
    plus tolerance * (1 + J_i).
    """
    _, base = quadratic_costs(*closed_loop(dp, schedule, x0), weights)
    min_delta = np.inf
    min_margin = np.inf
    for player, step, delta in deviation_draws(seed, trials, dp.p,
                                               schedule.horizon, dp.N,
                                               magnitude):
        states, controls = closed_loop(dp, schedule, x0,
                                       deviation=(player, step, delta))
        _, per_player = quadratic_costs(states, controls, weights)
        change = per_player[player] - base[player]
        min_delta = min(min_delta, change)
        min_margin = min(min_margin, change + tolerance * (1.0 + base[player]))
    return bool(min_margin >= 0.0), float(min_delta), float(min_margin)


# ---------------------------------------------------------------------------
# the dense batched deviation check: every trial a full row from step 0,
# every row costed for every player
# ---------------------------------------------------------------------------

def _dense_closed_loop(plants, schedules, x0, offsets=None):
    """Feedback loop of a batch of rows from x0; offsets[k, b, i] is added
    to controller i's input at step k in row b (one shared plant)."""
    steps, p = schedules[0].horizon, schedules[0].p
    rows = len(schedules) if offsets is None else offsets.shape[1]
    # Step axis first, so L[k] is (rows or 1, p N + M, p N + M).
    L = np.stack([[_step(dp, s, k) for dp, s in zip(plants, schedules)]
                  for k in range(steps)])
    M, N = plants[0].M, plants[0].N
    n = p * N
    states = np.empty((rows, steps + 1, M))
    controls = np.empty((rows, steps, p, N))
    window = np.zeros((rows, n + M))
    window[:, n:] = x0
    states[:, 0] = window[:, n:]
    for k in range(steps):
        window = np.einsum("...ij,...j->...i", L[k], window)
        if offsets is not None:
            window = window + np.stack([_kick(plants[0], offset) for offset
                                        in offsets[k].reshape(rows, n)])
        controls[:, k] = window[:, :n].reshape(rows, p, N)
        states[:, k + 1] = window[:, n:]
    return states, controls


def _dense_costs(states, controls, weights):
    """Batched (total, per-player) costs, running sums in step order with
    the terminal term first."""
    steps, p = controls.shape[1:3]
    x_run = np.stack([_quadratic(states[:, :steps], Q) for Q in weights.Q],
                     axis=-1)
    x_end = np.stack([_quadratic(states[:, steps], QN) for QN in weights.QN],
                     axis=-1)
    u_run = np.stack([_quadratic(controls[:, :, i], weights.R[i])
                      for i in range(p)], axis=-1)
    per_player = x_end
    total = x_end[:, 0]
    for k in range(steps):
        per_player = per_player + x_run[:, k] + u_run[:, k]
        total = total + x_run[:, k, 0]
        for i in range(p):
            total = total + u_run[:, k, i]
    return total, per_player


def deviation_draws(seed, trials, p, steps, N, magnitude):
    """(player, step, delta) of trials 0, 1, ..., trials - 1 in turn, one
    scalar draw at a time: the player and the step from the stream of
    default_rng((seed, 0)), the delta, scaled to the given norm, from that
    of default_rng((seed, 1))."""
    picks = np.random.default_rng((int(seed), 0))
    directions = np.random.default_rng((int(seed), 1))
    for _ in range(trials):
        player = int(picks.integers(p))
        step = int(picks.integers(steps))
        delta = directions.standard_normal(N)
        norm = np.sqrt(np.einsum("i,i->", delta, delta))
        if norm == 0.0:
            delta = np.zeros(N)
            delta[0] = 1.0
            norm = 1.0
        yield player, step, delta * (float(magnitude) / norm)


def dense_deviation_check(dp, schedule, weights, x0, trials=200,
                          magnitude=1e-2, seed=0):
    """The deviation check with every trial a dense row of one batched loop.

    All trials run as rows of one batched closed loop, row 0 being the
    undeviated base, in blocks of DEVIATION_BLOCK rows; each row carries a
    (horizon, p, N) offset array that is zero but at its deviation.
    """
    x0 = _checked_x0(dp, schedule, weights, x0)
    trials = int(trials)
    if trials < 0:
        raise ValidationError(f"trials: must be >= 0, got {trials}")
    rows = trials + 1
    players = np.zeros(rows, dtype=int)
    own_cost = np.empty(rows)
    draws = deviation_draws(seed, trials, dp.p, schedule.horizon, dp.N,
                            magnitude)
    for start in range(0, rows, DEVIATION_BLOCK):
        stop = min(start + DEVIATION_BLOCK, rows)
        offsets = np.zeros((schedule.horizon, stop - start, dp.p, dp.N))
        for row in range(max(start, 1), stop):
            player, step, delta = next(draws)
            offsets[step, row - start, player] = delta
            players[row] = player
        _, per_player = _dense_costs(
            *_dense_closed_loop([dp], [schedule], x0, offsets), weights)
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
# views of package results that only the tests use
# ---------------------------------------------------------------------------

def exp_integral(A, a, b):
    """Integral of e^(A*s) over s in [a, b], with 0 <= a <= b.

    Computed as the difference of two cumulative integrals from 0, each
    read off an augmented-matrix exponential; no quadrature involved.
    """
    a = float(a)
    b = float(b)
    if not (0.0 <= a <= b):
        raise IntervalError(f"interval must satisfy 0 <= a <= b, got [{a}, {b}]")
    return exp_and_integral(A, b)[1] - exp_and_integral(A, a)[1]


def lone_expm(A, t):
    """e^(A t) of one 2-D matrix by the package's Pade steps: the degree
    and squaring count chosen from the 1-norm of A t, as lin_ops.mat_exp
    chooses them per time, with 2-D products only."""
    A = np.asarray(A, dtype=float) * t
    norm = np.abs(A).sum(axis=0).max()
    for m, theta in lin_ops._THETA:
        if norm <= theta:
            U, V = lin_ops._pade(A, m)
            return np.linalg.solve(V - U, V + U)
    squarings = max(0, int(np.ceil(np.log2(norm / lin_ops._THETA_13))))
    U, V = lin_ops._pade(A / 2.0 ** squarings, 13)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(squarings):
        E = E @ E
    return E


def lone_discretize(plant):
    """(Phi, Gamma0, Gamma1) of the delay split as model.discretize forms
    it, from one lone_expm of the augmented matrix per time."""
    M = plant.M
    aug = np.zeros((2 * M, 2 * M))
    aug[:M, :M] = plant.A
    aug[:M, M:] = np.eye(M)

    def pair(t):
        E = lone_expm(aug, t)
        return E[:M, :M], E[:M, M:]

    Phi = pair(plant.h)[0]
    Gamma0 = [pair(plant.h - tau)[1] @ B for B, tau in zip(plant.B,
                                                           plant.delays)]
    Gamma1 = [pair(plant.h - tau)[0] @ (pair(tau)[1] @ B) if tau
              else np.zeros_like(B) for B, tau in zip(plant.B, plant.delays)]
    return Phi, Gamma0, Gamma1


def coefficients(schedule, k, i):
    """Stacked coefficient row [A_i | B1_i | ... | Bp_i] of controller i
    at step k."""
    blocks = [schedule.A_coef[k, i]]
    blocks.extend(schedule.B_coef[k, i, j] for j in range(schedule.p))
    return np.hstack(blocks)


def gain(schedule, k, i):
    """L_i(k), i.e. the negated stacked coefficients."""
    return -coefficients(schedule, k, i)


def select_controller(dp, index):
    """Single-controller plant keeping only the given controller's input."""
    return DiscretePlant(dp.Phi, (dp.Gamma0[index],), (dp.Gamma1[index],))


def select_player(weights, index):
    """Weights restricted to one controller (same horizon)."""
    return GameWeights((weights.Q[index],), (weights.QN[index],),
                       (weights.R[index],), weights.horizon)


def lifted_single_design(dp, weights):
    """Controller 1's schedule designed on its own plant and weights,
    lifted to dp's p controllers: every other coefficient is +0.0."""
    alone = synthesize(select_controller(dp, 0), select_player(weights, 0))
    steps, _, N, M = alone.A_coef.shape
    A_coef = np.zeros((steps, dp.p, N, M))
    B_coef = np.zeros((steps, dp.p, dp.p, N, N))
    A_coef[:, 0] = alone.A_coef[:, 0]
    B_coef[:, 0, 0] = alone.B_coef[:, 0, 0]
    return GainSchedule(alone.scheme, A_coef, B_coef)
