"""Independent reference implementations used only to check the package.

Nothing here may call into delay_lqgame's numerics: the exponential is a
scaled truncated Taylor series, the integral is adaptive Simpson over that
series, the regulator recursion is the textbook difference-equation form,
the game oracle iterates best responses to a fixed point, and the closed
loop runs one trajectory at a time with plain per-step sums.
"""

import numpy as np


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


def closed_loop(dp, schedule, x0, deviation=None):
    """One closed-loop trajectory, step by step and player by player.

    deviation is (player, step, delta): delta is added to that player's
    input at that single step, every law stays in place afterwards.
    Returns states (horizon + 1, M) and controls (horizon, p, N).
    """
    steps = schedule.horizon
    states = np.zeros((steps + 1, dp.M))
    controls = np.zeros((steps, dp.p, dp.N))
    x = np.asarray(x0, dtype=float).reshape(-1)
    states[0] = x
    u_prev = np.zeros((dp.p, dp.N))
    for k in range(steps):
        u = np.zeros((dp.p, dp.N))
        for i in range(dp.p):
            ui = schedule.A_coef[k, i] @ x
            for j in range(dp.p):
                ui = ui + schedule.B_coef[k, i, j] @ u_prev[j]
            u[i] = ui
        if deviation is not None and deviation[1] == k:
            u[deviation[0]] = u[deviation[0]] + deviation[2]
        x_next = dp.Phi @ x
        for i in range(dp.p):
            x_next = x_next + dp.Gamma0[i] @ u[i] + dp.Gamma1[i] @ u_prev[i]
        controls[k] = u
        states[k + 1] = x_next
        u_prev = u
        x = x_next
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
        J = x_final @ weights.QN[i] @ x_final
        for k in range(controls.shape[0]):
            J += states[k] @ weights.Q[i] @ states[k]
            J += controls[k, i] @ weights.R[i] @ controls[k, i]
        per_player[i] = J
    total = float(x_final @ weights.QN[0] @ x_final)
    for k in range(controls.shape[0]):
        total += states[k] @ weights.Q[0] @ states[k]
        for i in range(p):
            total += controls[k, i] @ weights.R[i] @ controls[k, i]
    return total, per_player


def per_trial_deviation_check(dp, schedule, weights, x0, trials, magnitude,
                              seed, tolerance):
    """Unilateral-deviation trials re-rolled one trajectory at a time.

    Trial t draws (player, step, delta) from default_rng((seed, t)), adds
    delta, scaled to the given norm, to that player's input at that step
    and records the deviator's cost change against the undeviated loop.
    Returns (passed, min_delta, min_margin), the margin being the change
    plus tolerance * (1 + J_i).
    """
    _, base = quadratic_costs(*closed_loop(dp, schedule, x0), weights)
    min_delta = np.inf
    min_margin = np.inf
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        player = int(rng.integers(dp.p))
        step = int(rng.integers(schedule.horizon))
        delta = rng.normal(size=dp.N)
        norm = np.linalg.norm(delta)
        if norm == 0.0:
            delta = np.zeros(dp.N)
            delta[0] = 1.0
            norm = 1.0
        delta = delta * (magnitude / norm)
        states, controls = closed_loop(dp, schedule, x0,
                                       deviation=(player, step, delta))
        _, per_player = quadratic_costs(states, controls, weights)
        change = per_player[player] - base[player]
        min_delta = min(min_delta, change)
        min_margin = min(min_margin, change + tolerance * (1.0 + base[player]))
    return bool(min_margin >= 0.0), float(min_delta), float(min_margin)
