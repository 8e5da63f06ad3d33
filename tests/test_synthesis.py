from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import delay_lqgame.synthesis
from delay_lqgame import (
    ContinuousPlant,
    CouplingSingularityError,
    DimensionError,
    DiscretePlant,
    GainSchedule,
    GameWeights,
    NumericalError,
    Scheme,
    ValidationError,
    discretize,
    synthesize,
    synthesize_batch,
    synthesize_for_scheme,
)

from conftest import random_stable_plant, random_weights, singular_solve
from oracles import (
    augmented_delay_lqr,
    best_response_game,
    c_form_recursion,
    coefficients,
    delay_free_game,
    delayed_best_response_game,
    finite_horizon_lqr,
    gain,
    policy_evaluation,
    select_controller,
    select_player,
    two_controller_game,
)


def eye_weights(M, p, horizon, q=1.0, r=1.0):
    return GameWeights(Q=tuple(q * np.eye(M) for _ in range(p)),
                       QN=tuple(q * np.eye(M) for _ in range(p)),
                       R=tuple(r * np.eye(1) for _ in range(p)),
                       horizon=horizon)


def closed_form(dp, w):
    return two_controller_game(dp.Phi, dp.Gamma0, dp.Gamma1, w.Q, w.QN, w.R,
                               w.horizon)


def free_form(dp0, w):
    return delay_free_game(dp0.Phi, dp0.Gamma0, w.Q, w.QN, w.R, w.horizon)


def regulator_gains(dp1, w1):
    return augmented_delay_lqr(dp1.Phi, dp1.Gamma0[0], dp1.Gamma1[0],
                               w1.Q[0], w1.R[0], w1.QN[0], w1.horizon)


class TestTwoController:
    def test_inert_second_controller_degenerates_to_single(self, generic_dp,
                                                           generic_config):
        w = generic_config.weights
        dp = DiscretePlant(generic_dp.Phi,
                           (generic_dp.Gamma0[0], np.zeros((2, 1))),
                           (generic_dp.Gamma1[0], np.zeros((2, 1))))
        two = synthesize(dp, w)
        gains = regulator_gains(select_controller(dp, 0),
                                select_player(w, 0))
        np.testing.assert_allclose(two.A_coef[:, 0], -gains[:, :, :2],
                                   rtol=0, atol=1e-10)
        np.testing.assert_allclose(two.B_coef[:, 0, 0], -gains[:, :, 2:],
                                   rtol=0, atol=1e-10)
        assert np.all(two.A_coef[:, 1] == 0.0)
        assert np.all(two.B_coef[:, 1] == 0.0)

    def test_zero_delays_degenerate_to_delay_free_game(self, generic_config):
        dp0 = discretize(generic_config.plant.with_delays((0.0, 0.0)))
        two = synthesize(dp0, generic_config.weights)
        free = free_form(dp0, generic_config.weights)
        assert np.abs(two.B_coef).max() <= 1e-10
        np.testing.assert_allclose(two.A_coef, free, rtol=0, atol=1e-10)

    def test_scalar_two_step_hand_values(self):
        # Scalar symmetric instance Phi=1, Gamma0=4/5, Gamma1=1/5, Q=QN=R=1,
        # two steps.  Expected coefficients evaluated by hand in exact
        # rational arithmetic (see the Fraction recursion below).
        dp = DiscretePlant([[1.0]], ([[0.8]], [[0.8]]), ([[0.2]], [[0.2]]))
        w = eye_weights(1, 2, horizon=2)
        sched = synthesize(dp, w)

        a_exp = {1: Fraction(-20, 57), 0: Fraction(-90605, 236443)}
        b_exp = {1: Fraction(-4, 57), 0: Fraction(-18121, 236443)}

        # independent scalar evaluation, exact arithmetic
        phi, g0, g1, one = Fraction(1), Fraction(4, 5), Fraction(1, 5), Fraction(1)
        S = [[one, 0, 0], [0, 0, 0], [0, 0, 0]]  # terminal value matrix
        for k in (1, 0):
            T = [g0 * S[0][n] + S[1][n] for n in range(3)]
            E = T[0] * g0 + T[1] + one
            a1, b1, c1 = T[0] * phi / E, T[0] * g1 / E, T[0] * g1 / E
            a2 = (T[0] * g0 + T[2]) / E
            A = (a2 * a1 - a1) / (1 - a2 * a2)
            B = (a2 * b1 - b1) / (1 - a2 * a2)
            C_ = (a2 * c1 - c1) / (1 - a2 * a2)
            assert A == a_exp[k] and B == b_exp[k] and C_ == b_exp[k]
            row = [phi + g0 * A, g1 + g0 * B, g1 + g0 * C_]
            U = [A, B, C_]
            Cm = [row, [0, 0, 0], U]
            P11 = [[sum(Cm[r][i] * S[r][s] * Cm[s][j]
                        for r in range(3) for s in range(3))
                    + (one if (i, j) == (0, 0) else 0)
                    for j in range(3)] for i in range(3)]
            S = [[P11[i][j] - U[i] * E * U[j] for j in range(3)]
                 for i in range(3)]
        for k in (0, 1):
            for i in (0, 1):
                assert abs(sched.A_coef[k, i, 0, 0] - float(a_exp[k])) <= 1e-12
                for j in (0, 1):
                    assert abs(sched.B_coef[k, i, j, 0, 0]
                               - float(b_exp[k])) <= 1e-12

    def test_schedule_is_tagged_proposed(self, generic_dp, generic_config):
        sched = synthesize(generic_dp, generic_config.weights)
        assert sched.scheme is Scheme.PROPOSED


class TestMultiController:
    def test_p1_reduces_to_single(self):
        rng = np.random.default_rng(11)
        plant = random_stable_plant(rng, M=3, p=1)
        dp = discretize(plant)
        w = random_weights(rng, 3, p=1, horizon=20)
        multi = synthesize(dp, w)
        gains = regulator_gains(dp, w)
        np.testing.assert_allclose(multi.A_coef[:, 0], -gains[:, :, :3],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(multi.B_coef[:, 0, 0], -gains[:, :, 3:],
                                   rtol=0, atol=1e-12)

    def test_p2_matches_closed_form_on_preset(self, generic_dp,
                                              generic_config):
        A, B = closed_form(generic_dp, generic_config.weights)
        multi = synthesize(generic_dp, generic_config.weights)
        np.testing.assert_allclose(multi.A_coef, A, rtol=0, atol=1e-9)
        np.testing.assert_allclose(multi.B_coef, B, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_p2_matches_closed_form_random(self, seed):
        rng = np.random.default_rng(300 + seed)
        plant = random_stable_plant(rng, M=int(rng.integers(2, 5)), p=2)
        dp = discretize(plant)
        w = random_weights(rng, plant.M, p=2, horizon=30)
        A, B = closed_form(dp, w)
        multi = synthesize(dp, w)
        np.testing.assert_allclose(multi.A_coef, A, rtol=0, atol=1e-9)
        np.testing.assert_allclose(multi.B_coef, B, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_wide_controls_match_closed_form(self, seed):
        # N > 1 exercises every block-slicing path in the recursion.
        rng = np.random.default_rng(600 + seed)
        plant = random_stable_plant(rng, M=3, N=2, p=2)
        dp = discretize(plant)
        w = GameWeights(
            Q=tuple(np.eye(3) * rng.uniform(0.5, 2.0) for _ in range(2)),
            QN=tuple(np.eye(3) * rng.uniform(0.5, 2.0) for _ in range(2)),
            R=tuple(np.eye(2) * rng.uniform(0.5, 2.0) for _ in range(2)),
            horizon=20)
        A, B = closed_form(dp, w)
        multi = synthesize(dp, w)
        np.testing.assert_allclose(multi.A_coef, A, rtol=0, atol=1e-9)
        np.testing.assert_allclose(multi.B_coef, B, rtol=0, atol=1e-9)

    def test_wide_controls_single_matches_oracle(self):
        rng = np.random.default_rng(21)
        plant = random_stable_plant(rng, M=4, N=3, p=1)
        dp = discretize(plant)
        w = GameWeights(Q=(np.eye(4),), QN=(2.0 * np.eye(4),),
                        R=(np.eye(3),), horizon=15)
        sched = synthesize(dp, w)
        gains = regulator_gains(dp, w)
        for k in range(15):
            np.testing.assert_allclose(gain(sched, k, 0), gains[k], rtol=0,
                                       atol=1e-10)

    def test_p3_zero_delay_matches_best_response_oracle(self):
        rng = np.random.default_rng(12)
        plant = random_stable_plant(rng, M=2, p=3, h=0.1, zero_delays=True)
        dp = discretize(plant)
        w = GameWeights(Q=tuple((i + 1.0) * np.eye(2) for i in range(3)),
                        QN=tuple((i + 1.0) * np.eye(2) for i in range(3)),
                        R=tuple((1.0 + 0.5 * i) * np.eye(1) for i in range(3)),
                        horizon=12)
        multi = synthesize(dp, w)
        oracle = best_response_game(dp.Phi, dp.Gamma0, w.Q, w.QN, w.R, 12)
        assert np.abs(multi.B_coef).max() == 0.0
        np.testing.assert_allclose(multi.A_coef, oracle, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("M, N, p", [(3, 1, 3), (3, 2, 2), (2, 1, 4)])
    def test_delayed_game_matches_best_response_oracle(self, M, N, p):
        rng = np.random.default_rng(700 + 10 * p + N)
        dp = discretize(random_stable_plant(rng, M=M, N=N, p=p))
        w = random_weights(rng, M, N=N, p=p, horizon=15)
        sched = synthesize(dp, w)
        A, B = delayed_best_response_game(dp.Phi, dp.Gamma0, dp.Gamma1, w.Q,
                                          w.QN, w.R, w.horizon)
        scale = max(1.0, np.abs(A).max())
        np.testing.assert_allclose(sched.A_coef, A, rtol=0, atol=1e-10 * scale)
        np.testing.assert_allclose(sched.B_coef, B, rtol=0, atol=1e-10 * scale)


class TestSingleDelayed:
    def test_zero_delay_equals_classical_lqr(self):
        rng = np.random.default_rng(13)
        plant = random_stable_plant(rng, M=3, p=1, zero_delays=True)
        dp = discretize(plant)
        w = random_weights(rng, 3, p=1, horizon=25)
        sched = synthesize(dp, w)
        gains = finite_horizon_lqr(dp.Phi, dp.Gamma0[0], w.Q[0], w.R[0],
                                   w.QN[0], 25)
        assert np.abs(sched.B_coef).max() <= 1e-12
        np.testing.assert_allclose(sched.A_coef[:, 0], -gains, rtol=0,
                                   atol=1e-10)

    def test_matches_augmented_regulator_oracle(self, generic_dp,
                                                generic_config):
        w1 = select_player(generic_config.weights, 0)
        dp1 = select_controller(generic_dp, 0)
        sched = synthesize(dp1, w1)
        gains = regulator_gains(dp1, w1)
        for k in range(w1.horizon):
            np.testing.assert_allclose(gain(sched, k, 0), gains[k], rtol=0,
                                       atol=1e-10)

    def test_one_step_closed_form(self):
        rng = np.random.default_rng(14)
        plant = random_stable_plant(rng, M=2, p=1)
        dp = discretize(plant)
        w = random_weights(rng, 2, p=1, horizon=1)
        sched = synthesize(dp, w)
        G0, G1, QN = dp.Gamma0[0], dp.Gamma1[0], w.QN[0]
        lhs = w.R[0] + G0.T @ QN @ G0
        want = np.linalg.solve(lhs, np.hstack([G0.T @ QN @ dp.Phi,
                                               G0.T @ QN @ G1]))
        np.testing.assert_allclose(gain(sched, 0, 0), want, rtol=0, atol=1e-12)

    def test_value_recursion_identity(self, generic_dp, generic_config):
        # S(k) = P11 - L'P22L, rebuilt from the published value history.
        w1 = select_player(generic_config.weights, 0)
        dp1 = select_controller(generic_dp, 0)
        sched, values = synthesize(dp1, w1, return_values=True)
        M, N = dp1.M, dp1.N
        C = np.zeros((M + N, M + N))
        C[:M, :M] = dp1.Phi
        C[:M, M:] = dp1.Gamma1[0]
        D = np.vstack([dp1.Gamma0[0], np.eye(N)])
        Q_aug = np.zeros((M + N, M + N))
        Q_aug[:M, :M] = w1.Q[0]
        for k in range(w1.horizon):
            S_next = values[k + 1][0]
            L = gain(sched, k, 0)
            P11 = C.T @ S_next @ C + Q_aug
            P12 = D.T @ S_next @ C
            P22 = D.T @ S_next @ D + w1.R[0]
            assert np.abs(P22 @ L - P12).max() <= 1e-10
            assert np.abs(values[k][0] - (P11 - L.T @ P22 @ L)).max() <= 1e-10

    def test_rejects_multi_controller_plant(self, generic_dp, generic_config):
        # One controller's weights cannot drive a two-controller plant.
        with pytest.raises(DimensionError, match=r"^weights\.Q: shape "
                                                 r"\(1, 2, 2\), expected "
                                                 r"\(2, 2, 2\)$"):
            synthesize(generic_dp,
                       select_player(generic_config.weights, 0))


class TestDelayFreeGame:
    def test_single_player_degeneration_is_negated_lqr(self):
        rng = np.random.default_rng(15)
        plant = random_stable_plant(rng, M=2, p=2, zero_delays=True)
        dp = discretize(plant)
        dp = DiscretePlant(dp.Phi, (dp.Gamma0[0], np.zeros((2, 1))),
                           (dp.Gamma1[0], np.zeros((2, 1))))
        w = eye_weights(2, 2, horizon=15)
        sched = synthesize(dp, w)
        gains = finite_horizon_lqr(dp.Phi, dp.Gamma0[0], w.Q[0], w.R[0],
                                   w.QN[0], 15)
        np.testing.assert_allclose(sched.A_coef[:, 0], -gains, rtol=0,
                                   atol=1e-10)

    def test_symmetric_players_share_gains(self, generic_config):
        # Bitwise symmetry is a property of the closed form: each player's
        # gain comes from its own mirror-image solves.
        dp0 = discretize(generic_config.plant.with_delays((0.0, 0.0)))
        free = free_form(dp0, generic_config.weights)
        np.testing.assert_array_equal(free[:, 0], free[:, 1])

    def test_symmetric_players_share_gains_in_stacked_solve(self,
                                                            generic_config):
        # The stacked LU mixes both players' rows, so symmetry holds to
        # round-off rather than bitwise.
        dp0 = discretize(generic_config.plant.with_delays((0.0, 0.0)))
        sched = synthesize(dp0, generic_config.weights)
        np.testing.assert_allclose(sched.A_coef[:, 0], sched.A_coef[:, 1],
                                   rtol=0, atol=1e-12)

    def test_scalar_one_step_value(self):
        dp = DiscretePlant([[1.0]], ([[1.0]], [[1.0]]),
                           ([[0.0]], [[0.0]]))
        sched = synthesize(dp, eye_weights(1, 2, horizon=1))
        for i in (0, 1):
            assert abs(sched.A_coef[0, i, 0, 0] - (-1.0 / 3.0)) <= 1e-12

    @pytest.mark.parametrize("preset", ["generic_config", "lfc_config"])
    def test_scheme_designs_on_zero_delay_plant(self, preset, request):
        # The delay-free design ignores the configured delays, and its
        # vanishing delay terms are +0.0, never -0.0.
        config = request.getfixturevalue(preset)
        sched = synthesize_for_scheme(config, Scheme.DELAY_FREE_GAME)
        dp0 = discretize(config.plant.with_delays((0.0,) * config.plant.p))
        np.testing.assert_array_equal(
            sched.A_coef, synthesize(dp0, config.weights).A_coef)
        assert np.all(sched.B_coef == 0.0)
        assert not np.any(np.signbit(sched.B_coef))


class TestRecursionInvariants:
    @pytest.mark.parametrize("seed", range(3))
    def test_degenerations_random(self, seed):
        rng = np.random.default_rng(400 + seed)
        M = int(rng.integers(2, 5))
        plant = random_stable_plant(rng, M=M, p=2)
        w = random_weights(rng, M, p=2, horizon=20)
        # one controller zeroed out
        dp = discretize(plant)
        dpz = DiscretePlant(dp.Phi, (dp.Gamma0[0], np.zeros((M, 1))),
                            (dp.Gamma1[0], np.zeros((M, 1))))
        two = synthesize(dpz, w)
        gains = regulator_gains(select_controller(dpz, 0),
                                select_player(w, 0))
        np.testing.assert_allclose(two.A_coef[:, 0], -gains[:, :, :M],
                                   rtol=0, atol=1e-10)
        # zero delays
        dp0 = discretize(plant.with_delays((0.0, 0.0)))
        two0 = synthesize(dp0, w)
        np.testing.assert_allclose(two0.A_coef, free_form(dp0, w), rtol=0,
                                   atol=1e-10)

    def test_value_matrices_symmetric_psd(self, generic_dp, generic_config):
        _, values = synthesize(generic_dp, generic_config.weights,
                               return_values=True)
        for step_values in values:
            for S in step_values:
                assert np.abs(S - S.T).max() <= 1e-9
                assert np.linalg.eigvalsh(S).min() >= -1e-9

    def test_recursion_identity_and_best_response(self, generic_dp,
                                                  generic_config):
        # At every step the stored gain must satisfy the stationarity
        # condition P22 L = P12 and the value identity S = P11 - L'P22L,
        # rebuilt here from scratch out of the published value history.
        w = generic_config.weights
        sched, values = synthesize(generic_dp, w, return_values=True)
        M, N = generic_dp.M, generic_dp.N
        dim = M + 2 * N
        D = []
        for i in range(2):
            Di = np.zeros((dim, N))
            Di[:M] = generic_dp.Gamma0[i]
            Di[M + i * N: M + (i + 1) * N] = np.eye(N)
            D.append(Di)
        for k in range(w.horizon):
            U = [coefficients(sched, k, i) for i in range(2)]
            for i in range(2):
                S_next = values[k + 1][i]
                top = np.hstack([generic_dp.Phi] + list(generic_dp.Gamma1))
                top = top + generic_dp.Gamma0[1 - i] @ U[1 - i]
                rows = [top]
                for m in range(2):
                    rows.append(U[m] if m != i else np.zeros((N, dim)))
                C = np.vstack(rows)
                Q_aug = np.zeros((dim, dim))
                Q_aug[:M, :M] = w.Q[i]
                P11 = C.T @ S_next @ C + Q_aug
                P12 = D[i].T @ S_next @ C
                P22 = D[i].T @ S_next @ D[i] + w.R[i]
                L = -U[i]
                assert np.abs(P22 @ L - P12).max() <= 1e-10
                assert np.abs(values[k][i] - (P11 - L.T @ P22 @ L)).max() <= 1e-10

    def test_coupling_singularity_is_reported_with_context(self, generic_dp,
                                                           generic_config,
                                                           monkeypatch):
        singular_solve(monkeypatch, 0)
        with pytest.raises(CouplingSingularityError) as err:
            synthesize(generic_dp, generic_config.weights)
        assert err.value.step == generic_config.weights.horizon - 1
        assert err.value.controller == 1

    @pytest.mark.parametrize("N", [1, 2])
    def test_smallest_pivot_names_its_controller(self, N, monkeypatch):
        # Zeroing the first column of controller 2's block leaves a zero
        # pivot there and nowhere earlier, so the real solve reports it.
        rng = np.random.default_rng(31)
        dp = discretize(random_stable_plant(rng, M=3, N=N, p=3))
        w = random_weights(rng, 3, N=N, p=3, horizon=4)
        solve_into = delay_lqgame.synthesis.lin_ops.solve_into

        def singular_in_block_two(systems, out):
            systems = np.array(systems)
            systems[..., N] = 0.0
            solve_into(systems, out)

        monkeypatch.setattr(delay_lqgame.synthesis.lin_ops, "solve_into",
                            singular_in_block_two)
        with pytest.raises(CouplingSingularityError,
                           match="at step 3 for controller 2") as err:
            synthesize(dp, w)
        assert err.value.step == 3
        assert err.value.controller == 2


class TestAgainstCFormOracle:
    """The closed-loop value update, S_i <- sym(Q_i + F'S_i F + U_i'R_i U_i)
    with F the loop under every law, against the form that leaves
    controller i's own law out of its loop: the two agree wherever every
    law is its controller's best response."""

    @pytest.mark.parametrize("case", ["generic", "lfc"] + [
        f"p{p}-N{N}" for p in (1, 2, 3) for N in (1, 2)])
    def test_gains_and_values_agree(self, case, generic_config, lfc_config):
        if case in ("generic", "lfc"):
            config = generic_config if case == "generic" else lfc_config
            dp, w = discretize(config.plant), config.weights
        else:
            p, N = int(case[1]), int(case[-1])
            rng = np.random.default_rng(60 + 10 * p + N)
            dp = discretize(random_stable_plant(rng, M=3, N=N, p=p))
            w = random_weights(rng, 3, N=N, p=p, horizon=20)
        sched, values = synthesize(dp, w, return_values=True)
        want_U, want_values = c_form_recursion(dp, w)
        for k in range(w.horizon):
            got = np.vstack([coefficients(sched, k, i) for i in range(dp.p)])
            scale = np.abs(want_U[k]).max()
            assert np.abs(got - want_U[k]).max() <= 1e-12 * scale, k
        for k in range(w.horizon + 1):
            scale = np.abs(want_values[k]).max()
            assert np.abs(values[k] - want_values[k]).max() <= 1e-12 * scale, k


class TestPolicyEvaluation:
    """The value update alone, called as an equilibrium certificate would
    call it on a schedule's laws: S, the laws U and the step, no solve."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("N", [1, 2])
    def test_matches_plain_products(self, p, N):
        rng = np.random.default_rng(300 + 10 * p + N)
        M = 3
        n, dim = p * N, M + p * N
        S = rng.normal(size=(p, dim, dim))
        S = S @ S.swapaxes(-1, -2)
        Q = rng.normal(size=(p, dim, dim))
        Q = Q @ Q.swapaxes(-1, -2)
        R = rng.normal(size=(p, N, N))
        R = R @ R.swapaxes(-1, -2) + np.eye(N)
        U = rng.normal(size=(n, dim))
        Abar, D = np.zeros((dim, dim)), np.zeros((dim, n))
        Abar[:M] = rng.normal(size=(M, dim))
        D[:M], D[M:] = rng.normal(size=(M, n)), np.eye(n)
        F = Abar + D @ U
        want = policy_evaluation(S, F, U, Q, R)
        SR = delay_lqgame.synthesis._augmented(S, R)
        work = (np.empty((p, dim, dim + n)), np.empty((p, dim, dim)))
        delay_lqgame.synthesis._policy_evaluation(
            SR, np.vstack((F, U))[None], Q, work)
        got = SR[:, :dim, :dim]
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        np.testing.assert_array_equal(got, got.swapaxes(-1, -2))
        # Every block of SR but S_i is left as it was: R_i in its corner.
        SR[:, :dim, :dim] = 0.0
        np.testing.assert_array_equal(
            SR, delay_lqgame.synthesis._augmented(np.zeros_like(S), R))


def _grid_plants(config, grids):
    return [discretize(config.plant.with_delays(point))
            for point in product(*grids)]


def _seeded_grid_plants(M, N, p, size, seed):
    rng = np.random.default_rng(seed)
    plant = random_stable_plant(rng, M=M, N=N, p=p)
    grids = [np.sort(rng.uniform(0.0, 0.98 * plant.h, size=size))
             for _ in range(p)]
    plants = [discretize(plant.with_delays(point))
              for point in product(*grids)]
    return plants, random_weights(rng, M, N=N, p=p, horizon=20)


class TestBatch:
    @pytest.mark.parametrize("case", ["generic36", "lfc16", "p3", "N2"])
    def test_each_plant_equals_its_batch_of_one(self, case, generic_config,
                                                lfc_config):
        if case == "generic36":
            plants = _grid_plants(generic_config, generic_config.sweep)
            weights = generic_config.weights
        elif case == "lfc16":
            plants = _grid_plants(lfc_config, lfc_config.sweep)
            weights = lfc_config.weights
        elif case == "p3":
            plants, weights = _seeded_grid_plants(4, 1, 3, 3, seed=41)
        else:
            plants, weights = _seeded_grid_plants(3, 2, 2, 3, seed=42)
        batched, values = synthesize_batch(plants, weights,
                                           return_values=True)
        assert len(batched) == len(plants)
        for b, (dp, got) in enumerate(zip(plants, batched)):
            want, want_values = synthesize(dp, weights, return_values=True)
            assert got.scheme is Scheme.PROPOSED
            np.testing.assert_array_equal(got.A_coef, want.A_coef)
            np.testing.assert_array_equal(got.B_coef, want.B_coef)
            np.testing.assert_array_equal(values[:, b], want_values)

    def test_empty_batch_rejected(self, generic_config):
        with pytest.raises(ValidationError,
                           match="^plants: expected a non-empty sequence$"):
            synthesize_batch([], generic_config.weights)

    def test_mismatched_plant_rejected(self, generic_dp, generic_config):
        with pytest.raises(DimensionError):
            synthesize_batch([generic_dp, select_controller(generic_dp, 0)],
                             generic_config.weights)

    def test_singular_plant_named_by_batch_index(self, generic_config,
                                                 monkeypatch):
        plants = _grid_plants(generic_config, ((0.0, 0.01), (0.0, 0.01)))
        singular_solve(monkeypatch, 2, index=1)
        with pytest.raises(CouplingSingularityError,
                           match="of plant 2 is singular at step 49 for "
                                 "controller 2") as err:
            synthesize_batch(plants, generic_config.weights)
        assert (err.value.plant, err.value.step, err.value.controller) == (
            2, 49, 2)

    def test_overflow_named_by_step_and_plant(self, generic_dp):
        # A 300/s mode grows the value matrices ~1e13-fold a step, so
        # S(76) overflows and step 75's system is not finite.
        unstable = ContinuousPlant(A=[[300.0, 0.0], [0.0, -1.0]],
                                   B=([[0.0], [1.0]], [[0.0], [2.0]]),
                                   delays=(0.01, 0.02), h=0.05)
        with pytest.raises(NumericalError) as err:
            synthesize_batch([generic_dp, discretize(unstable)],
                             eye_weights(2, 2, 100))
        assert type(err.value) is NumericalError
        assert str(err.value) == ("value recursion leaves the finite range "
                                  "at step 75")
        assert (err.value.step, err.value.row) == (75, 1)


def _dead_second_input(config):
    """The config's plant with controller 2's input cut off, under weights
    that barely charge controller 2: its block of the first step's system
    is then R_2 alone, a pivot far below the threshold."""
    plant = config.plant
    dead = ContinuousPlant(A=plant.A, B=(plant.B[0], 0.0 * plant.B[1]),
                           delays=plant.delays, h=plant.h)
    weights = replace(config.weights, R=(config.weights.R[0],
                                         1e-20 * config.weights.R[1]))
    return discretize(dead), weights


class TestBufferedStep:
    """The step reuses its operand buffers across steps; nothing it
    returns may share them."""

    @pytest.mark.parametrize("case", ["generic", "p3"])
    def test_value_history_equals_fresh_shorter_runs(self, case,
                                                     generic_config):
        # S(k) of a horizon-H run is S(0) of a fresh horizon-(H - k) run,
        # the same steps on the same operands; an entry of the history
        # that aliased a reused buffer would hold a later step's S.
        if case == "generic":
            plants = _grid_plants(generic_config, ((0.0, 0.012), (0.004,)))
            weights = replace(generic_config.weights, horizon=6)
        else:
            plants, weights = _seeded_grid_plants(4, 1, 3, 2, seed=43)
            weights = replace(weights, horizon=6)
        schedules, values = synthesize_batch(plants, weights,
                                             return_values=True)
        H = weights.horizon
        assert values.shape[0] == H + 1
        for b, dp in enumerate(plants):
            for k in range(H):
                fresh, fresh_values = synthesize(
                    dp, replace(weights, horizon=H - k), return_values=True)
                np.testing.assert_array_equal(values[k, b], fresh_values[0])
                np.testing.assert_array_equal(schedules[b].A_coef[k],
                                              fresh.A_coef[0])
            np.testing.assert_array_equal(values[H, b], values[H, 0])
        assert not np.array_equal(values[0], values[1])

    @pytest.mark.parametrize("return_values", [False, True])
    def test_singular_seeded_plant_named_by_step_controller_and_index(
            self, generic_config, return_values):
        dead, weights = _dead_second_input(generic_config)
        plants = _grid_plants(generic_config, ((0.0, 0.01), (0.02,)))
        with pytest.raises(CouplingSingularityError,
                           match="of plant 2 is singular at step 49 for "
                                 "controller 2") as err:
            synthesize_batch(plants + [dead], weights,
                             return_values=return_values)
        assert (err.value.plant, err.value.step, err.value.controller) == (
            2, 49, 2)
        with pytest.raises(CouplingSingularityError,
                           match="^stacked best-response system is singular "
                                 "at step 49 for controller 2") as err:
            synthesize(dead, weights, return_values=return_values)
        assert (err.value.plant, err.value.step, err.value.controller) == (
            0, 49, 2)

    @pytest.mark.parametrize("return_values", [False, True])
    def test_overflow_raises_at_the_same_step(self, generic_dp,
                                              return_values):
        # As in TestBatch: S(76) overflows, so step 75's system is not
        # finite, alone or behind another plant.
        unstable = discretize(ContinuousPlant(
            A=[[300.0, 0.0], [0.0, -1.0]], B=([[0.0], [1.0]], [[0.0], [2.0]]),
            delays=(0.01, 0.02), h=0.05))
        for plants, row in (([unstable], 0), ([generic_dp, unstable], 1)):
            with pytest.raises(NumericalError) as err:
                synthesize_batch(plants, eye_weights(2, 2, 100),
                                 return_values=return_values)
            assert type(err.value) is NumericalError
            assert str(err.value) == ("value recursion leaves the finite "
                                      "range at step 75")
            assert (err.value.step, err.value.row) == (75, row)


class TestGainSchedule:
    def test_gain_is_negated_coefficient_view(self, generic_dp,
                                              generic_config):
        sched = synthesize(generic_dp, generic_config.weights)
        k, i = 7, 1
        want = -np.hstack([sched.A_coef[k, i], sched.B_coef[k, i, 0],
                           sched.B_coef[k, i, 1]])
        np.testing.assert_array_equal(gain(sched, k, i), want)

    def test_non_finite_coefficients_rejected(self):
        A = np.zeros((2, 1, 1, 1))
        B = np.zeros((2, 1, 1, 1, 1))
        A[0] = np.inf
        with pytest.raises(ValidationError):
            GainSchedule(Scheme.PROPOSED, A, B)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            GainSchedule(Scheme.PROPOSED, np.zeros((2, 1, 1, 1)),
                         np.zeros((2, 2, 2, 1, 1)))
