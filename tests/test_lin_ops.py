import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from delay_lqgame import (
    ContinuousPlant,
    DimensionError,
    IntervalError,
    SingularMatrixError,
    ValidationError,
    compare_schemes,
    discretize,
    lin_ops,
    solve,
)
from delay_lqgame.lin_ops import mat_exp

from oracles import (
    exp_integral,
    lone_expm,
    series_expm,
    simpson_exp_integral,
)

A22 = np.array([[0.0, 1.0], [-3.0, -4.0]])


class TestMatExp:
    def test_zero_matrix_gives_identity(self):
        np.testing.assert_allclose(mat_exp(np.zeros((2, 2)), 1.0), np.eye(2),
                                   rtol=0, atol=1e-14)

    def test_scalar_case(self):
        out = mat_exp(np.array([[-1.0]]), 0.05)
        np.testing.assert_allclose(out, [[np.exp(-0.05)]], rtol=1e-14)

    def test_matches_series_oracle(self):
        got = mat_exp(A22, 0.05)
        want = series_expm(A22, 0.05)
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_t_zero_is_identity(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(4, 4))
        np.testing.assert_allclose(mat_exp(A, 0.0), np.eye(4), rtol=0,
                                   atol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_semigroup_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        A = rng.normal(size=(n, n))
        A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n)
        s, t = rng.uniform(0.01, 0.5, size=2)
        np.testing.assert_allclose(mat_exp(A, s) @ mat_exp(A, t),
                                   mat_exp(A, s + t), rtol=1e-9, atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            mat_exp(np.zeros((2, 3)), 1.0)

    @pytest.mark.parametrize("t", [np.inf, np.nan])
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(IntervalError, match=f"^t must be finite, got "
                                                f"{t}$"):
            mat_exp(A22, t)

    def test_overflowing_exponential_names_it(self):
        with pytest.raises(ValidationError) as err:
            mat_exp([[800.0]])
        assert str(err.value) == ("matrix exponential: e^(A t) at t = 1.0 "
                                  "overflows")


def _scaled_matrices(norm, count=6, seed=0):
    """Random matrices of 1-norm `norm`, sizes 1..6."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 7))
        A = rng.normal(size=(n, n))
        yield A * (norm / np.abs(A).sum(axis=0).max())


# 1-norms just inside each Pade degree's theta, where its truncation error
# is largest, then two that need 2 and 4 halvings.
PADE_NORMS = (1e-8, *(0.99 * theta for _, theta in lin_ops._THETA),
              0.99 * lin_ops._THETA_13, 12.0, 50.0)


class TestPadeExpm:
    @pytest.mark.parametrize("norm", PADE_NORMS, ids="{:.3g}".format)
    def test_matches_series_oracle(self, norm):
        for A in _scaled_matrices(norm, seed=int(norm * 1e3) % 97):
            want = series_expm(A)
            err = np.abs(mat_exp(A) - want).max() / np.abs(want).max()
            assert err <= 2e-14 * max(1.0, norm)

    def test_norms_reach_every_degree_and_the_squaring(self, monkeypatch):
        calls = []
        pade = lin_ops._pade

        def recording(A, m):
            # A is a stack: its largest 1-norm.
            calls.append((m, np.abs(A).sum(axis=-2).max()))
            return pade(A, m)

        monkeypatch.setattr(lin_ops, "_pade", recording)
        for norm in PADE_NORMS:
            for A in _scaled_matrices(norm, count=1):
                mat_exp(A)
        assert {m for m, _ in calls} == {3, 5, 7, 9, 13}
        # The largest norm reaches degree 13 only after scaling.
        assert calls[-1][0] == 13
        assert calls[-1][1] <= lin_ops._THETA_13 < 50.0

    @pytest.mark.parametrize("norm", PADE_NORMS, ids="{:.3g}".format)
    def test_matches_scipy_expm(self, norm):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        for A in _scaled_matrices(norm, seed=7):
            want = scipy_linalg.expm(A)
            err = np.abs(mat_exp(A) - want).max() / np.abs(want).max()
            assert err <= 1e-10


class TestStackedExpm:
    """A vector of times runs as one stacked pass per degree and squaring
    count; every exponential must equal its time's lone 2-D exponential
    bit for bit."""

    @pytest.mark.parametrize("norm", PADE_NORMS, ids="{:.3g}".format)
    def test_each_degree_equals_the_lone_exponential(self, norm):
        # A has 1-norm 1, so A t has 1-norm ~ t: every degree, and degree
        # 13 with no, 2 and 4 squarings.
        for A in _scaled_matrices(1.0, seed=5):
            lone = lone_expm(A, norm)
            np.testing.assert_array_equal(mat_exp(A, [norm])[0], lone)
            np.testing.assert_array_equal(mat_exp(A, norm), lone)

    def test_mixed_stack_with_repeats_and_zero(self, monkeypatch):
        stacks = []
        pade = lin_ops._pade

        def recording(A, m):
            stacks.append((m, len(A)))
            return pade(A, m)

        monkeypatch.setattr(lin_ops, "_pade", recording)
        rng = np.random.default_rng(17)
        times = [*PADE_NORMS, 0.0, PADE_NORMS[3], 50.0, 0.0]
        times = [times[k] for k in rng.permutation(len(times))]
        for A in _scaled_matrices(1.0, seed=9):
            stacks.clear()
            E = mat_exp(A, times)
            # One pass per (degree, squarings): degree 3 holds 1e-8, its
            # theta's time and both zeros, degree 7 its time twice, and
            # degree 13 runs with 0, 2 and 4 squarings, the last twice.
            assert sorted(stacks) == [(3, 4), (5, 1), (7, 2), (9, 1),
                                      (13, 1), (13, 1), (13, 2)]
            assert E.shape == (len(times), *A.shape)
            for got, t in zip(E, times):
                np.testing.assert_array_equal(got, lone_expm(A, t))
            assert np.array_equal(E[times.index(0.0)], np.eye(len(A)))

    def test_exp_and_integral_stack_equals_scalar_calls(self):
        times = [0.05, 0.03, 0.02, 0.05, 0.0, 4.0]
        shift, held = lin_ops.exp_and_integral(A22, times)
        assert shift.shape == held.shape == (len(times), 2, 2)
        aug = np.zeros((4, 4))
        aug[:2, :2] = A22
        aug[:2, 2:] = np.eye(2)
        for k, t in enumerate(times):
            one = lin_ops.exp_and_integral(A22, t)
            assert one[0].shape == one[1].shape == (2, 2)
            np.testing.assert_array_equal(shift[k], one[0])
            np.testing.assert_array_equal(held[k], one[1])
            np.testing.assert_array_equal(shift[k], lone_expm(aug, t)[:2, :2])
            np.testing.assert_array_equal(held[k], lone_expm(aug, t)[:2, 2:])

    def test_overflow_names_the_first_overflowing_time(self):
        with pytest.raises(ValidationError) as err:
            mat_exp([[800.0]], [0.5, 1.0, 2.0])
        assert str(err.value) == ("matrix exponential: e^(A t) at t = 1.0 "
                                  "overflows")

    def test_norm_overflow_names_its_time(self):
        big = [[1e308, 1e308], [1e308, 1e308]]
        # At t = 0.25 the 1-norm is finite and the squares overflow; at
        # t = 1.0 the 1-norm itself does.  Each is named, the first first.
        for times, name in (([1.0], "1.0"), ([0.25], "0.25"),
                            ([1.0, 0.25], "1.0"), ([0.25, 1.0], "0.25")):
            with pytest.raises(ValidationError) as err:
                mat_exp(big, times)
            assert str(err.value) == (f"matrix exponential: e^(A t) at "
                                      f"t = {name} overflows")

    def test_non_finite_time_in_a_stack(self):
        with pytest.raises(IntervalError, match="^t must be finite, got "
                                                "nan$"):
            mat_exp(A22, [0.05, np.nan, np.inf])


class TestExpIntegral:
    def test_zero_matrix(self):
        out = exp_integral(np.zeros((3, 3)), 0.0, 0.75)
        np.testing.assert_allclose(out, 0.75 * np.eye(3), rtol=0, atol=1e-14)

    def test_scalar_antiderivative(self):
        a = -2.0
        out = exp_integral(np.array([[a]]), 0.03, 0.05)
        want = (np.exp(a * 0.05) - np.exp(a * 0.03)) / a
        np.testing.assert_allclose(out, [[want]], rtol=1e-12)

    def test_matches_quadrature_oracle(self):
        got = exp_integral(A22, 0.0, 0.05)
        want = simpson_exp_integral(A22, 0.0, 0.05, tol=1e-11)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_additive_over_adjacent_intervals(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 6))
        A = rng.normal(size=(n, n))
        a, b, c = np.sort(rng.uniform(0.0, 0.4, size=3))
        lhs = exp_integral(A, a, b) + exp_integral(A, b, c)
        np.testing.assert_allclose(lhs, exp_integral(A, a, c), rtol=0,
                                   atol=1e-10)

    def test_derivative_is_exponential(self):
        # d/db of the cumulative integral, one-sided finite difference.
        b, eps = 0.3, 1e-6
        fd = (exp_integral(A22, 0.0, b + eps) - exp_integral(A22, 0.0, b)) / eps
        np.testing.assert_allclose(fd, mat_exp(A22, b), rtol=0, atol=1e-6)

    def test_empty_interval_is_exactly_zero(self):
        out = exp_integral(A22, 0.05, 0.05)
        assert np.all(out == 0.0)

    def test_rejects_reversed_interval(self):
        with pytest.raises(IntervalError):
            exp_integral(A22, 0.05, 0.01)

    def test_rejects_negative_start(self):
        with pytest.raises(IntervalError):
            exp_integral(A22, -0.01, 0.05)


class TestSolve:
    def test_identity(self):
        B = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(solve(np.eye(3), B), B)

    def test_diagonal(self):
        out = solve(np.diag([2.0, 4.0]), np.array([[2.0], [8.0]]))
        np.testing.assert_allclose(out, [[1.0], [2.0]], rtol=1e-14)

    def test_multiply_then_solve_round_trip(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(5, 5)) + 5.0 * np.eye(5)
        X = rng.normal(size=(5, 3))
        got = solve(A, A @ X)
        np.testing.assert_allclose(got, X, rtol=1e-9)

    def test_residual_contract(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(6, 6)) + 6.0 * np.eye(6)
        B = rng.normal(size=(6, 2))
        X = solve(A, B)
        resid = np.abs(A @ X - B).max()
        assert resid <= 1e-10 * (1.0 + np.abs(B).max())

    def test_conditioned_up_to_1e6(self):
        rng = np.random.default_rng(9)
        U, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        V, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        A = U @ np.diag(np.logspace(0, -6, 5)) @ V.T
        X = rng.normal(size=(5, 2))
        np.testing.assert_allclose(solve(A, A @ X), X, rtol=1e-9, atol=1e-9)

    def test_singular_reports_pivot(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError) as err:
            solve(A, np.eye(2))
        assert err.value.pivot <= 1e-12 * 4.0

    def test_singular_reports_pivot_position(self):
        # Column 1 is all zeros, so U's second diagonal entry is the zero.
        A = np.array([[2.0, 0.0, 1.0], [1.0, 0.0, 3.0], [4.0, 0.0, 5.0]])
        with pytest.raises(SingularMatrixError) as err:
            solve(A, np.eye(3))
        assert err.value.index == 1
        assert err.value.pivot == 0.0

    def test_zero_matrix_is_singular(self):
        with pytest.raises(SingularMatrixError):
            solve(np.zeros((2, 2)), np.eye(2))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            solve(np.eye(2), np.ones((3, 1)))

    def test_no_right_hand_side_columns(self):
        assert solve(np.eye(3), np.zeros((3, 0))).shape == (3, 0)


def _bits(X):
    return X.shape, X.tobytes()


def _each_alone(A, B):
    """The stack's systems solved one 2-D call at a time."""
    n, m = B.shape[-2:]
    X = [solve(a, b) for a, b in zip(A.reshape(-1, n, n), B.reshape(-1, n, m))]
    return np.array(X).reshape(B.shape)


def _failing_stack(singular, non_finite):
    """Five 3 x 3 systems: one with a zero column, one with a NaN in B."""
    A = np.tile(np.eye(3), (5, 1, 1))
    B = np.ones((5, 3, 2))
    A[singular, :, 1] = 0.0
    B[non_finite, 2, 0] = np.nan
    return A, B


class TestStackedSolve:
    @pytest.mark.parametrize("preset", ["generic", "lfc"])
    def test_every_preset_system_equals_its_2d_solve(self, monkeypatch,
                                                     preset, generic_config,
                                                     lfc_config):
        config = generic_config if preset == "generic" else lfc_config
        stacks = []

        solve_into = lin_ops.solve_into

        def recording(systems, out):
            solve_into(systems, out)
            stacks.append((systems.copy(), out.copy()))

        monkeypatch.setattr(lin_ops, "solve_into", recording)
        compare_schemes(config)
        # solve runs through solve_into too, so unpatch before solving.
        monkeypatch.undo()
        assert len(stacks) == config.weights.horizon
        for systems, X in stacks:
            n = systems.shape[-2]
            A, B = systems[..., :n], systems[..., n:]
            assert _bits(X) == _bits(_each_alone(A, B))

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("lead", [(64,), (4, 3)])
    def test_seeded_stacks_equal_their_2d_solves(self, n, lead):
        rng = np.random.default_rng(100 + n)
        A = rng.normal(size=lead + (n, n))
        B = rng.normal(size=lead + (n, n + 7))
        assert _bits(solve(A, B)) == _bits(_each_alone(A, B))

    def test_2d_input_is_the_stack_of_one(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
        B = rng.normal(size=(3, 4))
        assert _bits(solve(A, B)) == _bits(solve(A[None], B[None])[0])

    def test_singular_row_before_non_finite_row_wins(self):
        with pytest.raises(SingularMatrixError) as err:
            solve(*_failing_stack(singular=1, non_finite=3))
        assert (err.value.row, err.value.index, err.value.pivot) == (1, 1,
                                                                     0.0)

    def test_non_finite_row_before_singular_row_wins(self):
        with pytest.raises(DimensionError, match="non-finite") as err:
            solve(*_failing_stack(singular=3, non_finite=1))
        assert err.value.row == 1

    def test_2d_failure_is_row_0(self):
        with pytest.raises(SingularMatrixError) as err:
            solve(np.zeros((2, 2)), np.eye(2))
        assert err.value.row == 0

    def test_leading_axes_must_match(self):
        with pytest.raises(DimensionError):
            solve(np.ones((3, 2, 2)), np.ones((2, 2, 1)))

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((0, 0), (0, 1)), ((2, 0, 0), (2, 0, 3)), ((0, 2, 2), (0, 2, 1))])
    def test_empty_systems_give_an_empty_x_shaped_like_b(self, a_shape,
                                                         b_shape):
        X = solve(np.zeros(a_shape), np.zeros(b_shape))
        assert X.shape == b_shape
        assert X.dtype == np.float64


def _systems(A, B):
    return np.concatenate((A, B), axis=-1)


class TestSolveInto:
    """The entry that solves a stack of [A | B] systems into ``out``."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("batch", [1, 33])
    def test_equals_solve_bit_for_bit(self, n, batch):
        rng = np.random.default_rng(200 + 10 * n + batch)
        A = rng.normal(size=(batch, n, n))
        # Column 0 is +-1 in every row, so the first pivot ties between all
        # rows and the first of them is swapped up.
        A[..., 0] = rng.choice([-1.0, 1.0], size=(batch, n))
        B = rng.normal(size=(batch, n, n + 3))
        out = np.full(B.shape, np.nan)
        lin_ops.solve_into(_systems(A, B), out)
        assert _bits(out) == _bits(solve(A, B))
        assert _bits(out) == _bits(_each_alone(A, B))

    def test_singular_row_before_non_finite_row_wins(self):
        with pytest.raises(SingularMatrixError) as err:
            lin_ops.solve_into(
                _systems(*_failing_stack(singular=1, non_finite=3)),
                np.empty((5, 3, 2)))
        assert (err.value.row, err.value.index, err.value.pivot) == (1, 1,
                                                                     0.0)

    def test_non_finite_row_before_singular_row_wins(self):
        with pytest.raises(DimensionError, match="non-finite") as err:
            lin_ops.solve_into(
                _systems(*_failing_stack(singular=3, non_finite=1)),
                np.empty((5, 3, 2)))
        assert err.value.row == 1

    @pytest.mark.parametrize("column", [0, 1, 2, 3])
    def test_zero_column_is_reported_at_its_position(self, column):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(3, 4, 4))
        A[2, :, column] = 0.0
        with pytest.raises(SingularMatrixError) as err:
            lin_ops.solve_into(_systems(A, np.eye(4)[None].repeat(3, 0)),
                               np.empty((3, 4, 4)))
        assert (err.value.row, err.value.index, err.value.pivot) == (
            2, column, 0.0)


def _pivot_cases():
    rng = np.random.default_rng(21)
    for n in (2, 3, 4, 6, 9):
        yield "random", rng.normal(size=(n, n))
        # A row permutation of a triangular matrix with a dominant
        # diagonal: the pivots must undo the permutation.
        T = np.triu(rng.normal(size=(n, n))) + 4.0 * np.eye(n)
        yield "permuted", T[rng.permutation(n)]
        # Rank n-1 plus noise: one pivot near 1e-14 relative.
        U, _ = np.linalg.qr(rng.normal(size=(n, n)))
        V, _ = np.linalg.qr(rng.normal(size=(n, n)))
        s = np.r_[rng.uniform(1.0, 2.0, n - 1), 1e-14]
        yield "near-singular", U @ np.diag(s) @ V.T


class TestPivotAgreesWithLapack:
    @pytest.mark.parametrize("kind,A", list(_pivot_cases()),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_smallest_pivot_position(self, monkeypatch, kind, A):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        lu, _ = scipy_linalg.lu_factor(A)
        pivots = np.abs(np.diag(lu))
        # An infinite threshold makes every solve report its smallest pivot.
        monkeypatch.setattr(lin_ops, "PIVOT_RTOL", np.inf)
        with pytest.raises(SingularMatrixError) as err:
            solve(A, np.eye(A.shape[0]))
        assert err.value.index == int(pivots.argmin())
        assert err.value.pivot == pytest.approx(pivots.min(), rel=1e-6,
                                                abs=1e-15)


class TestAugmentedDiscretization:
    def test_zero_delay_gamma1_is_positive_zero(self):
        plant = ContinuousPlant(A=A22, B=([[0.0], [1.0]], [[0.5], [-2.0]]),
                                delays=(0.0, 0.01), h=0.05)
        dp = discretize(plant)
        assert np.all(dp.Gamma1[0] == 0.0)
        assert not np.any(np.signbit(dp.Gamma1[0]))
        assert np.all(dp.Gamma1[1] != 0.0)

    @pytest.mark.parametrize("delays,calls", [((0.01, 0.02), 5),
                                              ((0.01, 0.01), 3),
                                              ((0.0, 0.02), 3),
                                              ((0.0, 0.0), 1)])
    def test_one_exponential_per_distinct_time(self, monkeypatch, delays,
                                               calls):
        # One stacked exponential call, holding each distinct time once.
        stacks = []
        exp = lin_ops.mat_exp

        def counting(A, t=1.0):
            stacks.append(list(t))
            return exp(A, t)

        monkeypatch.setattr(lin_ops, "mat_exp", counting)
        B = ([[0.0], [1.0]], [[0.0], [1.0]])
        discretize(ContinuousPlant(A=A22, B=B, delays=delays, h=0.05))
        [times] = stacks
        assert len(times) == len(set(times)) == calls

    def test_split_conservation_check_is_independent(self, monkeypatch):
        # Gamma1 comes from its own exponentials, so corrupting the one at
        # t = tau must trip the conservation check.
        exp = lin_ops.mat_exp

        def corrupt(A, t=1.0):
            E = exp(A, t)
            E[np.asarray(t) == 0.01] *= 1.001
            return E

        monkeypatch.setattr(lin_ops, "mat_exp", corrupt)
        plant = ContinuousPlant(A=A22, B=([[0.0], [1.0]],), delays=(0.01,),
                                h=0.05)
        with pytest.raises(ValidationError, match="delay-split conservation"):
            discretize(plant)


def test_cli_import_loads_no_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, delay_lqgame.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], cwd=src,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"

