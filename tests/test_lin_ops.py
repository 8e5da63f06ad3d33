import numpy as np
import pytest

from delay_lqgame import (
    DimensionError,
    IntervalError,
    SingularMatrixError,
    exp_integral,
    mat_exp,
    solve,
)

from oracles import series_expm, simpson_exp_integral

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

