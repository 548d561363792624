import numpy as np
import pytest

import triosplit.prox as prox_mod
from triosplit.datagen import DctSpec, gen_dct_matrix
from triosplit.linalg import ObservationSet
from triosplit.prox import (GramSolver, grad_frobenius_reg, grad_neg_l2,
                            prox_masked_quadratic, rank_projection,
                            soft_threshold)

from oracles import (augmented_least_squares, finite_difference_gradient,
                     prox_by_gradient_descent, scalar_prox_by_grid)


class TestSoftThreshold:
    def test_componentwise_shrinkage(self):
        out = soft_threshold([3.0, -1.0, 0.2], 1.0)
        assert np.allclose(out, [2.0, 0.0, 0.0])

    def test_identity_at_zero_threshold(self):
        v = np.array([0.4, -2.0, 0.0, 7.5])
        assert np.array_equal(soft_threshold(v, 0.0), v)

    def test_matches_variational_grid_oracle(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(10)
        kappa = 0.3
        out = soft_threshold(v, kappa)
        for i in range(10):
            ref = scalar_prox_by_grid(lambda z: kappa * np.abs(z), v[i], 1.0,
                                      -abs(v[i]) - 1.0, abs(v[i]) + 1.0)
            assert abs(out[i] - ref) < 1e-8

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold([1.0], -0.1)

    def test_nonexpansive(self):
        rng = np.random.default_rng(1)
        u, v = rng.standard_normal(30), rng.standard_normal(30)
        for kappa in (0.0, 0.1, 2.0):
            d = np.linalg.norm(soft_threshold(u, kappa) - soft_threshold(v, kappa))
            assert d <= np.linalg.norm(u - v) + 1e-12


class TestRankProjection:
    def test_diagonal_truncation(self):
        out = rank_projection(np.diag([3.0, 2.0, 1.0]), 2)
        assert np.allclose(out, np.diag([3.0, 2.0, 0.0]), atol=1e-10)

    def test_fixed_point_on_low_rank_input(self):
        rng = np.random.default_rng(2)
        Y = rng.standard_normal((12, 4)) @ rng.standard_normal((4, 9))
        assert np.allclose(rank_projection(Y, 4), Y, atol=1e-10)

    def test_matches_dense_truncation_oracle(self):
        rng = np.random.default_rng(3)
        Y = rng.standard_normal((20, 15))
        U, s, Vt = np.linalg.svd(Y, full_matrices=False)
        ref = (U[:, :3] * s[:3]) @ Vt[:3]
        assert np.max(np.abs(rank_projection(Y, 3) - ref)) < 1e-8

    def test_output_rank_bounded(self):
        rng = np.random.default_rng(4)
        out = rank_projection(rng.standard_normal((30, 30)), 5)
        s = np.linalg.svd(out, compute_uv=False)
        assert s[5] < 1e-8 * s[0]

    def test_never_increases_distance_among_candidates(self):
        # projection onto the rank set: no sampled rank-r matrix is closer
        rng = np.random.default_rng(5)
        Y = rng.standard_normal((10, 8))
        P = rank_projection(Y, 2)
        base = np.linalg.norm(Y - P)
        for _ in range(50):
            Q = rng.standard_normal((10, 2)) @ rng.standard_normal((2, 8))
            assert np.linalg.norm(Y - Q) >= base - 1e-9


class TestProxMaskedQuadratic:
    def test_empty_mask_is_identity(self):
        rng = np.random.default_rng(20)
        X = rng.standard_normal((4, 4))
        empty = ObservationSet([], [], [], (4, 4))
        assert np.array_equal(prox_masked_quadratic(X, empty, 0.5), X)

    def test_unchanged_when_fit(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((5, 5))
        obs = ObservationSet([0, 2], [1, 3], X[[0, 2], [1, 3]], (5, 5))
        assert np.allclose(prox_masked_quadratic(X, obs, 0.7), X, atol=1e-15)

    def test_off_mask_passthrough(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((6, 6))
        obs = ObservationSet([1], [1], [5.0], (6, 6))
        out = prox_masked_quadratic(X, obs, 0.25)
        mask = np.ones((6, 6), dtype=bool)
        mask[1, 1] = False
        assert np.array_equal(out[mask], X[mask])
        assert out[1, 1] == pytest.approx((X[1, 1] + 0.25 * 5.0) / 1.25)

    def test_matches_gradient_descent_oracle(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((6, 5))
        lin = rng.choice(30, size=12, replace=False)
        lin.sort()
        r, c = np.unravel_index(lin, (6, 5))
        obs = ObservationSet(r, c, rng.standard_normal(12), (6, 5))
        gamma = 0.1
        out = prox_masked_quadratic(X, obs, gamma)

        def grad(U):
            g = (U - X) / gamma
            g[obs.rows, obs.cols] += U[obs.rows, obs.cols] - obs.values
            return g

        ref = prox_by_gradient_descent(grad, X, steps=2000, lr=gamma / (1.0 + gamma))
        assert np.max(np.abs(out - ref)) < 1e-7

    def test_gamma_must_be_positive(self):
        obs = ObservationSet([0], [0], [1.0], (2, 2))
        with pytest.raises(ValueError):
            prox_masked_quadratic(np.zeros((2, 2)), obs, 0.0)


class TestProxLeastSquares:
    def test_identity_matrix_decouples(self):
        rng = np.random.default_rng(9)
        b, x = rng.standard_normal(6), rng.standard_normal(6)
        gamma = 0.8
        out = GramSolver(np.eye(6)).solve(1.0 / gamma, b + x / gamma)
        assert np.allclose(out, (b + x / gamma) / (1.0 + 1.0 / gamma), atol=1e-12)

    def test_stationary_at_consistent_data(self):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((12, 7))
        x = rng.standard_normal(7)
        out = GramSolver(A).solve(1.0 / 3.0, A.T @ (A @ x) + x / 3.0)
        assert np.allclose(out, x, atol=1e-9)

    def test_first_order_optimality(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((8, 20))
        b = rng.standard_normal(8)
        x = rng.standard_normal(20)
        gamma = 0.5
        y = GramSolver(A).solve(1.0 / gamma, A.T @ b + x / gamma)
        resid = A.T @ (A @ y - b) + (y - x) / gamma
        assert np.linalg.norm(resid) < 1e-9

    @pytest.mark.parametrize("shape", [(25, 10), (10, 25)])
    def test_normal_system_residual_tiny_both_routes(self, shape):
        rng = np.random.default_rng(12)
        A = rng.standard_normal(shape)
        solver = GramSolver(A)
        rhs = rng.standard_normal(shape[1])
        mu = 2.0
        y = solver.solve(mu, rhs)
        rel = np.linalg.norm(A.T @ (A @ y) + mu * y - rhs) / np.linalg.norm(rhs)
        assert rel < 1e-10

    def test_factor_cache_reused(self, monkeypatch):
        factored, factor = [], prox_mod.cho_factor
        monkeypatch.setattr(prox_mod, "cho_factor", lambda G: factored.append(G) or factor(G))
        rng = np.random.default_rng(13)
        for shape in ((9, 14), (14, 9)):  # wide and tall
            factored.clear()
            solver = GramSolver(rng.standard_normal(shape))
            n = shape[1]
            r1 = solver.solve(0.5, rng.standard_normal(n))
            r2 = solver.solve(0.5, rng.standard_normal(n))
            assert len(factored) == 1  # the second solve at 0.5 reuses the factor
            assert solver._cache[0] == 0.5
            solver.solve(0.25, rng.standard_normal(n))
            assert len(factored) == 2 and solver._cache[0] == 0.25
            assert np.array_equal(solver.solve(0.5, np.zeros(n)), np.zeros(n))
            assert len(factored) == 3  # only the latest step size is held
            assert np.isfinite(r1).all() and np.isfinite(r2).all()

    @pytest.mark.parametrize("shape", [(9, 14), (14, 9)], ids=["wide", "tall"])
    @pytest.mark.parametrize("mu", [np.nan, np.inf, -np.inf])
    def test_non_finite_step_size_rejected(self, shape, mu):
        rng = np.random.default_rng(16)
        solver = GramSolver(rng.standard_normal(shape))
        with pytest.raises(ValueError):
            solver.solve(mu, rng.standard_normal(shape[1]))


class TestGramSolverAccuracy:
    """The one-pass wide solve on a coherent frame, at the step sizes the
    sensing solvers use (mu = 1/gamma for dys_l12, mu = rho for the
    multiplier methods)."""

    @staticmethod
    def _frame():
        # oversampled cosine frame, mutual coherence above 0.99
        return gen_dct_matrix(DctSpec(40, 300, 10), seed=0)

    @pytest.mark.parametrize("mu", [1e-5, 1e-4, 1e-3])
    def test_forward_error_against_augmented_least_squares(self, mu):
        A = self._frame()
        rng = np.random.default_rng(21)
        b, x = rng.standard_normal(40), rng.standard_normal(300)
        y = GramSolver(A).solve(mu, A.T @ b + mu * x)
        ref = augmented_least_squares(A, b, x, mu)
        assert np.linalg.norm(y - ref) / np.linalg.norm(ref) < 1e-10

    def test_switching_step_sizes_matches_fresh_solver(self):
        A = self._frame()
        rng = np.random.default_rng(22)
        solver = GramSolver(A)
        for mu in (1e-3, 1e-4, 1e-3):
            rhs = rng.standard_normal(300)
            assert np.array_equal(solver.solve(mu, rhs), GramSolver(A).solve(mu, rhs))
        # one m x n operator, for the latest step size
        mu, W = solver._cache
        assert mu == 1e-3
        assert W.shape == (40, 300)

    @pytest.mark.parametrize("mu", [1e-5, 1e-4, 1e-3])
    @pytest.mark.parametrize("shape", [(100, 1500), (300, 40)], ids=["100x1500", "300x40"])
    def test_forward_error_at_sensing_size_and_tall(self, shape, mu):
        # the benchmark's sensing frame, and the tall path on the transposed
        # 40 x 300 frame
        m, n = min(shape), max(shape)
        A = gen_dct_matrix(DctSpec(m, n, 10), seed=0)
        A = A if shape == (m, n) else A.T
        rng = np.random.default_rng(21)
        b, x = rng.standard_normal(shape[0]), rng.standard_normal(shape[1])
        y = GramSolver(A).solve(mu, A.T @ b + mu * x)
        ref = augmented_least_squares(A, b, x, mu)
        assert np.linalg.norm(y - ref) / np.linalg.norm(ref) < 1e-10


class TestGradients:
    def test_quadratic_reg_zero_cases(self):
        assert np.array_equal(grad_frobenius_reg(np.zeros((3, 3)), 2.0), np.zeros((3, 3)))
        X = np.ones((2, 2))
        assert np.array_equal(grad_frobenius_reg(X, 0.0), np.zeros((2, 2)))

    def test_quadratic_reg_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((4, 3))
        lam = 1.5e-6
        g = grad_frobenius_reg(X, lam)
        ref = finite_difference_gradient(lambda U: 0.5 * lam * np.sum(U ** 2), X, h=1e-4)
        assert np.max(np.abs(g - ref)) < 1e-6 * max(1.0, np.max(np.abs(ref)))

    def test_neg_l2_unit_vector(self):
        e1 = np.array([1.0, 0.0, 0.0])
        assert np.allclose(grad_neg_l2(e1, 1.0), -e1)

    def test_neg_l2_origin_convention(self):
        assert np.array_equal(grad_neg_l2(np.zeros(4), 2.0), np.zeros(4))

    def test_neg_l2_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        y = rng.standard_normal(6) + 2.0
        lam = 1e-5
        g = grad_neg_l2(y, lam)
        ref = finite_difference_gradient(lambda u: -lam * np.linalg.norm(u), y, h=1e-6)
        assert np.max(np.abs(g - ref)) < 1e-5 * np.max(np.abs(ref))


class TestProxVariationalConsistency:
    """Every prox output must beat nearby perturbations on its objective."""

    @staticmethod
    def _check(f, prox_out, x, gamma, rng, radius=0.01, samples=100):
        best = f(prox_out) + np.linalg.norm(prox_out - x) ** 2 / (2 * gamma)
        for _ in range(samples):
            q = prox_out + radius * rng.standard_normal(prox_out.shape)
            val = f(q) + np.linalg.norm(q - x) ** 2 / (2 * gamma)
            assert best <= val + 1e-9

    def test_soft_threshold(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal(8)
        gamma, kappa = 0.7, 0.3
        out = soft_threshold(x, gamma * kappa)
        self._check(lambda v: kappa * np.sum(np.abs(v)), out, x, gamma, rng)

    def test_masked_quadratic(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((5, 4))
        obs = ObservationSet([0, 2, 4], [1, 3, 0], rng.standard_normal(3), (5, 4))
        gamma = 0.4
        out = prox_masked_quadratic(x, obs, gamma)
        self._check(lambda U: 0.5 * np.sum((U[obs.rows, obs.cols] - obs.values) ** 2),
                    out, x, gamma, rng)

    def test_least_squares(self):
        rng = np.random.default_rng(18)
        A = rng.standard_normal((6, 10))
        b = rng.standard_normal(6)
        x = rng.standard_normal(10)
        gamma = 0.9
        out = GramSolver(A).solve(1.0 / gamma, A.T @ b + x / gamma)
        self._check(lambda v: 0.5 * np.sum((A @ v - b) ** 2), out, x, gamma, rng)

    def test_rank_projection_against_svd_oracle(self):
        # nonconvex set: verified against the dense truncation instead of sampling
        rng = np.random.default_rng(19)
        Y = rng.standard_normal((9, 7))
        U, s, Vt = np.linalg.svd(Y, full_matrices=False)
        ref = (U[:, :2] * s[:2]) @ Vt[:2]
        assert np.max(np.abs(rank_projection(Y, 2) - ref)) < 1e-8
