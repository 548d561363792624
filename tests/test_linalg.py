import tracemalloc

import numpy as np
import pytest

from triosplit import linalg
from triosplit.datagen import DctSpec, gen_dct_matrix
from triosplit.linalg import (ObservationSet, TruncatedSvdError,
                              gram_spectral_norm, masked_relative_residual,
                              truncated_svd)

from oracles import jacobi_svd, tail_norm, two_sided_subspace_sweeps


def random_obs(rng, rows, cols, count):
    lin = rng.choice(rows * cols, size=count, replace=False)
    lin.sort()
    r, c = np.unravel_index(lin, (rows, cols))
    return ObservationSet(r, c, rng.standard_normal(count), (rows, cols))


class TestFiniteness:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_nonfinite_value_is_rejected(self, bad):
        A = np.ones((5, 6))
        A[3, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            linalg.as_matrix(A)
        with pytest.raises(ValueError, match="finite"):
            linalg.as_vector(A[3])

    def test_empty_arrays_are_finite(self):
        assert linalg.as_matrix(np.zeros((0, 4))).shape == (0, 4)
        assert linalg.as_vector(np.zeros(0)).shape == (0,)

    def test_the_check_forms_no_full_size_temporary(self):
        A = np.random.default_rng(11).standard_normal((600, 800))
        tracemalloc.start()
        try:
            linalg.as_matrix(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * A.nbytes


class TestObservationSet:
    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValueError, match="bounds"):
            ObservationSet([0, 3], [0, 0], [1.0, 2.0], (3, 3))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="unique"):
            ObservationSet([0, 0], [1, 1], [1.0, 2.0], (3, 3))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            ObservationSet([0], [1, 2], [1.0, 2.0], (3, 3))

    def test_rejects_nonfinite_values(self):
        with pytest.raises(ValueError, match="finite"):
            ObservationSet([0], [0], [np.nan], (3, 3))

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_flat_index_reads_and_writes_the_observed_entries(self, layout):
        rng = np.random.default_rng(14)
        obs = random_obs(rng, 9, 7, 20)
        X = rng.standard_normal((9, 7))
        X = {"C": X, "F": np.asfortranarray(X),
             "strided": rng.standard_normal((18, 21))[::2, ::3]}[layout]
        assert np.array_equal(obs.flat, obs.rows * 7 + obs.cols)
        assert np.array_equal(X.take(obs.flat), X[obs.rows, obs.cols])
        out, ref = X.copy(), X.copy()  # the solvers write into a fresh C-ordered copy
        out.reshape(-1)[obs.flat] = obs.values
        ref[obs.rows, obs.cols] = obs.values
        assert np.array_equal(out, ref)

    def test_flat_index_of_an_empty_set(self):
        obs = ObservationSet([], [], [], (4, 4))
        assert obs.flat.shape == (0,)
        assert np.zeros((4, 4)).take(obs.flat).shape == (0,)


class TestTruncatedSvd:
    def test_identity_singular_values(self):
        t = truncated_svd(np.eye(3), 2)
        assert np.allclose(t.S, [1.0, 1.0])

    def test_diagonal_matrix(self):
        t = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
        assert np.allclose(t.S, [3.0, 2.0])
        # singular vectors are coordinate axes up to sign
        assert np.allclose(np.abs(t.U), np.eye(3)[:, :2], atol=1e-12)
        assert np.allclose(np.abs(t.V), np.eye(3)[:, :2], atol=1e-12)

    def test_matches_jacobi_oracle_on_dense_path(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((50, 40))
        t = truncated_svd(A, 5)
        _, s_ref, _ = jacobi_svd(A)
        assert np.max(np.abs(t.S - s_ref[:5])) < 1e-8

    def test_randomized_path_matches_jacobi_oracle(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((90, 70))
        t = truncated_svd(A, 5, dense_cutoff=0)
        _, s_ref, _ = jacobi_svd(A)
        assert np.max(np.abs(t.S - s_ref[:5])) < 1e-8

    @pytest.mark.parametrize("shape,k", [((60, 45), 4), ((40, 60), 6)])
    def test_orthonormal_factors_and_ordering(self, shape, k):
        rng = np.random.default_rng(11)
        A = rng.standard_normal(shape)
        t = truncated_svd(A, k, dense_cutoff=0)
        assert np.allclose(t.U.T @ t.U, np.eye(k), atol=1e-10)
        assert np.allclose(t.V.T @ t.V, np.eye(k), atol=1e-10)
        assert np.all(np.diff(t.S) <= 1e-12)
        assert np.all(t.S >= 0)

    def test_reconstruction_error_equals_tail_norm(self):
        rng = np.random.default_rng(3)
        for shape, k in [((60, 60), 3), ((45, 30), 7), ((33, 58), 2)]:
            A = rng.standard_normal(shape)
            t = truncated_svd(A, k, dense_cutoff=0)
            err = np.linalg.norm(A - t.reconstruct())
            assert abs(err - tail_norm(A, k)) < 1e-7

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((80, 70))
        t1 = truncated_svd(A, 4, dense_cutoff=0)
        t2 = truncated_svd(A, 4, dense_cutoff=0)
        assert np.array_equal(t1.U, t2.U)
        assert np.array_equal(t1.S, t2.S)
        assert np.array_equal(t1.V, t2.V)

    def test_invalid_k(self):
        with pytest.raises(ValueError, match="k="):
            truncated_svd(np.eye(4), 0)
        with pytest.raises(ValueError, match="k="):
            truncated_svd(np.eye(4), 5)

    def test_sweep_cap_raises_with_residual(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((80, 70))
        with pytest.raises(TruncatedSvdError) as info:
            truncated_svd(A, 3, tol=1e-30, dense_cutoff=0, max_sweeps=2)
        assert info.value.residual > 0

    def test_rejects_nonfinite(self):
        A = np.eye(4)
        A[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            truncated_svd(A, 1)


class TestTruncatedSvdStart:
    @staticmethod
    def known_spectrum(n=300, seed=21, top=(10.0, 9.0, 8.0)):
        rng = np.random.default_rng(seed)
        s = np.concatenate([top, np.linspace(5.0, 1.0, n - 3)])
        U = np.linalg.qr(rng.standard_normal((n, n)))[0]
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        return (U * s) @ V.T, U, s, V

    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
    def test_start_orthogonal_to_top_vector_finds_it(self, tol):
        # a full-width start spanning v2..v12 misses v1 entirely; without the
        # Gaussian blend the values settle on 9, 8, 5 after two sweeps
        A, U, s, V = self.known_spectrum()
        t = truncated_svd(A, 3, tol=tol, start=V[:, 1:12])
        assert np.max(np.abs(t.S - s[:3])) < 10 * tol * s[0]
        for got, ref in ((t.U, U[:, :3]), (t.V, V[:, :3])):
            assert np.linalg.norm(got @ got.T - ref @ ref.T) < 1e-3

    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10, 1e-12])
    def test_start_orthogonal_to_near_tied_top_vector_finds_it(self, tol):
        A, U, s, V = self.known_spectrum(top=(5.5, 5.4, 5.3))
        t = truncated_svd(A, 3, tol=tol, start=V[:, 1:12])
        assert np.max(np.abs(t.S - s[:3])) < 10 * tol * s[0]

    def test_cold_call_sweeps_no_more_than_two_sided_iteration(self):
        # costs in matrix-vector products, a width-p block product counting
        # p: the two-sided iteration makes p (2 sweeps + 2), and the block
        # iteration with a Chebyshev filter that Lanczos replaced made 546
        # and 1240 here (42 and 62 block products at p = 13 and 20)
        rng = np.random.default_rng(8)
        for shape, k, filtered in [((120, 90), 5, 546), ((200, 260), 12, 1240)]:
            A = rng.standard_normal(shape)
            t = truncated_svd(A, k, dense_cutoff=0)
            sweeps, top = two_sided_subspace_sweeps(A, k)
            assert t.products <= min(filtered, (k + 8) * (2 * sweeps + 2))
            assert np.max(np.abs(t.S - top)) < 1e-8 * top[0]

    def test_returns_exit_basis_and_accepts_any_start_width(self):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((90, 70))
        t = truncated_svd(A, 4, dense_cutoff=0)
        assert t.basis.shape == (70, 12)
        assert np.allclose(t.basis.T @ t.basis, np.eye(12), atol=1e-10)
        assert np.array_equal(t.basis[:, :4], t.V)
        # a call without a floor starts from the sum of the start's first p
        # columns, and its values agree whatever the start's width
        for start in (t.basis[:, :4], t.basis, np.hstack([t.basis, t.basis])):
            w = truncated_svd(A, 4, dense_cutoff=0, start=start)
            assert np.max(np.abs(w.S - t.S)) < 1e-8 * t.S[0]
        assert truncated_svd(A[:, :50], 4).basis is None  # dense path
        with pytest.raises(ValueError, match="rows"):
            truncated_svd(A, 4, dense_cutoff=0, start=t.basis[:60])

    def test_start_summing_to_zero_starts_cold(self):
        # Lanczos starts from the sum of the start's columns
        A = np.random.default_rng(11).standard_normal((90, 80))
        cold = truncated_svd(A, 3, dense_cutoff=0)
        ones = np.ones((80, 1))
        for start in (np.zeros((80, 11)), np.hstack([ones, -ones])):
            t = truncated_svd(A, 3, dense_cutoff=0, start=start)
            assert np.max(np.abs(t.S - cold.S)) < 1e-8 * cold.S[0]


class TestTruncatedSvdFloor:
    @staticmethod
    def straddling(m=120, n=100, seed=3):
        # values at 1.02 and 0.98 of the floor 1, with a tail below
        rng = np.random.default_rng(seed)
        s = np.concatenate([[4.0, 3.0, 2.0, 1.5, 1.02, 0.98], np.linspace(0.9, 0.01, n - 6)])
        U = np.linalg.qr(rng.standard_normal((m, n)))[0]
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        return (U * s) @ V.T, s

    def test_settles_the_values_above_the_floor_in_fewer_products(self):
        A, s = self.straddling()
        t = truncated_svd(A, 8, floor=1.0)
        assert np.max(np.abs(t.S[:5] - s[:5])) < 10 * 1e-10 * s[0]
        assert t.S[5] <= 1.0
        # every value lies above a zero floor, so that call settles all eight
        # with plain sweeps, as the floor call does; a call without a floor
        # runs Lanczos and is cheaper than both
        assert t.products < truncated_svd(A, 8, floor=0.0).products

    def test_zero_matrix_at_a_zero_floor(self):
        t = truncated_svd(np.zeros((80, 70)), 4, dense_cutoff=0, floor=0.0)
        assert np.array_equal(t.S, np.zeros(4))


class TestTruncatedSvdSweep:
    TOL = 1e-10

    @staticmethod
    def check_factors(A, t, k):
        # U^T A V is diag(S) up to rounding only once both bases are rotated
        # onto the Ritz vectors of the final sweep
        assert all(np.isfinite(f).all() for f in (t.U, t.S, t.V, t.basis))
        for f in (t.U, t.V, t.basis):
            assert np.max(np.abs(f.T @ f - np.eye(f.shape[1]))) < 1e-12
        assert np.array_equal(t.basis[:, :k], t.V)
        scale = max(t.S[0], 1.0)
        assert np.max(np.abs(t.U.T @ A @ t.V - np.diag(t.S))) < 1e-12 * scale

    @pytest.mark.parametrize("shape, filtered", [((70, 100), 494), ((100, 70), 468),
                                                 ((80, 80), 546)],
                             ids=["wide", "tall", "square"])
    def test_cold_call_matches_two_sided_iteration(self, shape, filtered):
        A = np.random.default_rng(31).standard_normal(shape)
        k = 5
        t = truncated_svd(A, k, tol=self.TOL)
        sweeps, _ = two_sided_subspace_sweeps(A, k, tol=self.TOL)
        # in matrix-vector products: the classical iteration makes p per
        # block product, two per sweep plus the start's two half-steps, and
        # the filtered block iteration that Lanczos replaced made `filtered`
        assert t.products <= min(filtered, (k + 8) * (2 * sweeps + 2))
        _, s_ref, _ = jacobi_svd(A)
        assert np.max(np.abs(t.S - s_ref[:k])) < 10 * self.TOL * s_ref[0]
        self.check_factors(A, t, k)

    def test_cold_call_at_a_bulk_edge_filters_away_a_quarter_of_the_products(self):
        # four leading values, then a geometric bulk with sigma_5 / sigma_14 =
        # 1.08 across the basis edge p = 13, where plain sweeps settle slowly
        m, n, k = 120, 100, 5
        rng = np.random.default_rng(41)
        s = np.concatenate([[4.0, 3.5, 3.0, 2.5], 2.0 * 1.08 ** (-np.arange(n - 4) / 9.0)])
        A = (np.linalg.qr(rng.standard_normal((m, n)))[0] * s) @ np.linalg.qr(
            rng.standard_normal((n, n)))[0].T
        t = truncated_svd(A, k, tol=self.TOL)
        sweeps, _ = two_sided_subspace_sweeps(A, k, tol=self.TOL)
        # in matrix-vector products, p = 13 per block product; the filtered
        # block iteration that Lanczos replaced made 624 (48 block products)
        assert t.products <= min(624, 0.75 * 13 * (2 * sweeps + 2))
        _, s_ref, _ = jacobi_svd(A)
        assert np.max(np.abs(t.S - s_ref[:k])) < 10 * self.TOL * s_ref[0]
        self.check_factors(A, t, k)

    def test_zero_matrix(self):
        A = np.zeros((80, 70))
        t = truncated_svd(A, 4, tol=self.TOL, dense_cutoff=0)
        assert np.array_equal(t.S, np.zeros(4))
        self.check_factors(A, t, 4)

    def test_rank_three_matrix_at_width_ten(self):
        rng = np.random.default_rng(32)
        A = rng.standard_normal((90, 3)) @ rng.standard_normal((3, 80))
        t = truncated_svd(A, 10, tol=self.TOL, dense_cutoff=0)
        s_ref = np.linalg.svd(A, compute_uv=False)
        assert np.max(np.abs(t.S - s_ref[:10])) < 10 * self.TOL * s_ref[0]
        assert np.linalg.norm(A - t.reconstruct()) < 1e-10 * s_ref[0]
        self.check_factors(A, t, 10)

    def test_cold_call_holds_no_dense_copy(self):
        # a 600 x 800 operand of the completion solvers' kind, rank 5 on a
        # 5% mask: the bases grow with the steps, from 2p + 1 columns by
        # doubling, and are never min(m, n) wide
        rng = np.random.default_rng(12)
        m, n, r = 600, 800, 5
        flat = rng.choice(m * n, size=m * n // 20, replace=False)
        rows, cols = np.divmod(flat, n)
        left, right = rng.standard_normal((m, r)), rng.standard_normal((n, r))
        A = np.zeros((m, n))
        A.reshape(-1)[flat] = np.einsum("ij,ij->i", left[rows], right[cols])
        truncated_svd(A, r)  # draws the seeded block outside the count
        tracemalloc.start()
        try:
            t = truncated_svd(A, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * A.nbytes
        s_ref = np.linalg.svd(A, compute_uv=False)[:r]
        assert np.max(np.abs(t.S - s_ref)) < 10 * self.TOL * s_ref[0]

    def test_oversampled_width_above_small_dimension(self):
        # k + 8 = 73 > 70, so the basis is square
        A = np.random.default_rng(33).standard_normal((75, 70))
        t = truncated_svd(A, 65, tol=self.TOL, dense_cutoff=0)
        assert t.basis.shape == (70, 70)
        s_ref = np.linalg.svd(A, compute_uv=False)
        assert np.max(np.abs(t.S - s_ref[:65])) < 10 * self.TOL * s_ref[0]
        self.check_factors(A, t, 65)

    def test_wide_basis_reads_past_the_default_sweep_cap(self):
        # k = 100, p = 108: the first reading falls at step 2p = 216, past
        # max_sweeps = 200, which caps sweeps of width p, not steps
        A = np.random.default_rng(35).standard_normal((250, 300))
        t = truncated_svd(A, 100, tol=self.TOL)
        s_ref = np.linalg.svd(A, compute_uv=False)
        assert np.max(np.abs(t.S - s_ref[:100])) < 10 * self.TOL * s_ref[0]
        self.check_factors(A, t, 100)


class TestOneSweep:
    def test_one_rotated_sweep_from_the_start(self):
        rng = np.random.default_rng(34)
        A = rng.standard_normal((90, 80))
        start = truncated_svd(A + 1e-3 * rng.standard_normal(A.shape), 4).basis
        t = linalg._one_sweep(A, 4, start)
        assert (t.sweeps, t.products, t.basis.shape) == (1, 2 * 12, (80, 12))
        TestTruncatedSvdSweep.check_factors(A, t, 4)
        # a start from a nearby matrix puts one sweep close to the settled values
        s_ref = np.linalg.svd(A, compute_uv=False)[:4]
        assert np.max(np.abs(t.S - s_ref)) < 1e-3 * s_ref[0]

    def test_repeated_sweeps_capture_a_value_the_basis_misses(self):
        # 120 x 100, spectrum 10, 9, 8, then 5 down to 1; the first basis
        # spans v2..v12 and misses v1. Each call blends its start with the
        # seeded block at 1e-4 of its norm and starts from the basis the last
        # call ended on, so the v1 component grows from call to call: the
        # first call reads 9 as the top value, and the top value is 10 to
        # within 1e-8 from the 14th call on (seeds 3 to 5)
        rng = np.random.default_rng(3)
        s = np.concatenate([[10.0, 9.0, 8.0], np.linspace(5.0, 1.0, 97)])
        U = np.linalg.qr(rng.standard_normal((120, 100)))[0]
        V = np.linalg.qr(rng.standard_normal((100, 100)))[0]
        A = (U * s) @ V.T
        basis, tops = V[:, 1:12], []
        for _ in range(20):
            t = linalg._one_sweep(A, 3, basis)
            basis = t.basis
            tops.append(t.S[0])
        assert abs(tops[0] - 9.0) < 1e-6
        assert abs(tops[-1] - 10.0) < 1e-8 * 10.0
        assert abs(t.V[:, 0] @ V[:, 0]) > 1.0 - 1e-8


class TestSvdWarmStart:
    def test_change_is_read_over_the_values_two_calls_share(self):
        # a shrinkage's width follows its kept rank, so consecutive calls
        # may compute 14, then 10, then 14 values
        rng = np.random.default_rng(35)
        A = rng.standard_normal((90, 80))
        warm = linalg.SvdWarmStart()
        first = truncated_svd(A, 14)
        warm.keep(first)
        assert warm.change == 0.0
        calls = [first]
        for k in (10, 14, 14):
            A = A + 1e-3 * rng.standard_normal(A.shape)
            t = linalg._one_sweep(A, k, warm.basis)
            warm.keep(t, settled=False)
            prev = calls[-1].S
            shared = min(k, len(prev))
            assert warm.change == np.max(np.abs(t.S[:shared] - prev[:shared])) / t.S[0] > 0.0
            calls.append(t)
        # at one width the move is the whole vector's, as for a rank projection
        assert warm.change == np.max(np.abs(calls[-1].S - calls[-2].S)) / calls[-1].S[0]
        assert warm.values is calls[-1].S
        assert warm.sweeps == first.sweeps + 3
        assert warm.products == first.products + 2 * 22 * 3

    def test_an_unsettled_call_with_nothing_before_it_reads_infinite(self):
        rng = np.random.default_rng(36)
        A = rng.standard_normal((90, 80))
        warm = linalg.SvdWarmStart()
        warm.keep(linalg._one_sweep(A, 4, truncated_svd(A, 4).basis), settled=False)
        assert warm.change == np.inf


class TestMaskedRelativeResidual:
    def test_exact_fit_is_zero(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((6, 6))
        obs = random_obs(rng, 6, 6, 9)
        obs = ObservationSet(obs.rows, obs.cols, X[obs.rows, obs.cols], obs.shape)
        assert masked_relative_residual(X, obs) == 0.0

    def test_zero_matrix_gives_one(self):
        rng = np.random.default_rng(14)
        obs = random_obs(rng, 6, 6, 9)
        assert masked_relative_residual(np.zeros((6, 6)), obs) == pytest.approx(1.0)

    def test_matches_direct_two_pass_computation(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((7, 7))
        obs = random_obs(rng, 7, 7, 11)
        num = np.sqrt(sum((X[r, c] - v) ** 2 for r, c, v in zip(obs.rows, obs.cols, obs.values)))
        den = np.sqrt(sum(v ** 2 for v in obs.values))
        assert masked_relative_residual(X, obs) == pytest.approx(num / den, rel=1e-13)
        assert obs.values_norm == np.linalg.norm(obs.values)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(2)
        obs = random_obs(rng, 5, 5, 7)
        with pytest.raises(ValueError, match="mismatch"):
            masked_relative_residual(np.zeros((4, 5)), obs)

    def test_zero_denominator_rejected(self):
        obs = ObservationSet([0, 1], [0, 1], [0.0, 0.0], (3, 3))
        with pytest.raises(ValueError, match="undefined"):
            masked_relative_residual(np.zeros((3, 3)), obs)


def test_gram_spectral_norm_matches_dense():
    rng = np.random.default_rng(16)
    A = rng.standard_normal((30, 50))
    lam = gram_spectral_norm(A)
    assert lam == pytest.approx(np.linalg.norm(A, 2) ** 2, rel=1e-8)


@pytest.mark.parametrize("transpose", [False, True], ids=["5x6", "6x5"])
def test_gram_spectral_norm_of_forward_difference(transpose):
    # D 1 = 0, so a power iteration started at the constant vector sees only 0
    D = np.diff(np.eye(6), axis=0)
    assert gram_spectral_norm(D.T if transpose else D) == pytest.approx(2 + np.sqrt(3), rel=1e-14)


@pytest.mark.parametrize("shape", [(4, 7), (3, 0), (0, 3)])
def test_gram_spectral_norm_of_zero_matrix(shape):
    assert gram_spectral_norm(np.zeros(shape)) == 0.0


def test_gram_spectral_norm_on_sensing_frame():
    A = gen_dct_matrix(DctSpec(100, 1500, 10), seed=0)
    assert gram_spectral_norm(A) == pytest.approx(np.linalg.norm(A, 2) ** 2, rel=1e-13)
