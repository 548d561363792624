import itertools

import numpy as np
import pytest
from scipy import stats

from triosplit.datagen import (DctSpec, add_noise, gen_dct_matrix, gen_low_rank,
                               gen_sparse_signal, mutual_coherence, observe,
                               sample_omega, save_observations)
from triosplit.linalg import ObservationSet


class TestLowRank:
    def test_full_rank_case(self):
        M, _ = gen_low_rank(8, 8, seed=0)
        s = np.linalg.svd(M, compute_uv=False)
        assert s[-1] > 1e-10 * s[0]

    def test_rank_bounded_by_construction(self):
        M, (ML, MR) = gen_low_rank(30, 4, seed=1)
        s = np.linalg.svd(M, compute_uv=False)
        assert s[4] < 1e-10 * s[0]
        assert np.allclose(M, ML @ MR.T)

    def test_exactly_r_dominant_directions(self):
        M, _ = gen_low_rank(25, 6, seed=2)
        s = np.linalg.svd(M, compute_uv=False)
        assert np.count_nonzero(s > 1e-10 * s[0]) == 6

    def test_deterministic(self):
        M1, _ = gen_low_rank(10, 3, seed=42)
        M2, _ = gen_low_rank(10, 3, seed=42)
        assert np.array_equal(M1, M2)

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            gen_low_rank(5, 6, seed=0)


class TestSampleOmega:
    def test_full_grid(self):
        r, c = sample_omega(3, 4, 12, seed=0)
        assert sorted(zip(r, c)) == sorted(itertools.product(range(3), range(4)))

    def test_single_index_in_bounds(self):
        r, c = sample_omega(5, 7, 1, seed=3)
        assert 0 <= r[0] < 5 and 0 <= c[0] < 7

    def test_count_and_uniqueness(self):
        r, c = sample_omega(10, 10, 37, seed=4)
        assert len(r) == 37
        assert len(set(zip(r, c))) == 37

    def test_out_of_range_count(self):
        with pytest.raises(ValueError):
            sample_omega(3, 3, 10, seed=0)
        with pytest.raises(ValueError):
            sample_omega(3, 3, 0, seed=0)

    def test_uniformity_chi_squared(self):
        counts = np.zeros(100)
        for draw in range(10000):
            r, c = sample_omega(10, 10, 1, seed=1000 + draw)
            counts[10 * r[0] + c[0]] += 1
        chi2 = float(np.sum((counts - 100.0) ** 2) / 100.0)
        p = stats.chi2.sf(chi2, df=99)
        assert p > 0.01

    def test_deterministic(self):
        a = sample_omega(20, 20, 50, seed=9)
        b = sample_omega(20, 20, 50, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestDctMatrix:
    def test_entry_range_and_formula(self):
        m, n, F = 6, 10, 1
        xi = np.random.default_rng(7).uniform(size=m)
        A = gen_dct_matrix(DctSpec(m, n, F), seed=7)
        assert A.shape == (m, n)
        assert np.max(np.abs(A)) <= 1.0 / np.sqrt(m) + 1e-15
        assert np.allclose(A[:, 0], np.full(m, 1.0 / np.sqrt(m)))
        ref = np.cos(2.0 * np.pi * 1 * xi / F) / np.sqrt(m)
        assert np.allclose(A[:, 1], ref)

    def test_high_refinement_is_highly_coherent(self):
        A = gen_dct_matrix(DctSpec(100, 2000, 10), seed=0)
        assert mutual_coherence(A) > 0.99

    def test_deterministic(self):
        spec = DctSpec(20, 30, 5)
        A1 = gen_dct_matrix(spec, seed=7)
        A2 = gen_dct_matrix(spec, seed=7)
        assert np.array_equal(A1, A2)


class TestSparseSignal:
    def test_single_spike(self):
        x = gen_sparse_signal(10, 1, 10, seed=0)
        assert np.count_nonzero(x) == 1

    def test_separation_enforced(self):
        x = gen_sparse_signal(1500, 5, 20, seed=1)
        support = np.flatnonzero(x)
        assert len(support) == 5
        gaps = np.diff(np.sort(support))
        assert gaps.min() >= 20

    def test_infeasible_separation_rejected(self):
        with pytest.raises(ValueError, match="cannot place"):
            gen_sparse_signal(10, 3, 5, seed=0)

    def test_coverage_against_enumeration(self):
        n, s, sep = 20, 3, 5
        legal = set()
        for combo in itertools.combinations(range(n), s):
            d = np.diff(combo)
            if np.all(d >= sep):
                legal.add(combo)
        seen = set()
        for draw in range(10000):
            x = gen_sparse_signal(n, s, sep, seed=draw)
            support = tuple(np.sort(np.flatnonzero(x)))
            assert support in legal
            seen.add(support)
        assert len(seen) >= 0.5 * len(legal)

    def test_deterministic(self):
        assert np.array_equal(gen_sparse_signal(100, 4, 10, seed=5),
                              gen_sparse_signal(100, 4, 10, seed=5))


class TestNoise:
    def test_zero_level_is_identity(self):
        b = np.arange(5, dtype=float)
        assert np.array_equal(add_noise(b, 0.0, seed=0), b)

    def test_sample_variance_matches_level(self):
        b = np.zeros(100000)
        sigma = 0.37
        out = add_noise(b, sigma, seed=1)
        assert np.var(out - b) == pytest.approx(sigma ** 2, rel=0.05)

    def test_deterministic(self):
        b = np.ones(50)
        assert np.array_equal(add_noise(b, 0.1, seed=2), add_noise(b, 0.1, seed=2))

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            add_noise(np.ones(3), -0.1, seed=0)


class TestSerialization:
    def test_observations_round_trip(self, tmp_path):
        obs = ObservationSet([0, 2], [1, 0], [0.5, -1.25], (3, 3))
        path = tmp_path / "obs.txt"
        save_observations(path, obs)
        magic, header, *entries = path.read_text().splitlines()
        assert magic == "triosplit-observations v1"
        rows, cols, count = (int(tok) for tok in header.split())
        fields = [line.split() for line in entries]
        back = ObservationSet([int(f[0]) for f in fields], [int(f[1]) for f in fields],
                              [float(f[2]) for f in fields], (rows, cols))
        assert count == len(back)
        assert back.shape == obs.shape
        assert np.array_equal(back.rows, obs.rows)
        assert np.array_equal(back.values, obs.values)
