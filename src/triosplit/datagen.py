"""Synthetic instance generators and a text writer for observation sets.

Every generator is a pure function of its parameters and seed; a fixed seed
reproduces the instance bit for bit. Seeds may be integers or numpy
Generators (the latter lets callers thread one stream through several
draws).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ObservationSet, as_matrix


def gen_low_rank(n, r, seed):
    """Rank-r ground truth M = ML @ MR.T from two n x r Gaussian factors.

    Returns (M, (ML, MR)). The product has rank exactly r almost surely.
    """
    if not 1 <= r <= n:
        raise ValueError(f"rank {r} outside [1, {n}]")
    rng = np.random.default_rng(seed)
    ML = rng.standard_normal((n, r))
    MR = rng.standard_normal((n, r))
    return ML @ MR.T, (ML, MR)


def sample_omega(rows, cols, m_count, seed):
    """m_count distinct positions of a rows x cols grid, uniform over all
    subsets of that size. Returns (row_indices, col_indices) sorted by
    linear position."""
    total = rows * cols
    if not 1 <= m_count <= total:
        raise ValueError(f"m_count {m_count} outside [1, {total}]")
    rng = np.random.default_rng(seed)
    lin = rng.choice(total, size=m_count, replace=False)
    lin.sort()
    return np.unravel_index(lin, (rows, cols))


def observe(M, rows_idx, cols_idx):
    """Observation set sampling a dense matrix at the given positions."""
    M = as_matrix(M)
    return ObservationSet(rows_idx, cols_idx, M[rows_idx, cols_idx], M.shape)


@dataclass(frozen=True)
class DctSpec:
    """Oversampled cosine frame parameters: m rows, n columns, refinement F."""

    m: int
    n: int
    refinement: int

    def __post_init__(self):
        if self.refinement < 1:
            raise ValueError("refinement must be at least 1")
        if self.m < 1 or self.n < 1:
            raise ValueError("dimensions must be positive")


def gen_dct_matrix(spec, seed=0):
    """Sensing matrix with columns cos(2*pi*i*xi/F)/sqrt(m), i = 0..n-1.

    One frequency vector xi ~ U[0,1]^m, drawn from the seed, is shared by
    all columns. Larger refinement F makes the columns more coherent;
    zero-based column indexing keeps the leading columns nearly parallel,
    which is what pushes the mutual coherence above 0.99 at F = 10.
    """
    xi = np.random.default_rng(seed).uniform(size=spec.m)
    i = np.arange(spec.n)
    return np.cos(2.0 * np.pi * np.outer(xi, i) / spec.refinement) / np.sqrt(spec.m)


def mutual_coherence(A):
    """Largest absolute cosine between distinct columns."""
    A = as_matrix(A)
    norms = np.linalg.norm(A, axis=0)
    if np.any(norms == 0):
        raise ValueError("zero column; coherence undefined")
    C = np.abs(A.T @ A) / np.outer(norms, norms)
    np.fill_diagonal(C, 0.0)
    return float(C.max())


def gen_sparse_signal(n, s, min_sep, seed):
    """Sparse vector with s Gaussian spikes whose indices are pairwise at
    least min_sep apart.

    Support indices are drawn greedily with rejection and a full restart
    when placement stalls, at most 1000 times; requires
    s * min_sep <= n so that separated supports exist with room to spare.
    """
    if s < 1 or min_sep < 1:
        raise ValueError("s and min_sep must be positive")
    if s * min_sep > n:
        raise ValueError(f"cannot place {s} spikes {min_sep} apart in length {n}")
    rng = np.random.default_rng(seed)
    budget = max(50 * s, 100)
    for _ in range(1000):
        chosen = []
        for _ in range(budget):
            cand = int(rng.integers(n))
            if all(abs(cand - c) >= min_sep for c in chosen):
                chosen.append(cand)
                if len(chosen) == s:
                    break
        if len(chosen) == s:
            x = np.zeros(n)
            x[chosen] = rng.standard_normal(s)
            return x
    raise RuntimeError("support sampling failed; separation too tight for rejection")


def add_noise(b, sigma, seed):
    """b plus sigma times a standard Gaussian draw."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    b = np.asarray(b, dtype=float)
    if sigma == 0:
        return b.copy()
    return b + sigma * np.random.default_rng(seed).standard_normal(b.shape)


# ---------------------------------------------------------------------------
# text serialization of an observation set (header + `row col value` lines)

_OBS_MAGIC = "triosplit-observations v1"


def save_observations(path, obs):
    """Write an observation set: a magic line, `rows cols count`, then one
    `row col value` line per entry, values with full round-trip precision."""
    lines = [_OBS_MAGIC, f"{obs.shape[0]} {obs.shape[1]} {len(obs)}"]
    lines += [f"{r} {c} {v!r}" for r, c, v in
              zip(obs.rows.tolist(), obs.cols.tolist(), obs.values.tolist())]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
