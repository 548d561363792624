"""Dense matrix kernels: observation sets, a masked residual and a truncated
SVD, by Golub-Kahan-Lanczos bidiagonalization or, to settle only the values
above a floor, by block subspace iteration."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


class TruncatedSvdError(RuntimeError):
    """A truncated SVD failed to settle within its cap on steps or sweeps.

    Carries the last observed relative change of the leading singular
    values in ``residual``.
    """

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


def _all_finite(a):
    """Whether every entry of a is finite, read from its min and max (NaN
    propagates through both), so no full-size boolean temporary is formed."""
    return bool(np.isfinite(a.min(initial=0.0)) and np.isfinite(a.max(initial=0.0)))


def as_matrix(A):
    """Validate and return a 2-D float array with finite entries."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {A.shape}")
    if not _all_finite(A):
        raise ValueError("matrix entries must be finite")
    return A


def as_vector(v):
    """Validate and return a 1-D float array with finite entries."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D array, got shape {v.shape}")
    if not _all_finite(v):
        raise ValueError("vector entries must be finite")
    return v


@dataclass(frozen=True)
class ObservationSet:
    """Observed entries of a rows x cols matrix.

    Index pairs are stored as parallel integer arrays; they must be unique
    and in bounds, with one finite value per pair. ``flat`` holds the same
    pairs as C-order flat indices, ``rows * ncols + cols``: the solvers read
    the observed entries of a matrix X with ``X.take(flat)``, which indexes X
    in C order whatever its memory layout, and write them into a fresh
    C-contiguous array Y with ``Y.reshape(-1)[flat] = v``, through a flat
    view. Both touch the same entries as ``X[rows, cols]`` at a fraction of
    the cost of 2-D fancy indexing. ``values_norm`` is the Frobenius norm
    of the values, the denominator of every masked relative residual.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    shape: tuple
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    values_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.intp)
        cols = np.asarray(self.cols, dtype=np.intp)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "shape", (int(self.shape[0]), int(self.shape[1])))
        nr, nc = self.shape
        if nr < 1 or nc < 1:
            raise ValueError("shape must be positive")
        if not (rows.ndim == cols.ndim == values.ndim == 1):
            raise ValueError("indices and values must be 1-D arrays")
        if not (len(rows) == len(cols) == len(values)):
            raise ValueError("index and value arrays must have equal length")
        if len(rows) and (rows.min() < 0 or rows.max() >= nr
                          or cols.min() < 0 or cols.max() >= nc):
            raise ValueError("observation indices out of bounds")
        flat = rows * nc + cols
        ordered = np.sort(flat)  # np.unique takes a slower hash path here
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("observation indices must be unique")
        object.__setattr__(self, "flat", flat)
        if not np.isfinite(values).all():
            raise ValueError("observed values must be finite")
        object.__setattr__(self, "values_norm", np.linalg.norm(values))

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class SvdTriplet:
    """Leading singular triplet: U (m x k), S (k, nonincreasing), V (n x k).

    Off the dense path, ``basis`` is the n x p right basis the call ended
    on, its top-p right Ritz vectors ordered by singular value (its first k
    columns are V), ready to pass as the next call's ``start``. ``sweeps``
    counts the call's Lanczos steps or subspace sweeps and ``products`` its
    matrix-vector products with A or A^T, a block product of width p
    counting p: two per Lanczos step, 2p per sweep. The dense path sets
    none of them (None, 0 and 0).
    """

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray
    basis: Optional[np.ndarray] = None
    sweeps: int = 0
    products: int = 0

    def reconstruct(self):
        return (self.U * self.S) @ self.V.T


class SvdWarmStart:
    """Right basis handed from one truncated SVD to the next within a run.

    A solver passes one instance to every SVD-based call it makes; each call
    starts from the ``basis`` the previous one ended on (``truncated_svd``'s
    ``start``) and stores its own with ``keep``, which also keeps the call's
    singular values as ``values``, records its ``change`` and adds its
    sweeps and products to ``sweeps`` and ``products``, the run's totals.
    ``change`` is how far the last call's values stand from settled: 0.0
    for a settled call; for an unsettled one, the move of its values from
    the previous call's relative to its largest, the quantity truncated_svd
    settles, read over the leading values both calls computed (see
    matcomp._project_into and matcomp.shrink_singular_values), and inf
    with no previous values to read it from. It is per-run state,
    like ``prox.GramSolver``: a fresh instance repeats a run exactly, and
    concurrent runs each need their own.
    """

    def __init__(self):
        self.basis = None
        self.values = None
        self.change = 0.0
        self.sweeps = 0
        self.products = 0

    def keep(self, t, settled=True):
        """Store the basis and values an SvdTriplet ended on, record its
        change and add its sweeps and products."""
        if settled:
            self.change = 0.0
        elif self.values is None:
            self.change = math.inf
        else:
            # a shrinkage's width follows its kept rank, so two calls may differ in k
            shared = min(len(t.S), len(self.values))
            self.change = float(np.max(np.abs(t.S[:shared] - self.values[:shared]))
                                / _settle_scale(t.S))
        self.basis = t.basis
        self.values = t.S
        self.sweeps += t.sweeps
        self.products += t.products


START_BLEND = 10.0  # weight of the Gaussian block in a warm start, in units of sqrt(tol)
SETTLE_TOL = 1e-10  # truncated_svd's default settling tolerance


def _settle_scale(values):
    """What a move of the singular values is measured against: the largest
    value, or the smallest positive float for an all-zero spectrum."""
    return max(values[0], np.finfo(float).tiny)


FLOOR_GUARD_RATIO = 0.8  # slowest shrink of its moves assumed for an estimate below a floor


def _stays_below(gap, move, last_move, settled_move):
    """Whether an estimate ``gap`` below a floor will stay there: it has
    settled (moved by less than ``settled_move``), or its moves are
    shrinking and the gap exceeds the rest of its rise, move * rho / (1 - rho),
    were they to keep shrinking at ratio rho, the larger of the last ratio
    and FLOOR_GUARD_RATIO (a rest of at least four moves). The assumed
    ratio is there because the first moves of an estimate climbing from a
    Gaussian block shrink faster than the later ones: on a tail packed
    just below the floor they shrank at 0.48, then at 0.7 to 0.77."""
    if move < settled_move:
        return True
    if last_move is None or move >= last_move:
        return False
    rho = max(FLOOR_GUARD_RATIO, move / last_move)
    return gap > move * rho / (1.0 - rho)


@functools.lru_cache(maxsize=8)
def _gaussian_block(n, p):
    """truncated_svd's n x p Gaussian block, seeded by 0 and drawn once per
    shape rather than once per call, and read-only because every call of
    that shape shares it."""
    G = np.random.default_rng(0).standard_normal((n, p))
    G.setflags(write=False)
    return G


def _sweep(A, V):
    """One sweep of subspace iteration from the right basis V (n x p):
    ``Q = qr(A V)`` and ``V R = qr(A^T Q)``, each product formed as the thin
    factor times A or its transpose. Returns Q, the new V and R."""
    Q = np.linalg.qr((V.T @ A.T).T)[0]
    V, R = np.linalg.qr((Q.T @ A).T)
    return Q, V, R


def _ritz_triplet(Q, V, R, k, sweeps, products):
    """The top-k SvdTriplet a sweep ended on: one SVD of R,
    ``R = Ur diag(s) Vr^T``, rotates both bases onto the Ritz vectors,
    ``V <- V Ur`` and ``U = Q Vr``; the whole rotated V is the basis."""
    Ur, s, Vrt = np.linalg.svd(R)
    V = V @ Ur
    return SvdTriplet(Q @ Vrt[:k].T, s[:k].copy(), V[:, :k].copy(),
                      basis=V, sweeps=sweeps, products=products)


def _one_sweep(A, k, start):
    """Top-k triplet of A from a single sweep from the right basis ``start``
    (n x p, p >= k), the ``basis`` of the last call on a nearby matrix.

    The start is blended with the seeded Gaussian block G (n x p) at the
    weight truncated_svd gives its start at the default tolerance,
    ``START_BLEND * sqrt(SETTLE_TOL)`` (1e-4) of its norm, then swept once
    (``_sweep``) and rotated onto the Ritz vectors (``_ritz_triplet``): one
    sweep, two block products, 2p matrix-vector products. The result is
    exactly rank k, but only as near the top-k triplet as one sweep takes
    it. Repeated on a slowly changing matrix, each call starting from the
    basis the last one ended on, the calls are the sweeps of one subspace
    iteration, and the blend keeps a direction the basis misses growing
    from call to call.

    The blend is ``G G^T start`` rather than a floor call's column-by-column
    G, so it turns with the basis and the result depends on the span of
    ``start`` alone. The last call's rotation orders the columns of a
    trailing cluster of near-tied Ritz values arbitrarily; a settled call
    sweeps that choice away, a single sweep would carry it forward (with the
    column blend, two drs runs whose arguments differ by rounding moved from
    1e-15 to 5e-10 apart at one such tie).
    """
    G = _gaussian_block(*start.shape)
    B = G @ (G.T @ start)
    weight = START_BLEND * math.sqrt(SETTLE_TOL) * np.linalg.norm(start) / np.linalg.norm(B)
    V = start + weight * B
    return _ritz_triplet(*_sweep(A, V), k, sweeps=1, products=2 * start.shape[1])


READ_EVERY = 4  # Lanczos steps between two readings of the values, after the first
RESTART_SEED = 1  # with the column's index, seeds the vector a Lanczos breakdown continues from


def _orthogonalize(w, Q):
    """w, in place, less its part in the span of Q's orthonormal columns:
    two classical Gram-Schmidt passes, the second removing what rounding
    left after the first."""
    for _ in range(2):
        w -= Q @ (Q.T @ w)
    return w


def _extend(Q, j, w, tiny):
    """Orthogonalize w against the first j columns of Q, store it
    normalized as column j, and return its norm after orthogonalization,
    the new bidiagonal entry. A norm at or below ``tiny`` is a breakdown:
    the entry is 0.0 and column j is a fresh Gaussian vector, drawn from a
    generator seeded by ``(RESTART_SEED, j)`` and orthogonalized the same
    way; the generator is made only at a breakdown, which most calls never
    meet."""
    head = Q[:, :j]
    norm = float(np.linalg.norm(_orthogonalize(w, head)))
    if norm <= tiny:
        fresh = np.random.default_rng((RESTART_SEED, j)).standard_normal(Q.shape[0])
        norm, w = 0.0, _orthogonalize(fresh, head)
    Q[:, j] = w / np.linalg.norm(w)
    return norm


def _widened(Q, cols):
    """A column-contiguous copy of Q, cols wide, holding Q's columns."""
    wide = np.empty((Q.shape[0], cols), order="F")
    wide[:, :Q.shape[1]] = Q
    return wide


def _lanczos(A, k, p, tol, max_sweeps, v):
    """Top-k SvdTriplet of A by Golub-Kahan-Lanczos bidiagonalization from
    the right vector v, with its top-p right Ritz vectors as the basis; see
    truncated_svd."""
    m, n = A.shape
    dim = min(m, n)  # the Krylov dimension at which the factorization is exact
    cap = min(dim, max_sweeps * p)  # the products of max_sweeps sweeps of width p
    first = min(2 * p, cap)
    width = first + 1
    U, V = np.empty((m, width), order="F"), np.empty((n, width), order="F")
    V[:, 0] = v / np.linalg.norm(v)
    alpha, beta = np.zeros(cap), np.zeros(cap)
    zero = dim * np.finfo(float).eps  # below this share of norm, a new vector is a breakdown
    norm = 0.0  # the largest norm of a new vector before orthogonalization
    prev = None
    change = np.inf
    for j in range(cap):
        if j + 2 > width:
            # one side at a time, so that only one old basis is alive
            width = min(2 * width, cap + 1)
            U = _widened(U, width)
            V = _widened(V, width)
        w = A @ V[:, j]
        if j:
            w -= beta[j - 1] * U[:, j - 1]
        norm = max(norm, float(np.linalg.norm(w)))
        alpha[j] = _extend(U, j, w, zero * norm)
        w = A.T @ U[:, j]
        w -= alpha[j] * V[:, j]
        norm = max(norm, float(np.linalg.norm(w)))
        if j + 1 < n:
            beta[j] = _extend(V, j + 1, w, zero * norm)
        steps = j + 1
        if steps < cap and (steps < first or (steps - first) % READ_EVERY):
            continue
        # U_j^T A V_{j+1} = C, with alpha on its diagonal and beta above it
        cols = min(steps + 1, n)
        C = np.zeros((steps, cols))
        np.fill_diagonal(C, alpha[:steps])
        np.fill_diagonal(C[:, 1:], beta[:cols - 1])
        top = np.linalg.svd(C, compute_uv=False)[:k]
        if prev is not None:
            change = np.max(np.abs(top - prev)) / _settle_scale(top)
        if change < tol or steps == dim:
            P, s, Qt = np.linalg.svd(C, full_matrices=False)
            basis = V[:, :cols] @ Qt[:p].T
            return SvdTriplet(U[:, :steps] @ P[:, :k], s[:k].copy(), basis[:, :k].copy(),
                              basis=basis, sweeps=steps, products=2 * steps)
        prev = top
    raise TruncatedSvdError(
        f"singular values did not settle below {tol} in {cap} steps "
        f"(last change {change:.3e})",
        residual=change,
    )


def truncated_svd(A, k, tol=SETTLE_TOL, dense_cutoff=64, max_sweeps=200, start=None, floor=None):
    """Top-k singular triplet of a dense matrix.

    Matrices whose smaller dimension is at most ``dense_cutoff`` are handled
    by a full dense decomposition. Larger ones use Golub-Kahan-Lanczos
    bidiagonalization, or, given a ``floor``, block subspace iteration; both
    stop once the leading k singular values change by less than ``tol``
    relative to the largest one between two readings. Both keep p = k + 8
    right vectors (at most min(m, n)) as the ``basis`` they return.

    Without a ``floor`` (Golub and Kahan, SIAM J. Numer. Anal. 1965), step j
    makes one product each way from the unit right vector v_j:
    ``alpha_j u_j = A v_j - beta_{j-1} u_{j-1}`` and
    ``beta_j v_{j+1} = A^T u_j - alpha_j v_j``. Each new vector is
    orthogonalized against every earlier one of its side by two classical
    Gram-Schmidt passes (full reorthogonalization, Simon and Zha, SIAM J.
    Sci. Comput. 2000), so that ``U_j^T A V_{j+1} = C``, the j x (j + 1)
    upper-bidiagonal matrix with the alphas on its diagonal and the betas
    above it, and the singular values of C are the estimates. They are
    first read at step 2p, so that every value of the basis has had room to
    emerge, then every READ_EVERY steps and at the last step the cap on
    steps allows. Once they settle, one SVD of C, ``C = P diag(s) Q^T``,
    rotates both sides onto the Ritz vectors: ``U = U_j P`` and the basis
    ``V_{j+1} Q``, both cut to their leading columns. At step min(m, n) the factorization is exact, and the call
    returns its values whether or not two readings agreed. A zero alpha or
    beta, as a matrix of low rank or zero gives, is a breakdown: the step
    continues from a fresh Gaussian vector orthogonalized against its
    side's basis, drawn from a generator seeded by RESTART_SEED and the
    column's index. The bases are held column-contiguous and doubled in
    width as the steps need.

    At the edge of a flat bulk, Lanczos settles in about the square root of
    the steps that subspace iteration takes: on a ratings operand (943 x
    1682, k = 10, sigma_10 / sigma_19 = 1.07) a cold call makes 56 steps,
    112 matrix-vector products, where block subspace iteration made 56
    block products of width 18, 1008 matrix-vector products.

    A caller that keeps only the values above a threshold passes it as
    ``floor``. Then only the estimates above ``floor`` must settle, and the
    largest estimate at or below it must either settle too or sit below
    ``floor`` by more than the rest of its rise, extrapolated from its last
    two moves and never taken as less than four moves, so that a value
    still rising cannot cross the floor unseen. (A gap of one move is not
    enough: on tails packed just below the floor, estimates climbing toward
    a value at 1.02 times the floor moved by less than their gap and the
    value was dropped.) The values at or below the floor come back
    unsettled; they tell only that the kept values end there. The guard
    reads the ratio of an estimate's moves, which subspace iteration, whose
    every sweep shrinks an error by one factor, makes steady; so a floor
    call sweeps a block instead of running Lanczos.

    A sweep from an orthonormal right basis V (n x p) makes one block
    product each way and reads the values from a p x p factor:
    ``Q = qr(A V)``, ``V R = qr(A^T Q)``, and the singular values of R,
    which are those of ``Q^T A = R^T V^T``, are the estimates. Once they
    settle, one SVD of R, ``R = Ur diag(s) Vr^T``, rotates both bases onto
    the Ritz vectors: ``V <- V Ur`` and ``U = Q Vr``. Both products are
    formed as the thin factor times A or its transpose, ``(V^T A^T)^T`` and
    ``Q^T A``, the faster order for the BLAS. A cold call takes its basis
    from a Gaussian block G (n x p), seeded by 0, through one half-step
    each way, ``V = qr(A^T qr(A G))``, so its sweeps are those of the
    classical iteration (Halko, Martinsson and Tropp, SIAM Rev. 2011).

    ``start`` (n x c), usually the ``basis`` returned by a call on a nearby
    matrix, replaces the cold start; its first min(c, p) columns are used.
    Pass the whole basis; its columns past k are what make the next call
    cheap. Lanczos starts from the sum of those columns (cold if it is
    zero), a floor call from the columns themselves, filled up to p from
    G. Either start is blended
    with the first column of G, or with G column by column, at
    ``START_BLEND * sqrt(tol)`` of its norm (1e-4 at the default ``tol``).
    Without the blend, a start orthogonal to a leading singular vector
    never finds it and the values settle on the wrong triplet (on a
    spectrum 10, 9, 8, 5, ... a start orthogonal to v1 gives 9, 8, 5). With
    it, that direction has a component of order sqrt(tol) that grows every
    step and moves the values by more than ``tol`` until it is captured.
    Lanczos finds a missed value 5.5 ahead of 5.4; subspace iteration needs
    it to lead the (p+1)-th value clearly (10 against 5 does, 5.5 against 5
    does not), so floor calls should start from nearby matrices. The result
    depends on the start only to within the settling tolerance.

    Parameters
    ----------
    A : array, m x n
    k : int, 1 <= k <= min(m, n)
    tol : float, relative settling tolerance for the singular values
    dense_cutoff : int, dimension below which the dense path is used
    max_sweeps : int, cap on sweeps; a Lanczos call may make
        ``max_sweeps * p`` steps, as many products as that many sweeps
        (and at most min(m, n), where it is exact); exceeding the cap
        raises TruncatedSvdError
    start : array, n x c, optional right basis to start from; ignored on
        the dense path
    floor : float, optional; settle only the values above it (see above)

    Returns an SvdTriplet. Off the dense path its ``basis`` is the top-p
    right Ritz vectors (its first k columns are V), ``sweeps`` the number
    of Lanczos steps or of sweeps made, and ``products`` the number of
    matrix-vector products with A or A^T: two per Lanczos step, and for a
    floor call 2p per sweep and 2p for a cold start's half-steps.
    """
    A = as_matrix(A)
    m, n = A.shape
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k={k} outside [1, {min(m, n)}]")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if min(m, n) <= dense_cutoff:
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        return SvdTriplet(U[:, :k].copy(), s[:k].copy(), Vt[:k].T.copy())

    p = min(k + 8, min(m, n))
    G = _gaussian_block(n, p)
    if start is not None:
        start = as_matrix(start)
        if start.shape[0] != n:
            raise ValueError(f"start has {start.shape[0]} rows, expected {n}")
        start = start[:, :p]
    blend = START_BLEND * np.sqrt(tol)
    if floor is None:
        v = G[:, 0]
        if start is not None:
            s = start.sum(axis=1)
            norm = np.linalg.norm(s)
            if norm > 0:  # a start whose columns sum to zero starts cold
                v = s + (blend * norm / np.linalg.norm(v)) * v
        return _lanczos(A, k, p, tol, max_sweeps, v)

    if start is None:
        V = _sweep(A, G)[1]
        products = 2 * p
    else:
        c = start.shape[1]
        V = G.copy()
        V[:, :c] = start + (blend * np.linalg.norm(start) / np.linalg.norm(G[:, :c])) * G[:, :c]
        products = 0
    prev = moves = None
    change = np.inf
    for sweep in range(1, max_sweeps + 1):
        Q, V, R = _sweep(A, V)
        products += 2 * p
        top = np.linalg.svd(R, compute_uv=False)[:k]
        if prev is not None:
            scale = _settle_scale(top)
            moves, last = np.abs(top - prev), moves
            above = int(np.count_nonzero(top > floor))  # top is nonincreasing
            change = np.max(moves[:above], initial=0.0) / scale
            if change < tol and (above == k or _stays_below(
                    floor - top[above], moves[above], None if last is None else last[above],
                    tol * scale)):
                return _ritz_triplet(Q, V, R, k, sweep, products)
        prev = top
    raise TruncatedSvdError(
        f"singular values did not settle below {tol} in {max_sweeps} sweeps "
        f"(last change {change:.3e})",
        residual=change,
    )


def masked_relative_residual(X, obs):
    """Frobenius misfit on the observed entries, relative to their norm.

    Fails on an all-zero observation set, where the ratio is undefined.
    """
    X = as_matrix(X)
    if X.shape != obs.shape:
        raise ValueError(f"shape mismatch: {X.shape} vs {obs.shape}")
    den = obs.values_norm
    if den == 0.0:
        raise ValueError("observed entries are all zero; relative residual undefined")
    num = np.linalg.norm(X.take(obs.flat) - obs.values)
    return num / den


def gram_spectral_norm(A):
    """Largest eigenvalue of A^T A, i.e. ||A||_2^2, from a symmetric
    eigendecomposition of the smaller of A A^T and A^T A."""
    A = as_matrix(A)
    G = A @ A.T if A.shape[0] <= A.shape[1] else A.T @ A
    return float(np.linalg.eigvalsh(G)[-1]) if G.size else 0.0
