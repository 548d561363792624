"""Dense matrix kernels: observation sets, a masked residual and a truncated SVD."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


class TruncatedSvdError(RuntimeError):
    """Subspace iteration failed to settle within the sweep cap.

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

    From the subspace path, ``basis`` is the n x p right basis the iteration
    ended on, rotated onto its Ritz vectors and so ordered by singular value
    (its first k columns are V), ready to pass as the next call's ``start``,
    ``sweeps`` counts the sweeps the call made and ``products`` its products
    with A or A^T, filter products included. The dense path sets none of
    them (None, 0 and 0).
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
    settles (see matcomp._project_into). It is per-run state,
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
        self.change = 0.0 if settled else float(np.max(np.abs(t.S - self.values)) / _settle_scale(t.S))
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


FILTER_GAIN_CAP = 1e6  # largest gain of a filter on the top value over the k-th
FILTER_MAX_DEGREE = 16  # most filter steps run on one reading of the values


def _log_cosh(y):
    """log cosh y for y >= 0, finite wherever y is."""
    return y + math.log1p(math.exp(-2.0 * y)) - math.log(2.0)


def _log_expm1(y):
    """log(exp(y) - 1) for y > 0, finite wherever y is."""
    return y + math.log(-math.expm1(-y))


def _filter_degree(theta, k, change, last, tol):
    """Degree of the Chebyshev filter to run before the next sweep; 0 for none.

    ``theta`` are the p values the last sweep read, ``change`` the relative
    move of the k leading ones it saw and ``last`` the degree of the filter
    that ran before it. The filter T_d(2 A^T A / theta_p^2 - 1) damps the
    eigenvalues [0, theta_p^2] of A^T A and scales the direction of a value
    s above them by T_d(2 s^2 / theta_p^2 - 1). With theta_p standing in for
    the first value outside the basis, a sweep after a degree-d filter
    shrinks the error of the k-th value by exp(-rate(d)), rate(d) =
    2 log((theta_k / theta_p)^2 T_d(t_k)): the square of what it does to
    that direction, as the value error is quadratic in the direction error.
    With T_d(cosh x) = cosh(d x), these are computed from x_k = acosh(t_k)
    = 2 acosh(theta_k / theta_p), which cannot overflow.

    The last change then puts the error at change / (exp(rate(last)) - 1),
    and a plain sweep settles once the error is below
    tol / (1 - exp(-rate(0))). Reaching that takes ceil(log(error / that) /
    rate(d)) sweeps at degree d, each costing 2 + 2d products, and one plain
    sweep more sees the change fall below tol. The degree returned is the
    cheapest in products, the lowest on a tie, among those up to
    FILTER_MAX_DEGREE whose gain on theta_1 over theta_k, T_d(t_1) / T_d(t_k),
    is at most FILTER_GAIN_CAP: the QR after the filter then keeps about
    16 - 6 = 10 digits of the directions of theta_k next to that of theta_1.
    The degree cap bounds what one reading of unsettled values may commit:
    with theta_k within 1e-6 of theta_p the model would ask for thousands.
    """
    top, kth, edge = theta[0], theta[k - 1], theta[-1]
    if not (edge > 0 and kth > edge):
        return 0
    plain = 4.0 * math.log(kth / edge)
    xk, x1 = 2.0 * math.acosh(kth / edge), 2.0 * math.acosh(top / edge)

    def rate(d):
        return plain + 2.0 * _log_cosh(d * xk) if d else plain

    need = (math.log(change) - _log_expm1(rate(last))
            - math.log(tol) - math.log(-math.expm1(-plain)))
    if need <= 0:
        return 0
    best, cost = 0, 2 * math.ceil(need / plain)
    for d in range(1, FILTER_MAX_DEGREE + 1):
        if (2 * (1 + d) >= cost
                or _log_cosh(d * x1) - _log_cosh(d * xk) > math.log(FILTER_GAIN_CAP)):
            break
        c = 2 * (1 + d) * math.ceil(need / rate(d))
        if c < cost:
            best, cost = d, c
    return best


def _chebyshev_filter(A, V, degree, edge):
    """T_degree(2 A^T A / edge^2 - 1) V by the three-term recurrence; each
    step is one product with A and one with A^T, formed thin factor first."""
    scale = math.sqrt(2.0) / edge

    def step(Y):  # (2 A^T A / edge^2 - 1) Y
        return (((Y.T @ A.T) * scale) @ A).T * scale - Y

    prev, cur = V, step(V)
    for _ in range(degree - 1):
        prev, cur = cur, 2.0 * step(cur) - prev
    return cur


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
    weight truncated_svd gives a start at its default tolerance,
    ``START_BLEND * sqrt(SETTLE_TOL)`` (1e-4) of its norm, then swept once
    (``_sweep``) and rotated onto the Ritz vectors (``_ritz_triplet``): one
    sweep, two products. The result is exactly rank k, but only as near the
    top-k triplet as one sweep takes it. Repeated on a slowly changing
    matrix, each call starting from the basis the last one ended on, the
    calls are the sweeps of one subspace iteration, and the blend keeps a
    direction the basis misses growing from call to call.

    The blend is ``G G^T start`` rather than truncated_svd's column-by-column
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
    return _ritz_triplet(*_sweep(A, V), k, sweeps=1, products=2)


def truncated_svd(A, k, tol=SETTLE_TOL, dense_cutoff=64, max_sweeps=200, start=None, floor=None):
    """Top-k singular triplet of a dense matrix.

    Matrices whose smaller dimension is at most ``dense_cutoff`` are handled
    by a full dense decomposition. Larger ones use block subspace iteration
    on p = k + 8 columns (Halko, Martinsson and Tropp, SIAM Rev. 2011), swept
    until the leading k singular values change by less than ``tol`` relative
    to the largest one between two sweeps.

    A caller that keeps only the values above a threshold passes it as
    ``floor``. Then only the estimates above ``floor`` must settle, and the
    largest estimate at or below it must either settle too or sit below
    ``floor`` by more than the rest of its rise, extrapolated from its last
    two moves and never taken as less than four moves, so that a value
    still rising cannot cross the floor unseen. (A gap of one move is not
    enough: on tails packed just below the floor, estimates climbing toward
    a value at 1.02 times the floor moved by less than their gap and the
    value was dropped.) The values at or below the floor come back
    unsettled; they tell only that the kept values end there.

    A sweep from an orthonormal right basis V (n x p) makes one product
    each way and reads the values from a p x p factor: ``Q = qr(A V)``,
    ``V R = qr(A^T Q)``, and the singular values of R, which are those of
    ``Q^T A = R^T V^T``, are the estimates. Once they settle, one SVD of R,
    ``R = Ur diag(s) Vr^T``, rotates both bases onto the Ritz vectors:
    ``V <- V Ur`` and ``U = Q Vr``. Both products are formed as the thin
    factor times A or its transpose, ``(V^T A^T)^T`` and ``Q^T A``, the
    faster order for the BLAS. A cold call takes its basis from a Gaussian
    block G (n x p), seeded by 0, through one half-step each way,
    ``V = qr(A^T qr(A G))``, so its plain sweeps are those of the classical
    iteration that orthonormalizes both ``A V`` and ``A^T Q`` and reads the
    values from the SVD of ``Q^T A``.

    A plain sweep shrinks the error of the k-th direction by
    (sigma_{p+1} / sigma_k)^2, slowly when the k-th value sits at the edge
    of a bulk. Without a ``floor``, a sweep from the third on may follow a
    Chebyshev filter on A^T A (Zhou and Saad, J. Comput. Phys. 2007) whose
    degree a cost model picks from the last sweep's values (see
    _filter_degree); it makes the values move further per product, and the
    settle test and ``tol`` are unchanged. A ``floor`` call sweeps plainly:
    its guard extrapolates from the ratio of an estimate's last two moves,
    which a filter of varying degree would break.

    ``start`` (n x c), usually the ``basis`` returned by a call on a nearby
    matrix, replaces those half-steps: its first min(c, p) columns are
    used and the rest come from G. Pass the whole basis; its columns past k
    are what make the next call cheap. The start is blended with G at
    ``10 * sqrt(tol)`` of its norm (1e-4 at the default ``tol``). Without
    the blend, a start orthogonal to a leading singular vector never finds
    it and the values settle on the wrong triplet after two sweeps (on a
    spectrum 10, 9, 8, 5, ... a start orthogonal to v1 gives 9, 8, 5). With
    it, that direction has a component of order sqrt(tol) that grows every
    sweep and moves the values by more than ``tol`` until it is captured.
    With plain sweeps that needs the missed value to lead the (p+1)-th
    clearly (10 against 5 does; 5.5 against 5 does not, while a filtered
    call finds 5.5), so starts should come from nearby matrices. The result
    depends on the start only to within the settling tolerance.

    Parameters
    ----------
    A : array, m x n
    k : int, 1 <= k <= min(m, n)
    tol : float, relative settling tolerance for the singular values
    dense_cutoff : int, dimension below which the dense path is used
    max_sweeps : int, sweep cap; exceeding it raises TruncatedSvdError
    start : array, n x c, optional right basis to start from; ignored on
        the dense path
    floor : float, optional; settle only the values above it (see above)

    Returns an SvdTriplet; on the subspace path its ``basis`` is the final
    rotated V, ``sweeps`` the number of sweeps made and ``products`` the
    number of products with A or A^T.
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
    if start is None:
        V = _sweep(A, G)[1]
        products = 2
    else:
        start = as_matrix(start)
        if start.shape[0] != n:
            raise ValueError(f"start has {start.shape[0]} rows, expected {n}")
        c = min(start.shape[1], p)
        V = G.copy()
        blend = START_BLEND * np.sqrt(tol) * np.linalg.norm(start[:, :c])
        V[:, :c] = start[:, :c] + (blend / np.linalg.norm(G[:, :c])) * G[:, :c]
        products = 0
    prev = moves = None
    change = np.inf
    degree = 0
    for sweep in range(1, max_sweeps + 1):
        if degree:
            V = _chebyshev_filter(A, V, degree, theta[-1])
        Q, V, R = _sweep(A, V)
        products += 2 + 2 * degree
        theta = np.linalg.svd(R, compute_uv=False)
        top = theta[:k]
        if prev is not None:
            scale = _settle_scale(top)
            moves, last = np.abs(top - prev), moves
            if floor is None:
                change = np.max(moves) / scale
                settled = change < tol
            else:
                above = int(np.count_nonzero(top > floor))  # top is nonincreasing
                change = np.max(moves[:above], initial=0.0) / scale
                settled = change < tol and (above == k or _stays_below(
                    floor - top[above], moves[above], None if last is None else last[above],
                    tol * scale))
            if settled:
                return _ritz_triplet(Q, V, R, k, sweep, products)
            if floor is None:
                degree = _filter_degree(theta, k, change, degree, tol)
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
