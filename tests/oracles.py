"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch with different
algorithms than the code under test: a one-sided Jacobi SVD, a grid-refine
scalar prox, plain proximal-gradient descent, a stacked least-squares fit for
the regularized normal equations, the classical two-sided block subspace
iteration, direct transcriptions of the two classical splitting schemes, and
a line-by-line ratings parser with dictionary ID remapping.
"""

import numpy as np


def jacobi_svd(A, sweeps=60, tol=1e-14):
    """Full SVD by one-sided Jacobi rotations (independent of LAPACK paths)."""
    A = np.array(A, dtype=float)
    m, n = A.shape
    if m < n:
        U, s, V = jacobi_svd(A.T, sweeps=sweeps, tol=tol)
        return V, s, U
    W = A.copy()
    V = np.eye(n)
    for _ in range(sweeps):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                a = W[:, i] @ W[:, i]
                b = W[:, j] @ W[:, j]
                c = W[:, i] @ W[:, j]
                off = max(off, abs(c) / max(np.sqrt(a * b), 1e-300))
                if abs(c) <= tol * np.sqrt(a * b):
                    continue
                zeta = (b - a) / (2.0 * c)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                cs = 1.0 / np.sqrt(1.0 + t * t)
                sn = cs * t
                Wi = W[:, i].copy()
                W[:, i] = cs * Wi - sn * W[:, j]
                W[:, j] = sn * Wi + cs * W[:, j]
                Vi = V[:, i].copy()
                V[:, i] = cs * Vi - sn * V[:, j]
                V[:, j] = sn * Vi + cs * V[:, j]
        if off <= tol:
            break
    s = np.linalg.norm(W, axis=0)
    order = np.argsort(-s)
    s = s[order]
    V = V[:, order]
    U = np.zeros((m, n))
    for k in range(n):
        if s[k] > 1e-300:
            U[:, k] = W[:, order[k]] / s[k]
    return U, s, V


def scalar_prox_by_grid(f, v, gamma, lo, hi, levels=4, points=2001):
    """argmin f(z) + (z - v)^2 / (2 gamma) by repeated grid refinement."""
    for _ in range(levels):
        grid = np.linspace(lo, hi, points)
        vals = f(grid) + (grid - v) ** 2 / (2.0 * gamma)
        best = grid[np.argmin(vals)]
        width = (hi - lo) / (points - 1)
        lo, hi = best - 2 * width, best + 2 * width
    return best


def prox_by_gradient_descent(grad, x0, steps, lr):
    """Plain gradient descent; used to minimize smooth prox objectives."""
    u = np.array(x0, dtype=float)
    for _ in range(steps):
        u = u - lr * grad(u)
    return u


def ista_lasso(A, b, lam, iters=200000, x0=None):
    """Proximal gradient for 0.5||Ax-b||^2 + lam*||x||_1 with fixed step."""
    n = A.shape[1]
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    L = np.linalg.norm(A, 2) ** 2
    step = 1.0 / L
    for _ in range(iters):
        g = A.T @ (A @ x - b)
        w = x - step * g
        x = np.sign(w) * np.maximum(np.abs(w) - step * lam, 0.0)
    return x


def augmented_least_squares(A, b, x, mu):
    """argmin 0.5||A y - b||^2 + 0.5 mu ||y - x||^2 as one least-squares fit.

    Stacks [A; sqrt(mu) I] against [b; sqrt(mu) x] and solves it with the
    SVD-based lstsq, never forming A^T A or A A^T. Its normal equations are
    (A^T A + mu I) y = A^T b + mu x.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[1]
    M = np.vstack([A, np.sqrt(mu) * np.eye(n)])
    rhs = np.concatenate([np.asarray(b, dtype=float), np.sqrt(mu) * np.asarray(x, dtype=float)])
    return np.linalg.lstsq(M, rhs, rcond=None)[0]


def fbs_reference(prox_g, grad_h, x0, gamma, iters):
    """Forward-backward iteration x+ = prox_g(x - gamma*grad_h(x))."""
    xs = []
    x = np.array(x0, dtype=float)
    for _ in range(iters):
        x = prox_g(x - gamma * grad_h(x), gamma)
        xs.append(x.copy())
    return xs


def drs_reference(prox_f, prox_g, x0, gamma, iters):
    """Douglas-Rachford iteration; returns the (x, y, z) triples."""
    out = []
    x = np.array(x0, dtype=float)
    for _ in range(iters):
        y = prox_f(x, gamma)
        z = prox_g(2.0 * y - x, gamma)
        x = x + (z - y)
        out.append((x.copy(), y.copy(), z.copy()))
    return out


def drs_merit_reference(value_f, value_g, x, y, z, gamma):
    """Merit value for the two-block scheme, in its inner-product form."""
    return (value_f(y) + value_g(z)
            + np.linalg.norm(y - z) ** 2 / (2.0 * gamma)
            + (y - z) @ (z - x) / gamma)


def finite_difference_gradient(f, x, h=1e-6):
    """Central finite differences, one coordinate at a time."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        e = np.zeros_like(flat)
        e[i] = h
        gflat[i] = (f((flat + e).reshape(x.shape)) - f((flat - e).reshape(x.shape))) / (2.0 * h)
    return g


def tail_norm(A, k):
    """Frobenius norm of the best-rank-k approximation error, from a full SVD."""
    s = np.linalg.svd(np.asarray(A, float), compute_uv=False)
    return float(np.sqrt(np.sum(s[k:] ** 2)))


def two_sided_subspace_sweeps(A, k, tol=1e-10, seed=0, oversampling=8, max_sweeps=200):
    """Sweeps the classical block subspace iteration takes to settle.

    Starts from Q = qr(A G) with the same seeded Gaussian block G as
    ``truncated_svd`` and orthonormalizes both half-steps of every sweep,
    V = qr(A^T Q) then Q = qr(A V), reading the values from the SVD of
    Q^T A. Returns (sweeps, leading k values) once they change by less than
    tol relative to the largest between two sweeps.
    """
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    p = min(k + oversampling, m, n)
    Q = np.linalg.qr(A @ np.random.default_rng(seed).standard_normal((n, p)))[0]
    prev = None
    for sweep in range(1, max_sweeps + 1):
        Q = np.linalg.qr(A @ np.linalg.qr(A.T @ Q)[0])[0]
        top = np.linalg.svd(Q.T @ A, compute_uv=False)[:k]
        if prev is not None and np.max(np.abs(top - prev)) < tol * top[0]:
            return sweep, top
        prev = top
    raise RuntimeError("subspace iteration did not settle")


def line_by_line_ratings(path, lo=1.0, hi=5.0):
    """Ratings file parsed one line at a time with int() and float(), IDs
    remapped through dictionaries and keep-last through a dict keyed by
    (user, item). Returns (user_index, item_index, ratings, timestamps,
    n_users, n_items, duplicates); errors are ValueErrors naming the line.
    """
    users, items, ratings, stamps = [], [], [], []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("::")
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
            try:
                u, i, r, t = int(parts[0]), int(parts[1]), float(parts[2]), int(parts[3])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: unparsable record {line!r}") from exc
            if not lo <= r <= hi:
                raise ValueError(f"{path}:{lineno}: rating {r} out of range")
            if not -2 ** 63 <= t < 2 ** 63:
                raise ValueError(f"{path}:{lineno}: timestamp {t} overflows int64")
            users.append(u)
            items.append(i)
            ratings.append(r)
            stamps.append(t)
    if not users:
        raise ValueError(f"{path}: no ratings found")
    umap = {u: k for k, u in enumerate(sorted(set(users)))}
    imap = {i: k for k, i in enumerate(sorted(set(items)))}
    latest = {}
    duplicates = 0
    for u, i, r, t in zip(users, items, ratings, stamps):
        key = (umap[u], imap[i])
        duplicates += key in latest
        latest[key] = (r, t)
    keys = sorted(latest)
    return (np.array([k[0] for k in keys], dtype=np.intp),
            np.array([k[1] for k in keys], dtype=np.intp),
            np.array([latest[k][0] for k in keys]),
            np.array([latest[k][1] for k in keys], dtype=np.int64),
            len(umap), len(imap), duplicates)
