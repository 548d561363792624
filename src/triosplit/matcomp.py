"""Matrix-completion solvers.

The main solver runs the three-operator iteration on the rank-constrained
completion objective

    0.5 * ||masked(X) - data||^2  +  indicator(rank <= r)  +  (lam/2)*||X||^2

whose three blocks give a masked averaging prox, a rank projection, and a
linear gradient. Every rank projection after a run's first is one warm
subspace sweep, feasible but not the nearest rank-r matrix (see
_project_into). Its iterates are those of splitting.run, carried as the
rank-r factors of z plus a vector on the mask, over one dense buffer per
run (see _masked_complete). Dropping the quadratic tail (lam = 0) recovers
classical Douglas-Rachford splitting on the same constraint set. Two
baselines are included: projected gradient descent with rank truncation
(svp_complete) and singular-value shrinkage with a dual update on the mask
(svt_complete), whose shrinkages after a run's first are one warm sweep
each as well, not the exact shrinkage (see shrink_singular_values). All
four solvers carry their iterate in one form: the factors W, V of a
low-rank matrix W V^T, plus a vector on the mask where the method has one,
over one dense buffer per run that is returned as x_opt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .linalg import (ObservationSet, SvdWarmStart, _one_sweep, as_matrix,
                     masked_relative_residual, truncated_svd)
# masked_relative_residual, prox_masked_quadratic, rank_projection, run and
# check_stop are imported only for the benchmark's hooks on them here
# (bench/tracing.py); the solvers call none
from .prox import grad_frobenius_reg, prox_masked_quadratic, rank_projection
from .splitting import (DEFAULT_K, SplittingState, StoppingRule,
                        ThreeTermProblem, _iterate, _sq_norm, _StepPolicy,
                        check_stop, energy, run)

DEFAULT_LAMBDA = 1.5e-6
MASKED_TOL = 1e-4


@dataclass(frozen=True)
class CompletionInstance:
    """Observed entries plus the recovery target: rank r, weight lam."""

    obs: ObservationSet
    shape: tuple
    r: int
    lam: float = DEFAULT_LAMBDA

    def __post_init__(self):
        object.__setattr__(self, "shape", (int(self.shape[0]), int(self.shape[1])))
        if self.obs.shape != self.shape:
            raise ValueError("observation shape differs from instance shape")
        if len(self.obs) < 1:
            raise ValueError("need at least one observed entry")
        if not 1 <= self.r <= min(self.shape):
            raise ValueError(f"rank {self.r} outside [1, {min(self.shape)}]")
        if not self.lam >= 0:
            raise ValueError("lam must be nonnegative")

    @property
    def p(self):
        """Sampling ratio |observed| / (rows * cols)."""
        return len(self.obs) / (self.shape[0] * self.shape[1])


def default_masked_rule(max_iter=2000):
    return StoppingRule(eps_rel=MASKED_TOL, max_iter=max_iter)


ERROR_BLOCK = 1 << 15  # entries of X - M formed at a time by relative_error (256 KiB)


def relative_error(X, M):
    """Frobenius error of X against M, relative to ||M||.

    ||X - M||^2 is summed over blocks of rows of about ERROR_BLOCK entries,
    so no full-size difference is formed; the sum runs in another order
    than a norm of the whole difference, which moves the result at the
    1e-16 level."""
    X = as_matrix(X)
    M = as_matrix(M)
    if X.shape != M.shape:
        raise ValueError(f"shape mismatch: {X.shape} vs {M.shape}")
    den = np.linalg.norm(M)
    if den == 0.0:
        raise ValueError("reference matrix is zero; relative error undefined")
    rows = max(1, ERROR_BLOCK // X.shape[1])
    num_sq = sum(_sq_norm(X[i:i + rows] - M[i:i + rows]) for i in range(0, X.shape[0], rows))
    return math.sqrt(num_sq) / den


def rmse(X, test_obs):
    """Root mean squared misfit of X on a held-out observation set."""
    X = as_matrix(X)
    if len(test_obs) == 0:
        raise ValueError("test set is empty")
    diff = X.take(test_obs.flat) - test_obs.values
    return math.sqrt(float(np.mean(diff ** 2)))


def _check_truth(inst, M_true):
    """Reject a ground truth that is not a finite matrix of the instance's
    shape before the run's first SVD, rather than from relative_error after
    the run."""
    if M_true is not None and as_matrix(M_true).shape != inst.shape:
        raise ValueError(f"M_true has shape {np.shape(M_true)}, expected {inst.shape}")


def _metric_on_mask(x_on, obs):
    """The masked stop metric of a matrix X from its entries on the mask,
    x_on = X.take(obs.flat): the misfit there relative to the data's norm,
    bit for bit masked_relative_residual(X, obs). All-zero data falls back
    to the absolute misfit, so a zero instance reads as solved at X = 0."""
    if obs.values_norm == 0.0:
        return float(np.linalg.norm(x_on))
    return float(np.linalg.norm(x_on - obs.values) / obs.values_norm)


def _project_into(buf, r, warm):
    """Replace the dense buf by a rank-r matrix near it; return its factors.

    A run's first projection, and every one on the dense path (min dimension
    at most 64, where no basis is kept), is the nearest rank-r matrix: the
    settled top-r SVD of truncated_svd, bit for bit rank_projection(buf, r,
    warm). Every later one is a single warm sweep from warm's basis
    (linalg._one_sweep, two block products of width r + 8), as in Hastie,
    Mazumder, Lee and Zadeh (JMLR 2015): exactly rank r, so feasible, but
    only as near the nearest rank-r matrix as one sweep takes it, which
    puts the iteration outside the paper's theorem and its descent lemma.
    Consecutive projections are then the sweeps of one subspace iteration
    on a slowly changing matrix, and the relative move of their r values,
    max |s - s_prev| / s_1, is kept as warm.change, the settle quantity
    truncated_svd tests against its tolerance; it is 0.0 after a settled
    projection.

    The triplet, kept in warm, gives W = U * S (m x r) and V (n x r). buf is
    then overwritten with W V^T by the product SvdTriplet.reconstruct forms,
    and a caller that keeps (W, V) can write the same matrix back into buf
    at any time.
    """
    settled = warm.basis is None
    t = truncated_svd(buf, r) if settled else _one_sweep(buf, r, warm.basis)
    warm.keep(t, settled)
    W = t.U * t.S
    np.matmul(W, t.V.T, out=buf)
    return W, t.V


def _factored_diff_sq(W1, V1, W0, V0):
    """||W1 V1^T - W0 V0^T||^2 (Frobenius) without forming either product.

    V0 and V1 have orthonormal columns, as every V the solvers carry does
    (a run's zero start has W0 = 0, which needs none). With C = V0^T V1,
    F = V0 - V1 C^T is the part of V0 orthogonal to V1, so the difference
    is (W1 - W0 C) V1^T - W0 F^T, two terms orthogonal to each other, and
    its squared norm is ||W1 - W0 C||^2 + sum(W0^T W0 * F^T F): small
    products and one difference of each side's factors, at most r wide.
    """
    C = V0.T @ V1
    F = V0 - V1 @ C.T
    return _sq_norm(W1 - W0 @ C) + float(np.sum((W0.T @ W0) * (F.T @ F)))


def _finish(buf, W, V, res, warm, M_true):
    """_iterate's result res completed: its x_opt is buf rewritten as W V^T,
    the last finite iterate, which a diverged step may have overwritten,
    and its svd_* fields are warm's totals."""
    np.matmul(W, V.T, out=buf)
    err = relative_error(buf, M_true) if M_true is not None else None
    return replace(res, x_opt=buf, relative_error=err, svd_sweeps=warm.sweeps,
                   svd_products=warm.products, svd_change=warm.change)


def _objective_values(obs, lam):
    """The completion objective with tail weight lam, for splitting.energy,
    which reads only the value oracles and grad H: the solvers take their
    proxes in place (see _masked_complete), so the bundle carries none. The
    masked misfit has a 1-Lipschitz gradient and is convex (L = 1, l = 0),
    and grad H = lam * X is lam-Lipschitz (beta = lam)."""
    return ThreeTermProblem(
        prox_f=None, prox_g=None, grad_h=lambda X: grad_frobenius_reg(X, lam),
        L=1.0, l=0.0, beta=lam,
        value_f=lambda X: 0.5 * float(np.sum((X.take(obs.flat) - obs.values) ** 2)),
        # energy is evaluated only at rank projections, whose rank is at
        # most r by construction: g, the rank-r indicator, is 0
        value_g=lambda Z: 0.0,
        value_h=lambda X: 0.5 * lam * float(np.sum(X ** 2)))


def _masked_complete(inst, lam, gamma, rule, k, M_true, with_energy):
    """The three-operator iteration on the completion objective, carried as
    the rank-r factors of z and one vector s on the mask, over one dense
    buffer.

    The first prox is a masked average, so off the mask y+ = x and
    x+ = z+; the state (W, V, s) stands for z = W V^T, x = z off the mask
    and x = z - s on it. Between steps the buffer holds z with its mask
    entries zeroed. A step scales it in place by 1 - gamma * lam into the
    projection argument 2 y - gamma * lam * y - x, which is
    (1 - gamma * lam) * z off the mask, scatters the argument's mask
    entries, and projects the buffer in place (_project_into), which leaves
    z+ in it. The row reads z+ on the mask from the buffer and ||z+|| from
    its factor W+ (V+ is orthonormal), zeroes the buffer's mask entries to
    read max |z+| off the mask, and takes ||z+ - z|| from the factors, less
    its part on the mask, read from vectors. Off the mask, z+ - y+ is
    z+ - z and y+ - y the previous step's z - z_prev; y = z_prev there, so
    y_inf is exact. No dense x, y or difference is formed unless
    with_energy asks for the energy column.
    """
    _check_truth(inst, M_true)
    if rule is None:
        rule = default_masked_rule()
    obs, flat, r = inst.obs, inst.obs.flat, inst.r
    objective = _objective_values(obs, lam)
    steps = _StepPolicy(objective.L, objective.l, objective.beta,
                        gamma=gamma, k=None if gamma is not None else k)
    warm = SvdWarmStart()  # one per run: each projection starts where the last ended
    buf = np.zeros(inst.shape)  # the run's one dense array, returned as x_opt
    buf_flat = buf.reshape(-1)
    # what the next row reads of the current state besides its factors: z on
    # the mask, and off it ||z - z_prev||^2, ||z||^2 and max |z|
    last = SimpleNamespace(z_on=np.zeros(len(obs)), dz_off_sq=0.0, z_off_sq=0.0, z_off_inf=0.0)
    y_on = np.zeros(len(obs))  # the latest y on the mask
    dy_on_sq = 0.0  # and its move there, ||y - y_prev||^2

    def advance(state, t):
        nonlocal y_on, dy_on_sq
        s = state[2]
        g = steps.gamma
        x_on = last.z_on - s
        y_new = (x_on + g * obs.values) / (1.0 + g)
        # the move is read here, so the last y is released before the projection
        dy_on_sq = _sq_norm(y_new - y_on)
        y_on = y_new
        scale = 1.0 - g * lam
        if scale != 1.0:
            np.multiply(buf, scale, out=buf)
        buf_flat[flat] = 2.0 * y_on - g * (lam * y_on) - x_on
        W, V = _project_into(buf, r, warm)
        return W, V, y_on - x_on

    def measure(old, new, t, norms):
        (W, V, _), (W_new, V_new, s_new) = old, new
        z_on = buf.take(flat)
        z_norm = math.sqrt(_sq_norm(W_new))  # ||W V^T|| = ||W||, V orthonormal
        # max |z+| off the mask; the next step overwrites the zeroed entries
        buf_flat[flat] = 0.0
        z_off_inf = float(max(buf.max(), -buf.min()))
        z_off_sq = max(z_norm ** 2 - _sq_norm(z_on), 0.0)
        dz_on_sq = _sq_norm(z_on - last.z_on)
        dz_off_sq = max(_factored_diff_sq(W_new, V_new, W, V) - dz_on_sq, 0.0)
        row = SimpleNamespace(
            t=t, gamma=steps.gamma, dy_norm=math.sqrt(last.dz_off_sq + dy_on_sq),
            zy_gap=math.sqrt(dz_off_sq + _sq_norm(z_on - y_on)),
            s_dual=math.sqrt(dz_off_sq + dz_on_sq),
            x_norm=math.sqrt(z_off_sq + _sq_norm(z_on - s_new)),
            y_norm=math.sqrt(last.z_off_sq + _sq_norm(y_on)), z_norm=z_norm,
            y_inf=max(last.z_off_inf, float(np.abs(y_on).max())))
        if with_energy:
            z_new = W_new @ V_new.T
            x, y = z_new.copy(), W @ V.T
            x.reshape(-1)[flat] = z_on - s_new
            y.reshape(-1)[flat] = y_on
            row.energy = float(energy(objective, SplittingState(x, y, z_new), steps.gamma))
        # the masked stop watches the rank-feasible iterate, the same estimate
        # the baselines test and the one reported as the solution
        row.stop_metric = _metric_on_mask(z_on, obs)
        steps.update(row)
        last.z_on = z_on
        last.dz_off_sq, last.z_off_sq, last.z_off_inf = dz_off_sq, z_off_sq, z_off_inf
        return row

    m, n = inst.shape
    # _iterate sizes check_stop's residual-pair tolerance by the state's first
    # array, here W; these rows always carry stop_metric, so it is never read
    res = _iterate(advance, measure,
                   (np.zeros((m, r)), np.zeros((n, r)), np.zeros(len(obs))), rule)
    # the buffer holds the last z with its mask entries zeroed, or a
    # diverged step's projection
    return _finish(buf, *res.state[:2], res, warm, M_true)


def dys_complete(inst, rule=None, gamma=None, k=DEFAULT_K, M_true=None,
                 with_energy=False):
    """Three-operator completion with the quadratic tail weight inst.lam.

    A fixed gamma ignores k. Without one, the engine's step-size policy
    starts at k times the descent-coefficient root for the objective's own
    constants, (L, l, beta) = (1, 0, inst.lam), and decays toward it;
    the stop is the masked relative residual of the rank-feasible z iterate
    dropping below 1e-4, the same estimate the baselines test. The returned
    matrix is that final z iterate. M_true, when given, is used only to
    report the relative error.

    The iterates are those of splitting.run on this objective, with the
    same trace columns, but carried as the rank-r factors of z plus one
    vector on the mask (x = z off the mask, x = z - s on it), over one
    dense m x n buffer per run: an iteration forms the projection argument
    in it and writes z+ back into it, and the buffer is returned as x_opt.
    No other dense array is formed unless with_energy asks for the energy
    column, which builds dense x, y and z.
    """
    return _masked_complete(inst, inst.lam, gamma, rule, k, M_true, with_energy)


def drs_complete(inst, rule=None, gamma=None, k=DEFAULT_K, M_true=None,
                 with_energy=False):
    """Douglas-Rachford completion: dys_complete at lam = 0.

    The instance's lam is ignored; with the smooth term gone, beta = 0
    feeds the step-size root. The iterate is carried as in dys_complete,
    over one dense buffer that is returned as x_opt.
    """
    return _masked_complete(inst, 0.0, gamma, rule, k, M_true, with_energy)


def svp_complete(inst, rule=None, M_true=None):
    """Projected gradient baseline: gradient step on the mask, then rank
    truncation, at the step schedule 1 / (p * sqrt(t)).

    The iterate X is carried as its rank-r factors over one dense m x n
    buffer that holds X and is returned as x_opt: a step writes the
    gradient step into the buffer's mask entries and projects the buffer in
    place, and the change of the estimate, dy_norm, is read from the
    factors.
    """
    _check_truth(inst, M_true)
    if rule is None:
        rule = default_masked_rule()
    obs, flat, r, p = inst.obs, inst.obs.flat, inst.r, inst.p
    warm = SvdWarmStart()
    buf = np.zeros(inst.shape)  # the iterate X, the run's one dense array
    x_on = np.zeros(len(obs))  # X on the mask
    step = None

    def advance(state, t):
        nonlocal step
        step = 1.0 / (p * math.sqrt(t))
        buf.reshape(-1)[flat] = x_on - step * (x_on - obs.values)
        return _project_into(buf, r, warm)

    def measure(old, new, t, norms):
        nonlocal x_on
        x_on = buf.take(flat)
        return SimpleNamespace(t=t, gamma=step, dy_norm=math.sqrt(_factored_diff_sq(*new, *old)),
                               x_norm=math.sqrt(_sq_norm(buf)),
                               stop_metric=_metric_on_mask(x_on, obs))

    m, n = inst.shape
    res = _iterate(advance, measure, (np.zeros((m, r)), np.zeros((n, r))), rule)
    return _finish(buf, *res.state, res, warm, M_true)


def shrink_singular_values(X, tau, start_k=4, warm=None):
    """All-above-threshold shrinkage: sum of (sigma_j - tau) * u_j v_j^T over
    sigma_j > tau, returned as its factors (W, V), W = U * (S - tau), whose
    column count is the number of values kept (0 when none is).

    Without ``warm``, or with an SvdWarmStart that holds no basis yet (a
    run's first call, or every call on the dense path), the values are
    settled: the factor count is found by growing the truncation width from
    start_k, doubling it until the smallest computed value falls at or
    below tau, each wider SVD starting from the basis the narrower one
    ended on. Each SVD is given tau as its ``floor``: it settles only the
    values it keeps, and stops once the largest estimate at or below tau
    sits below it by more than the rest of its rise, without settling the
    discarded values (see truncated_svd). A cold call's first SVD starts
    from a fresh seeded block.

    With a basis, the call is a single warm sweep from it at k = start_k
    (linalg._one_sweep, at most k + 8 of its columns, the width
    truncated_svd keeps; k at most the basis's width), as Hastie, Mazumder,
    Lee and Zadeh (JMLR 2015) run their soft-thresholded SVDs, and keeps
    the values of that sweep above tau. Ritz values never exceed the true
    ones, so a sweep whose smallest value is still above tau proves the kept
    rank is at least k: the settled widening loop then takes over at 2k,
    from the sweep's basis. Consecutive calls are the sweeps of one subspace
    iteration on a slowly changing dual, as consecutive rank projections
    are (see _project_into), and the sweep's values are only as settled as
    that iteration has made them; warm.change records their move from the
    previous call's. Either way the basis the call ends on is stored in
    warm for the next one."""
    if warm is None:
        warm = SvdWarmStart()
    mindim = min(X.shape)
    k = min(max(int(start_k), 1), mindim)
    t = None
    if warm.basis is not None:
        k = min(k, warm.basis.shape[1])
        t = _one_sweep(X, k, warm.basis[:, :k + 8])  # truncated_svd's p = k + 8
        warm.keep(t, settled=False)
    while t is None or (t.S[-1] > tau and k < mindim):
        if t is not None:
            k = min(2 * k, mindim)
        t = truncated_svd(X, k, start=warm.basis, floor=tau)
        warm.keep(t)
    keep = t.S > tau
    return t.U[:, keep] * (t.S[keep] - tau), t.V[:, keep]


def svt_complete(inst, rule=None, M_true=None):
    """Singular-value shrinkage baseline.

    The primal estimate is the shrinkage of a dual matrix supported on the
    mask; the dual then takes a scaled data-misfit step on the mask. The
    threshold is tau = 5 * max(shape) and the step delta = 1.2 / p. The rank
    of the primal estimate is data-driven, not fixed in advance.

    The run's first shrinkage settles its SVD; every later one is a single
    warm sweep from the basis the last ended on, widened by settled SVDs
    only when its smallest value is still above tau (see
    shrink_singular_values). The primal is then not the exact shrinkage of
    the dual, which puts the iteration outside the analysis of Cai, Candes
    and Shen (SIAM J. Optim. 2010), as the one-sweep projections put
    dys_complete outside the paper's theorem; the result's svd_change
    reports how far the last shrinkage's values stood from settled.

    The state is the dual as its vector on the mask plus the primal as its
    shrinkage factors (W, V), over one dense m x n buffer that is returned
    as x_opt: a step scatters the dual into the zeroed buffer, shrinks it
    and writes the primal W V^T back, and the change of the estimate,
    dy_norm, is read from the factors.
    """
    _check_truth(inst, M_true)
    if rule is None:
        rule = default_masked_rule()
    obs, flat = inst.obs, inst.obs.flat
    tau, delta = 5.0 * max(inst.shape), 1.2 / inst.p
    warm = SvdWarmStart()  # each shrinkage starts its SVD where the last ended
    buf = np.zeros(inst.shape)  # the dual, then the primal; the run's one dense array

    def advance(state, t):
        x_on, W, _ = state
        buf.fill(0.0)
        buf.reshape(-1)[flat] = x_on
        # the kept rank, W's column count, sizes the next shrinkage's first SVD
        W, V = shrink_singular_values(buf, tau, start_k=W.shape[1] + 4, warm=warm)
        np.matmul(W, V.T, out=buf)
        return x_on + delta * (obs.values - buf.take(flat)), W, V

    def measure(old, new, t, norms):
        dy_norm = math.sqrt(_factored_diff_sq(*new[1:], *old[1:]))
        return SimpleNamespace(t=t, gamma=delta, dy_norm=dy_norm, x_norm=norms[0],
                               stop_metric=_metric_on_mask(buf.take(flat), obs))

    m, n = inst.shape
    res = _iterate(advance, measure,
                   (np.zeros(len(obs)), np.zeros((m, 0)), np.zeros((n, 0))), rule)
    return _finish(buf, *res.state[1:], res, warm, M_true)
