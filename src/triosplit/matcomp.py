"""Matrix-completion solvers.

The main solver runs the three-operator iteration on the rank-constrained
completion objective

    0.5 * ||masked(X) - data||^2  +  indicator(rank <= r)  +  (lam/2)*||X||^2

whose three blocks give a masked averaging prox, a rank projection, and a
linear gradient. Its iterates are those of splitting.run, carried as a
dense rank-r matrix plus a vector on the mask (see _masked_complete).
Dropping the quadratic tail (lam = 0) recovers classical Douglas-Rachford
splitting on the same constraint set. Two baselines are
included: projected gradient descent with rank truncation (svp_complete)
and singular-value shrinkage with a dual update on the mask (svt_complete).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .linalg import (ObservationSet, SvdWarmStart, as_matrix,
                     masked_relative_residual, truncated_svd)
# prox_masked_quadratic, run and check_stop are imported only for the
# benchmark's hooks on them here (bench/tracing.py); the solvers call none
from .prox import grad_frobenius_reg, prox_masked_quadratic, rank_projection
from .splitting import (DEFAULT_K, RunTrace, SplittingState, StoppingRule,
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


@dataclass
class CompletionResult:
    X_opt: np.ndarray
    iterations: int
    status: str
    trace: RunTrace
    relative_error: Optional[float] = None
    svd_sweeps: int = 0  # sweeps of the SVDs the run's SvdWarmStart kept (not energy checks)
    svd_products: int = 0  # their products with the operand or its transpose


def default_masked_rule(max_iter=2000):
    return StoppingRule(eps_rel=MASKED_TOL, max_iter=max_iter)


def relative_error(X, M):
    """Frobenius error of X against M, relative to ||M||."""
    X = as_matrix(X)
    M = as_matrix(M)
    den = np.linalg.norm(M)
    if den == 0.0:
        raise ValueError("reference matrix is zero; relative error undefined")
    return np.linalg.norm(X - M) / den


def rmse(X, test_obs):
    """Root mean squared misfit of X on a held-out observation set."""
    X = as_matrix(X)
    if len(test_obs) == 0:
        raise ValueError("test set is empty")
    diff = X.take(test_obs.flat) - test_obs.values
    return math.sqrt(float(np.mean(diff ** 2)))


def _masked_metric(X, obs):
    # relative misfit on the mask; degenerate all-zero data falls back to the
    # absolute misfit so a zero instance reads as solved at X = 0
    if obs.values_norm == 0.0:
        return float(np.linalg.norm(X.take(obs.flat)))
    return masked_relative_residual(X, obs)


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
        # energy is evaluated only at outputs of rank_projection, whose rank
        # is at most r by construction: g, the rank-r indicator, is 0
        value_g=lambda Z: 0.0,
        value_h=lambda X: 0.5 * lam * float(np.sum(X ** 2)))


def _masked_complete(inst, lam, gamma, rule, k, M_true, with_energy):
    """The three-operator iteration on the completion objective, carried as
    a dense rank-r z and one vector s on the mask.

    The first prox is a masked average, so off the mask y+ = x and
    x+ = z+; the state (z, s) stands for x = z off the mask and
    x = z - s on it. A step writes the projection argument
    2 y - gamma * lam * y - x, which is (1 - gamma * lam) * z off the mask,
    as one dense array, and measures the row from ||z+||, the one dense
    difference z+ - z and vectors on the mask. Off the mask, z+ - y+ is
    that difference and y+ - y the previous step's; y = z_prev there, so
    y_inf is exact. No dense x or y is formed unless with_energy asks.
    """
    if rule is None:
        rule = default_masked_rule()
    obs, flat = inst.obs, inst.obs.flat
    objective = _objective_values(obs, lam)
    steps = _StepPolicy(objective.L, objective.l, objective.beta,
                        gamma=gamma, k=None if gamma is not None else k)
    warm = SvdWarmStart()  # one per run: each projection starts where the last ended
    # what the next row reads of the current state besides z itself: z and the
    # latest y on the mask, and off it ||z - z_prev||^2, ||z||^2 and max |z|
    last = SimpleNamespace(z_on=np.zeros(len(obs)), y_on=np.zeros(len(obs)),
                           dz_off_sq=0.0, z_off_sq=0.0, z_off_inf=0.0)
    y_on = None

    def advance(state, t):
        nonlocal y_on
        z, s = state
        g = steps.gamma
        try:
            if g <= 0:
                raise ValueError("gamma must be positive")
            x_on = last.z_on - s
            y_on = (x_on + g * obs.values) / (1.0 + g)
            arg = np.multiply(z, 1.0 - g * lam, order="C")
            arg.reshape(-1)[flat] = 2.0 * y_on - g * (lam * y_on) - x_on
            z_new = rank_projection(arg, inst.r, warm=warm)
        except Exception as exc:
            raise steps.failure(t) from exc
        return z_new, y_on - x_on

    def measure(old, new, t, norms):
        (z, _), (z_new, s_new) = old, new
        z_on = z_new.take(flat)
        diff = z_new - z
        diff.reshape(-1)[flat] = 0.0
        dz_off_sq = _sq_norm(diff)
        del diff
        # max |z+| off the mask: zero its mask entries in place, then restore
        # them (rank_projection returns a C-ordered array, so this is a view)
        flat_z = z_new.reshape(-1)
        flat_z[flat] = 0.0
        z_off_inf = float(max(z_new.max(), -z_new.min()))
        flat_z[flat] = z_on
        z_off_sq = max(norms[0] ** 2 - _sq_norm(z_on), 0.0)
        x_on = z_on - s_new
        zy = math.sqrt(dz_off_sq + _sq_norm(z_on - y_on))
        row = SimpleNamespace(
            t=t, gamma=steps.gamma, dy_norm=math.sqrt(last.dz_off_sq + _sq_norm(y_on - last.y_on)),
            zy_gap=zy, r_primal=zy, s_dual=math.sqrt(dz_off_sq + _sq_norm(z_on - last.z_on)),
            x_norm=math.sqrt(z_off_sq + _sq_norm(x_on)),
            y_norm=math.sqrt(last.z_off_sq + _sq_norm(y_on)), z_norm=norms[0],
            y_inf=max(last.z_off_inf, float(np.abs(y_on).max())))
        if with_energy:
            x, y = z_new.copy(), z.copy()
            x.reshape(-1)[flat] = x_on
            y.reshape(-1)[flat] = y_on
            row.energy = float(energy(objective, SplittingState(x, y, z_new), steps.gamma))
        # the masked stop watches the rank-feasible iterate, the same estimate
        # the baselines test and the one reported as the solution; this is
        # _masked_metric(z_new, obs), read from z_new's entries on the mask
        if obs.values_norm == 0.0:
            row.stop_metric = float(np.linalg.norm(z_on))
        else:
            row.stop_metric = float(np.linalg.norm(z_on - obs.values) / obs.values_norm)
        steps.update(row)
        last.z_on, last.y_on = z_on, y_on
        last.dz_off_sq, last.z_off_sq, last.z_off_inf = dz_off_sq, z_off_sq, z_off_inf
        return row

    (z, _), trace, status = _iterate(advance, measure, (np.zeros(inst.shape), np.zeros(len(obs))),
                                     rule)
    err = relative_error(z, M_true) if M_true is not None else None
    return CompletionResult(X_opt=z, iterations=len(trace), status=status, trace=trace,
                            relative_error=err, svd_sweeps=warm.sweeps, svd_products=warm.products)


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
    same trace columns, but carried as the dense rank-r z plus one vector
    on the mask (x = z off the mask, x = z - s on it): an iteration forms
    the projection argument, the projection and one difference z+ - z as
    dense arrays, and no dense x or y unless with_energy asks for the
    energy column.
    """
    return _masked_complete(inst, inst.lam, gamma, rule, k, M_true, with_energy)


def drs_complete(inst, rule=None, gamma=None, k=DEFAULT_K, M_true=None,
                 with_energy=False):
    """Douglas-Rachford completion: dys_complete at lam = 0.

    The instance's lam is ignored; with the smooth term gone, beta = 0
    feeds the step-size root.
    """
    return _masked_complete(inst, 0.0, gamma, rule, k, M_true, with_energy)


def svp_complete(inst, rule=None, eta=None, M_true=None):
    """Projected gradient baseline: gradient step on the mask, then rank
    truncation. The default step schedule is 1 / (p * sqrt(t)); a float eta
    fixes the step instead."""
    if rule is None:
        rule = default_masked_rule()
    obs, r, p = inst.obs, inst.r, inst.p
    eta = None if eta is None else float(eta)
    warm = SvdWarmStart()
    step = None

    def advance(state, t):
        nonlocal step
        (X,) = state
        step = 1.0 / (p * math.sqrt(t)) if eta is None else eta
        Y = X.copy()
        Y.reshape(-1)[obs.flat] = Y.take(obs.flat) - step * (X.take(obs.flat) - obs.values)
        return (rank_projection(Y, r, warm=warm),)

    def measure(old, new, t, norms):
        return SimpleNamespace(t=t, gamma=step, dy_norm=float(np.linalg.norm(new[0] - old[0])),
                               x_norm=norms[0], stop_metric=_masked_metric(new[0], obs))

    (X,), trace, status = _iterate(advance, measure, (np.zeros(inst.shape),), rule)
    err = relative_error(X, M_true) if M_true is not None else None
    return CompletionResult(X_opt=X, iterations=len(trace), status=status,
                            trace=trace, relative_error=err, svd_sweeps=warm.sweeps,
                            svd_products=warm.products)


def shrink_singular_values(X, tau, start_k=4, warm=None):
    """All-above-threshold shrinkage: sum of (sigma_j - tau) * u_j v_j^T over
    sigma_j > tau. The factor count is found by growing the truncation width
    until the smallest computed value falls at or below tau; each wider SVD
    starts from the basis the narrower one ended on. Each SVD is given tau
    as its ``floor``: it settles only the values it keeps, and stops once
    the largest estimate at or below tau sits below it by more than the
    rest of its rise, without settling the discarded values (see
    truncated_svd).

    Without ``warm`` this is a cold one-shot call: the first SVD starts from
    a fresh seeded block. With an SvdWarmStart it starts from the basis the
    previous call ended on, and the new basis is stored for the next one."""
    if warm is None:
        warm = SvdWarmStart()
    mindim = min(X.shape)
    k = min(max(int(start_k), 1), mindim)
    while True:
        t = truncated_svd(X, k, start=warm.basis, floor=tau)
        warm.keep(t)
        if t.S[-1] <= tau or k == mindim:
            break
        k = min(2 * k, mindim)
    keep = t.S > tau
    count = int(np.count_nonzero(keep))
    if count == 0:
        return np.zeros(X.shape), 0
    U, S, V = t.U[:, keep], t.S[keep], t.V[:, keep]
    return (U * (S - tau)) @ V.T, count


def svt_step(X, obs, tau, delta, start_k=4, warm=None):
    """One shrinkage/dual-update pass: primal Y+ = shrink(X), then the dual
    steps toward the data on the mask and stays zero elsewhere. ``warm`` is
    passed on to shrink_singular_values; without it the call is cold."""
    Y_new, rank = shrink_singular_values(X, tau, start_k=start_k, warm=warm)
    X_new = np.zeros(X.shape)
    X_new.reshape(-1)[obs.flat] = X.take(obs.flat) + delta * (obs.values - Y_new.take(obs.flat))
    return Y_new, X_new, rank


def svt_complete(inst, rule=None, M_true=None):
    """Singular-value shrinkage baseline.

    The primal estimate is the shrinkage of a dual matrix supported on the
    mask; the dual then takes a scaled data-misfit step on the mask. The
    threshold is tau = 5 * max(shape) and the step delta = 1.2 / p. The rank
    of the primal estimate is data-driven, not fixed in advance.
    """
    if rule is None:
        rule = default_masked_rule()
    obs = inst.obs
    tau, delta = 5.0 * max(inst.shape), 1.2 / inst.p

    warm = SvdWarmStart()  # each shrinkage starts its SVD where the last ended
    rank = 0

    def advance(state, t):  # state is (dual X, kept supported on the mask, primal Y)
        nonlocal rank
        Y_new, X_new, rank = svt_step(state[0], obs, tau, delta, start_k=rank + 4, warm=warm)
        return X_new, Y_new

    def measure(old, new, t, norms):
        return SimpleNamespace(t=t, gamma=delta, dy_norm=float(np.linalg.norm(new[1] - old[1])),
                               x_norm=norms[0], stop_metric=_masked_metric(new[1], obs))

    (_, Y), trace, status = _iterate(advance, measure, (np.zeros(inst.shape),) * 2, rule)
    err = relative_error(Y, M_true) if M_true is not None else None
    return CompletionResult(X_opt=Y, iterations=len(trace), status=status,
                            trace=trace, relative_error=err, svd_sweeps=warm.sweeps,
                            svd_products=warm.products)
