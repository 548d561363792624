"""Sparse-recovery solvers for underdetermined linear measurements.

Three methods share one instance type. admm_lasso is the multiplier-splitting
baseline for the convex l1 model. dca_l12 minimizes the nonconvex
l1-minus-l2 model by linearizing the concave part each outer pass and
handing the convexified subproblem to the same multiplier loop. dys_l12
attacks the l1-minus-l2 model directly with the three-operator engine: a
regularized least-squares prox, a soft-threshold prox, and the gradient of
the negative l2 norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple, Optional

import numpy as np

from .linalg import as_matrix, as_vector, gram_spectral_norm
from .prox import GramSolver, grad_neg_l2, soft_threshold
# the benchmark hooks run and check_stop here (check_stop is imported only for it)
from .splitting import (CONVERGED, DEFAULT_K, DIVERGED, MAX_ITER, RunTrace,
                        SplittingState, StoppingRule, ThreeTermProblem, _iterate,
                        _sq_norm, check_stop, max_step_size, run)

SUCCESS_THRESHOLD = 1e-4
SPARSITY_TRUNCATION = 5e-6
ORIGIN_GUARD = 1e-12

ADMM_LAMBDA = 1e-6
L12_LAMBDA = 1e-5
ADMM_RHO = 1e-5
DCA_RHO = 1e-3
DCA_OUTER_MAX = 10
DCA_OUTER_TOL = 1e-2


@dataclass(frozen=True)
class SensingInstance:
    """Measurement bundle: matrix A (m x n), data b, optional ground truth."""

    A: np.ndarray
    b: np.ndarray
    x_true: Optional[np.ndarray] = None

    def __post_init__(self):
        A = as_matrix(self.A)
        b = as_vector(self.b)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        if self.x_true is not None:
            object.__setattr__(self, "x_true", as_vector(self.x_true))
            if self.x_true.size != A.shape[1]:
                raise ValueError("ground truth length differs from column count")
        if b.size != A.shape[0]:
            raise ValueError("measurement length differs from row count")
        if not np.any(b):
            raise ValueError("measurement vector must be nonzero")

    @property
    def m(self):
        return self.A.shape[0]

    @property
    def n(self):
        return self.A.shape[1]


class EvalMetrics(NamedTuple):
    relative_error: float
    success: bool
    sparsity: int


def truncated_sparsity(x):
    """Support size after zeroing entries below SPARSITY_TRUNCATION in magnitude."""
    return int(np.count_nonzero(np.abs(np.asarray(x, float)) >= SPARSITY_TRUNCATION))


def evaluate(x_opt, x_true):
    """Relative error, success flag, and truncated sparsity of a recovery."""
    x_opt = as_vector(x_opt)
    if x_true is None:
        raise ValueError("ground truth missing")
    x_true = as_vector(x_true)
    den = np.linalg.norm(x_true)
    if den == 0.0:
        raise ValueError("ground truth is zero; relative error undefined")
    rel = float(np.linalg.norm(x_opt - x_true) / den)
    return EvalMetrics(rel, rel < SUCCESS_THRESHOLD, truncated_sparsity(x_opt))


@dataclass
class RecoveryReport:
    x_opt: np.ndarray
    iterations: int
    status: str
    success: Optional[bool] = None
    relative_error: Optional[float] = None
    sparsity: Optional[int] = None
    min_y_norm: float = float("nan")
    origin_hits: int = 0
    beta_local: float = float("nan")
    end_state: Optional[dict] = None  # terminal solver variables, for restarts
    trace: Optional[RunTrace] = None

    def attach_metrics(self, x_true):
        if x_true is not None:
            m = evaluate(self.x_opt, x_true)
            self.relative_error, self.success, self.sparsity = m.relative_error, m.success, m.sparsity
        else:
            self.sparsity = truncated_sparsity(self.x_opt)
        return self


def _multiplier_loop(A, b, lam, rho, rule, shift=None, z0=None, x0=None, solver=None,
                     trace=None):
    """Shared core of the multiplier methods.

    Iterates a regularized least-squares step (with an optional constant
    shift added to the right-hand side), a soft-threshold consensus step,
    and an unscaled dual update, until the paired-residual rule fires:
        y+ = solve(A^T A + rho I, A^T b + shift + rho z - x)
        z+ = soft_threshold(y+ + x/rho, lam/rho)
        x+ = x + rho (y+ - z+)
    The x feedback in the first step is unscaled; scaling it by rho would
    decouple the dual from the least-squares step and stall convergence.
    Returns a RunResult whose state is SplittingState(x=dual, y=least-squares
    iterate, z=consensus iterate), the names the reports' end_state uses; a
    non-finite step ends the run diverged with the last finite triple. The
    rows go to trace when one is given (see _iterate).
    """
    n = A.shape[1]
    solver = GramSolver(A) if solver is None else solver
    Atb = A.T @ b
    rhs_const = Atb if shift is None else Atb + shift

    gap_sq = 0.0  # ||y+ - z+||^2 of the latest step; the difference itself is not kept

    def advance(state, t):
        nonlocal gap_sq
        x = state.x
        y = solver.solve(rho, rhs_const + rho * state.z - x)
        z = soft_threshold(y + x / rho, lam / rho)
        gap = y - z
        gap_sq = _sq_norm(gap)
        return SplittingState(x=x + rho * gap, y=y, z=z)

    def measure(old, new, t, norms):
        return SimpleNamespace(t=t, dy_norm=math.sqrt(_sq_norm(new.y - old.y)),
                               zy_gap=math.sqrt(gap_sq),
                               s_dual=rho * math.sqrt(_sq_norm(new.z - old.z)),
                               x_norm=norms[0], y_norm=norms[1], z_norm=norms[2])

    start = SplittingState(x=np.zeros(n) if x0 is None else x0.copy(), y=np.zeros(n),
                           z=np.zeros(n) if z0 is None else z0.copy())
    return _iterate(advance, measure, start, rule, trace)


def noise_scaled_weight(A, sigma):
    """Universal-threshold weight sigma * sqrt(2 log n) * max_j ||a_j||_2.

    This is the l1/l1-minus-l2 weight used for measurements carrying
    Gaussian noise of standard deviation sigma: with it, the noise's
    correlation with every column stays below the weight with high
    probability, so the recovered support is not fitted to the noise. The
    solver defaults (lam = 1e-5 and 1e-6) are noiseless settings; at
    sigma = 0.01 they sit three orders of magnitude below this weight and
    every method returns a dense interpolant of the noise.
    """
    A = as_matrix(A)
    if not sigma >= 0:
        raise ValueError("sigma must be nonnegative")
    n = A.shape[1]
    return float(sigma * math.sqrt(2.0 * math.log(n)) * np.max(np.linalg.norm(A, axis=0)))


def admm_lasso(inst, rule=None, lam=None, rho=None):
    """Multiplier splitting for the l1-regularized least-squares model.

    Defaults: lam = 1e-6, rho = 1e-5, paired-residual tolerances
    (1e-7 absolute, 1e-5 relative), at most 50000 iterations. The reported
    solution is the thresholded consensus iterate.
    """
    if rule is None:
        rule = StoppingRule()
    lam = ADMM_LAMBDA if lam is None else lam
    rho = ADMM_RHO if rho is None else rho
    if not (lam >= 0 and rho > 0):
        raise ValueError("need lam >= 0 and rho > 0")
    res = _multiplier_loop(inst.A, inst.b, lam, rho, rule)
    report = RecoveryReport(x_opt=res.state.z, iterations=len(res.trace), status=res.status,
                            end_state=dict(res.state._asdict(), lam=lam, rho=rho), trace=res.trace)
    return report.attach_metrics(inst.x_true)


def dca_l12(inst, outer_max=DCA_OUTER_MAX, inner_rule=None, lam=None, rho=None,
            outer_tol=DCA_OUTER_TOL):
    """Difference-of-convex solver for the l1-minus-l2 model.

    Each outer pass linearizes the concave -lam*||x||_2 term at the current
    solution (taking the zero vector's linearization to be zero) and solves
    the convexified subproblem with the multiplier loop, warm-started from
    the previous pass. Outer passes stop when successive solutions move by
    less than outer_tol relative to max(||previous||, 1). Defaults:
    lam = 1e-5, rho = 1e-3, at most 10 outer and 5000 inner iterations.

    The status is converged only when the outer test fired and the final
    inner pass met its own stopping rule; an outer stop reached through an
    inner pass that ran out of iterations reports max_iter. The reported
    solution is the unthresholded least-squares iterate y of the last inner
    pass, not its thresholded consensus iterate z (admm_lasso reports z), so
    its truncated sparsity counts small entries the threshold would zero.
    The report's trace holds the rows of all inner passes in order, its t
    column restarting at 1 with each pass, and its length is the iteration
    count.
    """
    if inner_rule is None:
        inner_rule = StoppingRule(max_iter=5000)
    if outer_max < 1:
        raise ValueError("outer_max must be at least 1")
    lam = L12_LAMBDA if lam is None else lam
    rho = DCA_RHO if rho is None else rho
    if not (lam >= 0 and rho > 0):
        raise ValueError("need lam >= 0 and rho > 0")
    solver = GramSolver(inst.A)
    y_outer = np.zeros(inst.n)
    z0 = x0 = None
    shift = None
    trace = RunTrace()
    status = MAX_ITER
    for _ in range(outer_max):
        ny = np.linalg.norm(y_outer)
        shift = (lam / ny) * y_outer if ny > 0 else None
        res = _multiplier_loop(inst.A, inst.b, lam, rho, inner_rule, shift=shift,
                               z0=z0, x0=x0, solver=solver, trace=trace)
        if res.status == DIVERGED:
            status = DIVERGED
            break
        change = np.linalg.norm(res.state.y - y_outer) / max(ny, 1.0)
        y_outer, z0, x0 = res.state.y, res.state.z, res.state.x
        if change < outer_tol:
            status = CONVERGED if res.status == CONVERGED else MAX_ITER
            break
    report = RecoveryReport(x_opt=y_outer, iterations=len(trace), status=status,
                            end_state=dict(y=y_outer, z=z0, x=x0, lam=lam,
                                           rho=rho, shift=shift),
                            trace=trace)
    return report.attach_metrics(inst.x_true)


def dys_l12(inst, rule=None, gamma=None, lam=None, k=DEFAULT_K, with_energy=False):
    """Three-operator splitting for the l1-minus-l2 model.

    The least-squares prox is solved through a cached factorization, the l1
    prox is a soft threshold at gamma*lam, and the concave term contributes
    gamma*lam*y/||y|| inside the threshold argument. The engine (run) derives
    the step-size root gamma0 from the problem's constants: L = ||A||_2^2 (the
    measured top eigenvalue of A^T A), l = 0, and beta = 1 by convention,
    because the gradient of -lam*||y|| has no global Lipschitz constant (see
    beta_local below). A fixed gamma ignores k. Without one, the run starts at
    k * gamma0 and decays per the engine heuristic. For lam > 0 that start is
    capped at ||A^T b||_inf / lam, or gamma0 if that is larger, by lowering k
    before the run; dys_l12 computes gamma0 only for this cap. The first
    threshold level gamma*lam so stays at or below ||A^T b||_inf, the smallest
    l1 weight at which zero solves the convex l1 model. Without the cap a
    noise-scaled weight (see noise_scaled_weight) put the first threshold
    level hundreds of times above that data scale on the desk-scale cosine
    frames; the iterates ran off to |y| of several hundred before the decay
    heuristic lowered gamma, and the runs ended with relative errors in the
    tens to hundreds. At small weights the cap lies above k * gamma0 and
    changes nothing; lam = 0 keeps k * gamma0. Iterates whose norm falls below
    1e-12 are counted in the report's origin_hits, and beta_local reports
    lam / min ||y|| as the locally valid smoothness constant. k=None, like
    run's, fixes the step at DEFAULT_STEP_FRACTION * gamma0, with no cap.
    """
    lam = L12_LAMBDA if lam is None else lam
    if not lam >= 0:
        raise ValueError("lam must be nonnegative")
    Atb = inst.A.T @ inst.b
    solver = GramSolver(inst.A)

    def prox_f(v, g):
        return solver.solve(1.0 / g, Atb + v / g)

    def prox_g(v, g):
        return soft_threshold(v, g * lam)

    def grad_h(y):
        return grad_neg_l2(y, lam)

    values = {}
    if with_energy:
        A, b = inst.A, inst.b
        values = dict(
            value_f=lambda y: 0.5 * float(np.sum((A @ y - b) ** 2)),
            value_g=lambda z: lam * float(np.sum(np.abs(z))),
            value_h=lambda y: -lam * float(np.linalg.norm(y)),
        )
    problem = ThreeTermProblem(prox_f=prox_f, prox_g=prox_g, grad_h=grad_h,
                               L=max(gram_spectral_norm(inst.A), np.finfo(float).tiny),
                               l=0.0, beta=1.0, **values)
    if gamma is not None:
        k = None
    elif lam > 0 and k is not None:
        gamma0 = max_step_size(problem.L, problem.l, problem.beta)
        k = min(k, max(1.0, float(np.max(np.abs(Atb))) / (lam * gamma0)))
    res = run(problem, np.zeros(inst.n), gamma=gamma, k=k, rule=rule)
    y_norms = res.trace.column("y_norm")
    min_y = float(np.min(y_norms)) if len(y_norms) else float("nan")
    final_gamma = res.trace.last.gamma if len(res.trace) else float("nan")
    report = RecoveryReport(
        x_opt=res.state.z, iterations=len(res.trace), status=res.status,
        min_y_norm=min_y,
        origin_hits=int(np.count_nonzero(y_norms < ORIGIN_GUARD)),
        beta_local=lam / max(min_y, np.finfo(float).tiny) if math.isfinite(min_y) else float("nan"),
        end_state=dict(res.state._asdict(), gamma=final_gamma, lam=lam),
        trace=res.trace,
    )
    return report.attach_metrics(inst.x_true)
