"""Three-operator splitting engine with energy-based step-size control.

The iteration minimizes F + G + H using the prox of F, the prox of G, and
the gradient of H:

    y+ = prox_F(x, gamma)
    z+ = prox_G(2*y+ - gamma*grad_H(y+) - x, gamma)
    x+ = x + (z+ - y+)

With H = 0 this reduces to Douglas-Rachford splitting; with F = 0 it is
forward-backward splitting. Along the iterates an energy function decreases
by at least lambda_threshold(gamma) * ||y+ - y||^2 per step whenever that
coefficient is positive, so the smallest positive root gamma0 of the
coefficient bounds the admissible step sizes. gamma times the coefficient
is a cubic in gamma, so max_step_size returns gamma0 exactly, as that
cubic's smallest positive root. run derives gamma0 from the problem's own
constants; its step-size policy starts at a multiple k of gamma0 and halves
toward it whenever the iterates move too fast or grow too large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

import numpy as np

CONVERGED = "converged"
MAX_ITER = "max_iter"
DIVERGED = "diverged"

DEFAULT_STEP_FRACTION = 0.99  # run's fixed step without gamma or k: this fraction of gamma0
DEFAULT_K = 1e6               # the solvers' start multiplier k: the policy starts at k * gamma0
DECAY_FLOOR = 0.9999          # a decay never goes below DECAY_FLOOR * gamma0
DIVERGENCE_SPEED = 1000.0     # a y-step above DIVERGENCE_SPEED / t is fast motion
MAGNITUDE_CAP = 1e10          # an iterate entry above MAGNITUDE_CAP is too large


class DiagnosticsUnavailable(RuntimeError):
    """Energy diagnostics were requested but value oracles are missing."""


class OracleError(RuntimeError):
    """A prox or gradient oracle failed during a run."""


class SplittingState(NamedTuple):
    """Iterate triple (x, y, z); the multiplier loop holds (dual, least-squares, consensus)."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray


@dataclass(frozen=True)
class ThreeTermProblem:
    """Oracle bundle for one objective F + G + H.

    prox_f and prox_g map (point, gamma) to a point; grad_h maps a point to
    a vector. L is a Lipschitz constant for grad F, l a weak-convexity
    modulus of F (0 when F is convex, at most L in general), and beta a
    Lipschitz constant for grad H. Value oracles are optional: without all
    three, energy diagnostics are reported as unavailable rather than faked.
    """

    prox_f: Callable
    prox_g: Callable
    grad_h: Callable
    L: float
    l: float = 0.0
    beta: float = 0.0
    value_f: Optional[Callable] = None
    value_g: Optional[Callable] = None
    value_h: Optional[Callable] = None

    def __post_init__(self):
        if not self.L > 0:
            raise ValueError("L must be positive")
        if not self.beta >= 0:
            raise ValueError("beta must be nonnegative")
        if not self.l <= self.L:
            raise ValueError("l cannot exceed L")

    @property
    def has_values(self):
        return None not in (self.value_f, self.value_g, self.value_h)


@dataclass(frozen=True)
class StoppingRule:
    """Tolerances and iteration cap of the stop test.

    The test itself follows from what the solver measures (see check_stop):
    eps_abs and eps_rel bound the residual pair, and eps_rel alone bounds a
    recorded stop metric.
    """

    eps_abs: float = 1e-7
    eps_rel: float = 1e-5
    max_iter: int = 50000

    def __post_init__(self):
        if not (self.eps_abs > 0 and self.eps_rel > 0):
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


class RunTrace:
    """Per-iteration diagnostics of a run, held column by column.

    A row is a SimpleNamespace of floats, one attribute per column, always
    with the iteration t. The trace stores the rows in one float64 array
    with a contiguous column per name the method records (see README),
    doubling its length as rows arrive; column() of any other name raises
    KeyError, and an empty trace reads every column as an empty array.
    """

    CSV_COLUMNS = ("iter", "gamma", "energy", "dy_norm", "zy_gap", "s_dual")

    def __init__(self):
        self._names = ()
        self._data = None
        self._len = 0
        self._last = None

    def append(self, row):
        """Add a row; every row of a trace has the first row's columns, in order."""
        values = vars(row)
        names, n = tuple(values), self._len
        if n == 0:
            self._names = names
            self._data = np.empty((16, len(names)), order="F")
        elif names != self._names:
            raise ValueError(f"row columns {names} differ from the trace's {self._names}")
        elif n == len(self._data):
            self._data = np.concatenate((self._data, np.empty_like(self._data)))
        self._data[n] = tuple(values.values())
        self._len = n + 1
        self._last = row

    def __len__(self):
        return self._len

    @property
    def last(self):
        if self._last is None:
            raise IndexError("trace is empty")
        return self._last

    def column(self, name):
        if self._len == 0:
            return np.empty(0)
        key = "t" if name == "iter" else name
        if key not in self._names:
            raise KeyError(f"the trace has no {name!r} column")
        return self._data[:self._len, self._names.index(key)].copy()

    def to_csv(self, f):
        """Write the trace; accepts a path or an open text file. A column the
        method does not record is written as nan."""
        if not hasattr(f, "write"):
            with open(f, "w") as handle:
                return self.to_csv(handle)
        f.write(",".join(self.CSV_COLUMNS) + "\n")
        if self._len == 0:  # a run that diverged on its first step
            return
        cols = [self._names.index(name) if name in self._names else None
                for name in ("t",) + self.CSV_COLUMNS[1:]]
        for row in self._data[:self._len]:
            cells = [str(int(row[cols[0]]))]
            cells += ["nan" if j is None else repr(float(row[j])) for j in cols[1:]]
            f.write(",".join(cells) + "\n")


@dataclass(frozen=True)
class RunResult:
    """What every solver returns.

    state is the last finite state (a SplittingState, or the tuple of
    arrays a completion solver carries), trace its rows and status one of
    CONVERGED, MAX_ITER, DIVERGED. x_opt is the reported solution: a vector
    for sensing, the dense matrix for completion; _iterate leaves it None
    and each solver fills it. relative_error is None unless a truth was
    given. The svd_* fields are the run's SvdWarmStart totals, 0 for a
    solver that takes no SVD: svd_sweeps counts Lanczos steps and block
    sweeps, svd_products their matrix-vector products with the operand or
    its transpose, and svd_change is the last SVD's max |s - s_prev| / s_1
    if it was an unsettled one-sweep call, 0.0 after a settled one.
    """

    state: tuple
    trace: RunTrace
    status: str
    x_opt: Optional[np.ndarray] = None
    relative_error: Optional[float] = None
    svd_sweeps: int = 0
    svd_products: int = 0
    svd_change: float = 0.0

    @property
    def iterations(self):
        return len(self.trace)

    @property
    def X_opt(self):
        # the benchmark's workloads read completion results by this name
        return self.x_opt


def dys_step(problem, state, gamma):
    """One pass of the three-operator iteration at step size gamma.

    Returns the new SplittingState and the difference z+ - y+ that its x
    update adds. An oracle output y or z whose shape differs from x's
    raises ValueError.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    x = state.x
    y1 = problem.prox_f(x, gamma)
    z1 = problem.prox_g(2.0 * y1 - gamma * problem.grad_h(y1) - x, gamma)
    if not (y1.shape == z1.shape == x.shape):
        raise ValueError("x, y, z must share one shape")
    gap = z1 - y1
    return SplittingState(x=x + gap, y=y1, z=z1), gap


def _sq_norm(a):
    """||a||^2 as np.linalg.norm sums it, so its square root has norm's bits."""
    flat = a.ravel(order="K")
    return flat.dot(flat)


def _descent_cubic(L, l, beta):
    """Coefficients of gamma * lambda_threshold(gamma), highest power first.

    The descent coefficient is
    lambda(gamma) = (1/gamma - l)/2 - beta - (1/gamma + beta/2) * (2 gamma l + (1 + gamma L)^2 - 1),
    so gamma * lambda(gamma) is a cubic. It is 0.5 at gamma = 0 and, for
    L > 0 and beta >= 0, falls without bound, so it has a positive root.
    """
    if not L > 0:
        raise ValueError("L must be positive")
    if not beta >= 0:
        raise ValueError("beta must be nonnegative")
    return (-0.5 * beta * L * L, -(L * L + beta * (l + L)), -(2.5 * l + 2.0 * L + beta), 0.5)


def lambda_threshold(gamma, L, l, beta):
    """Energy descent coefficient at step size gamma."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return float(np.polyval(_descent_cubic(L, l, beta), gamma) / gamma)


def max_step_size(L, l, beta):
    """Smallest positive root gamma0 of the descent coefficient, exactly.

    gamma0 is the smallest positive real root of the cubic
    gamma * lambda(gamma). np.roots solves the reversed cubic, in 1/gamma,
    whose leading coefficient is the constant 0.5; in gamma the leading
    coefficient -beta L^2 / 2 can be tiny against the others, and the
    companion matrix then loses the root (at beta = 1e-100 none is
    positive). LAPACK returns a real eigenvalue with a zero imaginary part,
    so the filter below is exact.
    """
    u = np.roots(_descent_cubic(L, l, beta)[::-1])
    return float(1.0 / max(r.real for r in u if r.imag == 0 and r.real > 0))


def energy(problem, state, gamma):
    """Merit value of a state: F(y) + G(z) + H(y) plus quadratic corrections.

    Collapses to the plain objective when y = z. Requires all three value
    oracles; indicator-type G may return +inf for infeasible z, which is
    propagated as the energy value.
    """
    if not problem.has_values:
        raise DiagnosticsUnavailable("energy diagnostics unavailable: value oracles missing")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    x, y, z = state.x, state.y, state.z
    gh = problem.grad_h(y)
    base = problem.value_f(y) + problem.value_g(z) + problem.value_h(y)
    q_plus = np.linalg.norm(2.0 * y - z - x - gamma * gh) ** 2 / (2.0 * gamma)
    q_minus = np.linalg.norm(x - y + gamma * gh) ** 2 / (2.0 * gamma)
    gap = np.linalg.norm(y - z) ** 2 / gamma
    return base + q_plus - q_minus - gap


def adapt_gamma(gamma0, gamma, row):
    """Next step size under the decay heuristic, given the latest trace row.

    While gamma > gamma0, it is replaced by max(gamma/2, DECAY_FLOOR * gamma0)
    whenever the row's y-step exceeds DIVERGENCE_SPEED / t or its iterate
    magnitude exceeds MAGNITUDE_CAP.
    """
    if gamma <= gamma0:
        return gamma
    fast = row.dy_norm > DIVERGENCE_SPEED / row.t
    large = row.y_inf > MAGNITUDE_CAP
    if fast or large:
        return max(gamma / 2.0, DECAY_FLOOR * gamma0)
    return gamma


def check_stop(rule, row, dims):
    """Whether a trace row satisfies the rule's inequalities.

    A row that records a stop_metric (a relative masked residual) passes
    when stop_metric < eps_rel. Any other row is held to the residual pair,
    both inclusive, whose primal part is zy_gap = ||z - y||, the quantity
    stationarity_bound reads:
        zy_gap <= sqrt(dims)*eps_abs + eps_rel*max(y_norm, z_norm)
        s_dual <= sqrt(dims)*eps_abs + eps_rel*x_norm
    """
    metric = getattr(row, "stop_metric", None)
    if metric is not None:
        return metric < rule.eps_rel
    base = math.sqrt(dims) * rule.eps_abs
    ok_r = row.zy_gap <= base + rule.eps_rel * max(row.y_norm, row.z_norm)
    ok_s = row.s_dual <= base + rule.eps_rel * row.x_norm
    return ok_r and ok_s


def stationarity_bound(state, gamma, L, beta):
    """Computable bound (L + beta + 1/gamma) * ||z - y|| on the distance of 0
    from the generalized gradient of the objective at z."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return (L + beta + 1.0 / gamma) * np.linalg.norm(state.z - state.y)


class _StepPolicy:
    """The step size of a three-operator loop, iteration by iteration.

    gamma0 = max_step_size(L, l, beta). With k (at least 1) the loop starts
    at k * gamma0, and update() decays the step after each trace row per
    adapt_gamma. A fixed gamma replaces the policy; with neither, the step
    is fixed at DEFAULT_STEP_FRACTION * gamma0. Passing both, or a fixed
    gamma that is not positive (NaN included), raises ValueError before the
    run takes a step. run and the completion solvers each hold one per run.
    """

    def __init__(self, L, l, beta, gamma=None, k=None):
        if gamma is not None and k is not None:
            raise ValueError("pass either gamma or k, not both")
        if gamma is not None and not gamma > 0:
            raise ValueError("gamma must be positive")
        if k is not None and not k >= 1:
            raise ValueError("k must be at least 1")
        self.gamma0 = max_step_size(L, l, beta)
        self.adaptive = k is not None
        if k is not None:
            self.gamma = k * self.gamma0
        elif gamma is not None:
            self.gamma = gamma
        else:
            self.gamma = DEFAULT_STEP_FRACTION * self.gamma0

    def update(self, row):
        """Set the next iteration's step size from the latest trace row."""
        if self.adaptive:
            self.gamma = adapt_gamma(self.gamma0, self.gamma, row)


def run(problem, x0, gamma=None, k=None, rule=None, stop_metric=None):
    """Drive the splitting iteration until a stopping rule fires.

    The step-size root gamma0 = max_step_size(problem.L, problem.l,
    problem.beta) comes from the problem's own constants.

    Parameters
    ----------
    problem : ThreeTermProblem
    x0 : array, starting point
    gamma : float, fixed step size; with neither gamma nor k the step is
        fixed at DEFAULT_STEP_FRACTION * gamma0 (0.99 * gamma0)
    k : float >= 1, adaptive step sizes: the run starts at k * gamma0 and
        decays toward gamma0 per adapt_gamma (mutually exclusive with gamma)
    rule : StoppingRule, defaults to StoppingRule()
    stop_metric : callable state -> float, recorded each iteration; when
        given, the run stops on it instead of the residual pair (see
        check_stop)

    The trace records the energy exactly when the problem has value oracles.

    Returns
    -------
    RunResult with the final SplittingState, the trace, a status among
    "converged", "max_iter", "diverged", and x_opt the state's z.
    Non-finite iterates stop the run with the last finite state. An oracle
    that raises, or returns a y or z whose shape differs from x's, raises
    OracleError naming the iteration.
    """
    steps = _StepPolicy(problem.L, problem.l, problem.beta, gamma=gamma, k=k)
    if rule is None:
        rule = StoppingRule()
    record_energy = problem.has_values

    x0 = np.asarray(x0, dtype=float)
    start = SplittingState(x0, x0, x0)
    zy_sq = 0.0  # ||z+ - y+||^2 of the latest step; the difference itself is not kept

    def advance(state, t):
        nonlocal zy_sq
        new, gap = dys_step(problem, state, steps.gamma)
        zy_sq = _sq_norm(gap)
        return new

    def measure(old, new, t, norms):
        row = SimpleNamespace(t=t, gamma=steps.gamma, dy_norm=math.sqrt(_sq_norm(new.y - old.y)),
                              zy_gap=math.sqrt(zy_sq), s_dual=math.sqrt(_sq_norm(new.z - old.z)),
                              x_norm=norms[0], y_norm=norms[1], z_norm=norms[2],
                              y_inf=float(max(new.y.max(), -new.y.min())) if new.y.size else 0.0)
        if record_energy:
            row.energy = float(energy(problem, new, steps.gamma))
        if stop_metric is not None:
            row.stop_metric = float(stop_metric(new))
        steps.update(row)
        return row

    res = _iterate(advance, measure, start, rule)
    return replace(res, x_opt=res.state.z)


def _iterate(advance, measure, start, rule, trace=None):
    """The one iteration loop behind every solver; returns a RunResult
    without x_opt.

    advance(state, t) returns iteration t's state, a tuple of arrays (a
    SplittingState or a plain tuple); measure(old, new, t, norms) returns
    its trace row (see RunTrace) once every array of the new state is
    finite, given the arrays' Frobenius norms, bit for bit those of
    np.linalg.norm. check_stop scales its tolerances by the size of the
    state's first array. A step that raises is an OracleError naming
    iteration t, with the step's own error as its __cause__. A non-finite
    state ends the run diverged, keeping the last finite state and not
    counting the failed iteration; a recorded y_inf above 1e30 ends it
    diverged at that state. The rows are appended to trace, a new RunTrace
    unless given, so a solver's iteration count is its trace's length. The
    finiteness test reads each array's squared norm and scans the entries
    only when that sum is not finite, which also happens when finite
    entries overflow it.
    """
    dims = start[0].size
    trace = RunTrace() if trace is None else trace
    state, start = start, None  # keep no reference to a state the loop has left
    for t in range(1, rule.max_iter + 1):
        try:
            new = advance(state, t)
        except Exception as exc:
            raise OracleError(f"oracle failure at iteration {t}") from exc
        squares = [_sq_norm(array) for array in new]
        for array, sq in zip(new, squares):
            if not math.isfinite(sq) and not np.isfinite(array).all():
                return RunResult(state, trace, DIVERGED)
        row = measure(state, new, t, [math.sqrt(sq) for sq in squares])
        trace.append(row)
        state = new
        if getattr(row, "y_inf", 0.0) > 1e30:
            return RunResult(state, trace, DIVERGED)
        if check_stop(rule, row, dims):
            return RunResult(state, trace, CONVERGED)
    return RunResult(state, trace, MAX_ITER)
