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
coefficient bounds the admissible step sizes. The step-size policy here
starts at a multiple of gamma0 and halves toward it whenever the iterates
move too fast or grow too large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

CONVERGED = "converged"
MAX_ITER = "max_iter"
DIVERGED = "diverged"

STOP_MODES = ("residual_pair", "masked_relative", "iterate_change")


class DiagnosticsUnavailable(RuntimeError):
    """Energy diagnostics were requested but value oracles are missing."""


class OracleError(RuntimeError):
    """A prox or gradient oracle failed during a run."""


@dataclass(frozen=True)
class SplittingState:
    """Iterate triple (x, y, z) plus the iteration counter."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    t: int

    def __post_init__(self):
        if not (self.x.shape == self.y.shape == self.z.shape):
            raise ValueError("x, y, z must share one shape")

    @classmethod
    def initial(cls, x0):
        """Starting state; y and z are seeded with x0 before the first step."""
        x0 = np.asarray(x0, dtype=float)
        return cls(x=x0, y=x0, z=x0, t=0)


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
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if self.l > self.L:
            raise ValueError("l cannot exceed L")

    @property
    def has_values(self):
        return None not in (self.value_f, self.value_g, self.value_h)


@dataclass(frozen=True)
class StepSizePolicy:
    """Adaptive step-size heuristic.

    The run starts at k * gamma0 and, while gamma > gamma0, replaces it by
    max(gamma/2, decay_floor * gamma0) whenever the latest y-step exceeds
    divergence_speed / t or the iterate magnitude exceeds magnitude_cap.
    """

    gamma0: float
    k: float = 1.0
    decay_floor: float = 0.9999
    divergence_speed: float = 1000.0
    magnitude_cap: float = 1e10

    def __post_init__(self):
        if not self.gamma0 > 0:
            raise ValueError("gamma0 must be positive")
        if self.k < 1:
            raise ValueError("k must be at least 1")

    def initial_gamma(self):
        return self.k * self.gamma0


@dataclass(frozen=True)
class StoppingRule:
    """Termination test selection.

    residual_pair: ||r|| <= sqrt(n)*eps_abs + eps_rel*max(||y||, ||z||) and
                   ||s|| <= sqrt(n)*eps_abs + eps_rel*||x||  (both inclusive)
    masked_relative: the run's stop metric (a relative masked residual
                   supplied by the caller) drops below eps_rel
    iterate_change: ||x+ - x|| / max(||x||, 1) drops below eps_rel
    """

    eps_abs: float = 1e-7
    eps_rel: float = 1e-5
    max_iter: int = 50000
    mode: str = "residual_pair"

    def __post_init__(self):
        if self.eps_abs <= 0 or self.eps_rel <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.mode not in STOP_MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {STOP_MODES}")


@dataclass(frozen=True)
class TraceRecord:
    """Diagnostics for one iteration."""

    t: int
    gamma: float
    energy: float
    dy_norm: float
    zy_gap: float
    r_primal: float
    s_dual: float
    x_norm: float
    y_norm: float
    z_norm: float
    y_inf: float
    x_change_ratio: float
    stop_metric: float


class RunTrace:
    """Per-iteration records of a run, serializable to CSV."""

    CSV_COLUMNS = ("iter", "gamma", "energy", "dy_norm", "zy_gap", "r_primal", "s_dual")

    def __init__(self):
        self.records = []

    def append(self, record):
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    def __getitem__(self, i):
        return self.records[i]

    @property
    def last(self):
        return self.records[-1]

    def column(self, name):
        key = "t" if name == "iter" else name
        return np.array([getattr(r, key) for r in self.records])

    def to_csv(self, f):
        """Write the trace; accepts a path or an open text file."""
        if hasattr(f, "write"):
            self._write(f)
        else:
            with open(f, "w") as handle:
                self._write(handle)

    def _write(self, handle):
        handle.write(",".join(self.CSV_COLUMNS) + "\n")
        for r in self.records:
            vals = (r.t, r.gamma, r.energy, r.dy_norm, r.zy_gap, r.r_primal, r.s_dual)
            handle.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in vals))
            handle.write("\n")


@dataclass
class RunResult:
    state: SplittingState
    trace: RunTrace
    status: str


def dys_step(problem, state, gamma):
    """One pass of the three-operator iteration at step size gamma."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    y1 = problem.prox_f(state.x, gamma)
    z1 = problem.prox_g(2.0 * y1 - gamma * problem.grad_h(y1) - state.x, gamma)
    x1 = state.x + (z1 - y1)
    return SplittingState(x=x1, y=y1, z=z1, t=state.t + 1)


def lambda_threshold(gamma, L, l, beta):
    """Energy descent coefficient at step size gamma."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return (
        0.5 * (1.0 / gamma - l)
        - beta
        - (1.0 / gamma + 0.5 * beta) * ((-1.0 + 2.0 * gamma * l) + (1.0 + gamma * L) ** 2)
    )


def max_step_size(L, l, beta, value_tol=1e-10, gamma_min=1e-12, gamma_max=1e3):
    """Smallest positive root of the descent coefficient, by bisection.

    The coefficient blows up to +inf as gamma -> 0, so a geometric scan from
    gamma_min locates the first sign change and bisection polishes it until
    the coefficient is within value_tol of zero.
    """
    lo = gamma_min
    if lambda_threshold(lo, L, l, beta) <= 0:
        raise RuntimeError("descent coefficient not positive at the scan origin")
    hi = None
    g = lo
    while g < gamma_max:
        g_next = g * 1.5
        if lambda_threshold(g_next, L, l, beta) < 0:
            hi = g_next
            lo = g
            break
        g = g_next
    if hi is None:
        raise RuntimeError(f"no sign change of the descent coefficient in ({gamma_min}, {gamma_max}]")
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = lambda_threshold(mid, L, l, beta)
        if abs(val) <= value_tol:
            return mid
        if val > 0:
            lo = mid
        else:
            hi = mid
    val = lambda_threshold(mid, L, l, beta)
    if abs(val) <= value_tol:
        return mid
    raise RuntimeError(f"bisection stalled with coefficient {val:.3e} at gamma={mid!r}")


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


def adapt_gamma(policy, gamma, trace):
    """Next step size under the decay heuristic, given the latest record."""
    if gamma <= policy.gamma0:
        return gamma
    rec = trace.last
    fast = rec.dy_norm > policy.divergence_speed / rec.t
    large = rec.y_inf > policy.magnitude_cap
    if fast or large:
        return max(gamma / 2.0, policy.decay_floor * policy.gamma0)
    return gamma


def check_stop(rule, trace, dims):
    """Whether the latest record satisfies the rule's inequalities."""
    if len(trace) == 0:
        raise ValueError("trace is empty")
    rec = trace.last
    if rule.mode == "residual_pair":
        base = math.sqrt(dims) * rule.eps_abs
        ok_r = rec.r_primal <= base + rule.eps_rel * max(rec.y_norm, rec.z_norm)
        ok_s = rec.s_dual <= base + rule.eps_rel * rec.x_norm
        return ok_r and ok_s
    if rule.mode == "masked_relative":
        return rec.stop_metric < rule.eps_rel
    # iterate_change
    return rec.x_change_ratio < rule.eps_rel


def stationarity_bound(state, gamma, L, beta):
    """Computable bound (L + beta + 1/gamma) * ||z - y|| on the distance of 0
    from the generalized gradient of the objective at z."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return (L + beta + 1.0 / gamma) * np.linalg.norm(state.z - state.y)


def run(problem, x0, gamma=None, policy=None, rule=None, stop_metric=None,
        record_energy="auto"):
    """Drive the splitting iteration until a stopping rule fires.

    Parameters
    ----------
    problem : ThreeTermProblem
    x0 : array, starting point
    gamma : float, fixed step size; defaults to 0.99 * gamma0 when neither
        gamma nor policy is given
    policy : StepSizePolicy, adaptive step sizes (mutually exclusive with gamma)
    rule : StoppingRule, defaults to the residual pair test
    stop_metric : callable state -> float, recorded each iteration and
        required by the masked_relative mode
    record_energy : True, False or "auto" (record when value oracles exist)

    Returns
    -------
    RunResult with the final state, the trace, and a status among
    "converged", "max_iter", "diverged". Non-finite iterates stop the run
    with the last finite state.
    """
    if gamma is not None and policy is not None:
        raise ValueError("pass either gamma or policy, not both")
    if rule is None:
        rule = StoppingRule()
    if rule.mode == "masked_relative" and stop_metric is None:
        raise ValueError("masked_relative mode needs a stop_metric callable")
    if record_energy == "auto":
        record_energy = problem.has_values

    if policy is not None:
        cur_gamma = policy.initial_gamma()
    elif gamma is not None:
        cur_gamma = gamma
    else:
        cur_gamma = 0.99 * max_step_size(problem.L, problem.l, problem.beta)

    state = SplittingState.initial(x0)
    dims = state.x.size
    trace = RunTrace()
    status = MAX_ITER
    x_norm = float(np.linalg.norm(state.x))
    for t in range(1, rule.max_iter + 1):
        try:
            new = dys_step(problem, state, cur_gamma)
        except Exception as exc:
            raise OracleError(f"oracle failure at iteration {t} (gamma={cur_gamma!r})") from exc
        if not (np.isfinite(new.x).all() and np.isfinite(new.y).all() and np.isfinite(new.z).all()):
            status = DIVERGED
            break
        y_inf = np.max(np.abs(new.y)) if new.y.size else 0.0
        zy = float(np.linalg.norm(new.z - new.y))
        prev_x_norm, x_norm = x_norm, float(np.linalg.norm(new.x))
        rec = TraceRecord(
            t=t,
            gamma=cur_gamma,
            energy=float(energy(problem, new, cur_gamma)) if record_energy else float("nan"),
            dy_norm=float(np.linalg.norm(new.y - state.y)),
            zy_gap=zy,
            r_primal=zy,
            s_dual=float(np.linalg.norm(new.z - state.z)),
            x_norm=x_norm,
            y_norm=float(np.linalg.norm(new.y)),
            z_norm=float(np.linalg.norm(new.z)),
            y_inf=float(y_inf),
            x_change_ratio=zy / max(prev_x_norm, 1.0),
            stop_metric=float(stop_metric(new)) if stop_metric is not None else float("nan"),
        )
        trace.append(rec)
        state = new
        if y_inf > 1e30:
            status = DIVERGED
            break
        if check_stop(rule, trace, dims):
            status = CONVERGED
            break
        if policy is not None:
            cur_gamma = adapt_gamma(policy, cur_gamma, trace)
    return RunResult(state=state, trace=trace, status=status)
