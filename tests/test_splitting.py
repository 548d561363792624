import dataclasses
import io
from types import SimpleNamespace

import numpy as np
import pytest

from triosplit import cs, matcomp
from triosplit.cs import admm_lasso, SensingInstance
from triosplit.datagen import (DctSpec, gen_dct_matrix, gen_low_rank, gen_sparse_signal,
                               observe, sample_omega)
from triosplit.linalg import ObservationSet
from triosplit.prox import GramSolver, soft_threshold
from triosplit.splitting import (CONVERGED, DIVERGED, MAX_ITER,
                                 DiagnosticsUnavailable, OracleError, RunResult, RunTrace,
                                 SplittingState, StoppingRule,
                                 ThreeTermProblem, _iterate, adapt_gamma,
                                 check_stop, dys_step, energy, lambda_threshold,
                                 max_step_size, run, stationarity_bound)

from oracles import drs_merit_reference, drs_reference, fbs_reference, ista_lasso


# ---------------------------------------------------------------------------
# problem builders

def identity_prox(v, gamma):
    return v


def zero_problem(dim=3):
    return ThreeTermProblem(
        prox_f=identity_prox, prox_g=identity_prox,
        grad_h=lambda y: np.zeros_like(y), L=1.0,
        value_f=lambda y: 0.0, value_g=lambda z: 0.0, value_h=lambda y: 0.0)


def quadratic_prox(P, q):
    """Prox of 0.5*y'Py + q'y by direct solve of (I + gamma P) y = v - gamma q."""
    def prox(v, gamma):
        return np.linalg.solve(np.eye(len(v)) + gamma * P, v - gamma * q)
    return prox


def random_psd(rng, n, scale=1.0):
    B = rng.standard_normal((n, n))
    P = B @ B.T
    return P * (scale / np.linalg.eigvalsh(P).max())


def make_composite_problem(rng, n, g_kind="l1", g_weight=0.5, L=1.0, beta=0.7):
    """Convex quadratic F, separable G, convex quadratic H, exact oracles."""
    P = random_psd(rng, n, scale=L)
    q = rng.standard_normal(n) * 0.1
    R = random_psd(rng, n, scale=beta)
    r = rng.standard_normal(n) * 0.1
    if g_kind == "l1":
        prox_g = lambda v, gamma: soft_threshold(v, gamma * g_weight)
        value_g = lambda z: g_weight * np.sum(np.abs(z))
    else:  # box indicator on [-1, 1]
        prox_g = lambda v, gamma: np.clip(v, -1.0, 1.0)
        value_g = lambda z: 0.0 if np.all(np.abs(z) <= 1.0 + 1e-12) else float("inf")
    return ThreeTermProblem(
        prox_f=quadratic_prox(P, q), prox_g=prox_g,
        grad_h=lambda y: R @ y + r, L=L, l=0.0, beta=beta,
        value_f=lambda y: 0.5 * y @ P @ y + q @ y,
        value_g=value_g,
        value_h=lambda y: 0.5 * y @ R @ y + r @ y)


def make_record(**kv):
    defaults = dict(t=1, gamma=0.1, energy=float("nan"), dy_norm=0.0, zy_gap=0.0,
                    s_dual=0.0, x_norm=0.0, y_norm=0.0, z_norm=0.0, y_inf=0.0)
    defaults.update(kv)
    return SimpleNamespace(**defaults)


def via_trace(record):
    """The record as the latest row of a one-row trace."""
    trace = RunTrace()
    trace.append(record)
    return trace.last


# ---------------------------------------------------------------------------
# single step

class TestDysStep:
    def test_zero_functions_fix_every_point(self):
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal(5)
        state = SplittingState(x0, x0, x0)
        new, _ = dys_step(zero_problem(), state, 0.3)
        assert np.array_equal(new.x, x0)
        assert np.array_equal(new.y, x0)
        assert np.array_equal(new.z, x0)

    def test_reduces_to_forward_backward_without_first_term(self):
        rng = np.random.default_rng(1)
        n = 6
        R = random_psd(rng, n, scale=0.8)
        grad_h = lambda y: R @ y
        prox_g = lambda v, gamma: soft_threshold(v, gamma * 0.2)
        problem = ThreeTermProblem(prox_f=identity_prox, prox_g=prox_g,
                                   grad_h=grad_h, L=1.0, beta=0.8)
        gamma = 0.4
        x0 = rng.standard_normal(n)
        ref = fbs_reference(prox_g, grad_h, x0, gamma, iters=1)[0]
        new, _ = dys_step(problem, SplittingState(x0, x0, x0), gamma)
        assert np.allclose(new.x, ref, atol=1e-14)
        assert np.array_equal(new.z, new.x)

    def test_reduces_to_two_block_scheme_without_third_term(self):
        rng = np.random.default_rng(2)
        n = 6
        P = random_psd(rng, n)
        prox_f = quadratic_prox(P, np.zeros(n))
        prox_g = lambda v, gamma: soft_threshold(v, gamma * 0.3)
        problem = ThreeTermProblem(prox_f=prox_f, prox_g=prox_g,
                                   grad_h=lambda y: np.zeros_like(y), L=1.0)
        gamma = 0.25
        x0 = rng.standard_normal(n)
        ref_x, ref_y, ref_z = drs_reference(prox_f, prox_g, x0, gamma, iters=1)[0]
        new, _ = dys_step(problem, SplittingState(x0, x0, x0), gamma)
        assert np.array_equal(new.x, ref_x)
        assert np.array_equal(new.y, ref_y)
        assert np.array_equal(new.z, ref_z)


# ---------------------------------------------------------------------------
# threshold function and its root

class TestLambdaThreshold:
    def test_hand_evaluated_spot_value(self):
        # 0.5*10 - 1 - (10 + 0.5) * (-1 + 1.21) = 5 - 1 - 10.5*0.21
        assert lambda_threshold(0.1, 1.0, 0.0, 1.0) == pytest.approx(1.795, abs=1e-9)

    def test_blows_up_for_small_steps(self):
        assert lambda_threshold(1e-6, 1.0, 0.0, 1.0) > 1e5

    def test_near_root_value_is_small(self):
        assert abs(lambda_threshold(0.15, 1.0, 0.0, 1.0)) < 0.05

    def test_decreasing_in_beta(self):
        for gamma in (0.01, 0.1, 0.2):
            assert lambda_threshold(gamma, 1.0, 0.0, 2.0) < lambda_threshold(gamma, 1.0, 0.0, 1.0)


class TestMaxStepSize:
    def test_reference_constants(self):
        assert max_step_size(1.0, 0.0, 1.0) == pytest.approx(0.15, abs=0.01)

    def test_root_has_tiny_coefficient_value(self):
        g0 = max_step_size(1.0, 0.0, 1.0)
        assert abs(lambda_threshold(g0, 1.0, 0.0, 1.0)) <= 1e-10

    def test_doubling_beta_shrinks_root(self):
        assert max_step_size(1.0, 0.0, 2.0) < max_step_size(1.0, 0.0, 1.0)

    def test_grid_scan_cross_validation(self):
        g0 = max_step_size(1.0, 1.0, 1.0)
        gammas = np.arange(1e-5, g0 * 1.2, 1e-5)
        vals = np.array([lambda_threshold(g, 1.0, 1.0, 1.0) for g in gammas])
        assert np.all(vals[gammas < g0 - 1e-5] > 0)
        first_neg = gammas[np.argmax(vals < 0)]
        assert abs(first_neg - g0) < 2e-5

    def test_positive_below_root(self):
        g0 = max_step_size(2.0, 0.5, 0.3)
        for frac in (0.1, 0.5, 0.9, 0.99):
            assert lambda_threshold(frac * g0, 2.0, 0.5, 0.3) > 0

    @pytest.mark.parametrize("L", [1e-4, 1e-3, 1.0, 22.7, 1e4])
    def test_closed_form_without_weak_convexity_or_third_term(self, L):
        # l = beta = 0 leaves 0.5 - 2 L gamma - L^2 gamma^2, whose positive
        # root is (sqrt(6) - 2) / (2 L); L = 1e-4 puts it above 1e3
        assert max_step_size(L, 0.0, 0.0) == pytest.approx((np.sqrt(6) - 2) / (2 * L), rel=1e-14)

    @pytest.mark.parametrize("constants", [(1.0, 0.0, 1.0), (1.0, 1.0, 1.0),
                                           (2.0, 0.5, 0.3), (22.7, 0.0, 1.0),
                                           # beta tiny against L: the cubic's
                                           # leading coefficient nearly vanishes
                                           (2652.3, 0.0, 2.97e-6), (1.0, 0.0, 1e-100)])
    def test_root_brackets_the_sign_change(self, constants):
        g0 = max_step_size(*constants)
        assert lambda_threshold(g0 * (1 - 1e-12), *constants) > 0
        assert lambda_threshold(g0 * (1 + 1e-12), *constants) < 0

    @pytest.mark.parametrize("constants", [(0.0, 0.0, 0.0), (-1.0, 0.0, 1.0), (1.0, 0.0, -1.0)])
    def test_constants_without_a_threshold_rejected(self, constants):
        with pytest.raises(ValueError):
            max_step_size(*constants)


# ---------------------------------------------------------------------------
# energy diagnostics

class TestEnergy:
    def test_collapses_to_objective_when_y_equals_z(self):
        rng = np.random.default_rng(3)
        problem = make_composite_problem(rng, 5)
        for _ in range(100):
            x = rng.standard_normal(5)
            y = rng.standard_normal(5)
            state = SplittingState(x=x, y=y, z=y.copy())
            val = energy(problem, state, 0.2)
            ref = problem.value_f(y) + problem.value_g(y) + problem.value_h(y)
            assert val == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_matches_two_block_merit_when_third_term_absent(self):
        rng = np.random.default_rng(4)
        n = 4
        P = random_psd(rng, n)
        value_f = lambda y: 0.5 * y @ P @ y
        value_g = lambda z: 0.6 * np.sum(np.abs(z))
        problem = ThreeTermProblem(
            prox_f=quadratic_prox(P, np.zeros(n)),
            prox_g=lambda v, gamma: soft_threshold(v, gamma * 0.6),
            grad_h=lambda y: np.zeros_like(y), L=1.0,
            value_f=value_f, value_g=value_g, value_h=lambda y: 0.0)
        gamma = 0.3
        for _ in range(20):
            x, y, z = rng.standard_normal((3, n))
            state = SplittingState(x=x, y=y, z=z)
            ref = drs_merit_reference(value_f, value_g, x, y, z, gamma)
            assert energy(problem, state, gamma) == pytest.approx(ref, rel=1e-11, abs=1e-11)

    def test_nonincreasing_along_run_below_threshold(self):
        rng = np.random.default_rng(5)
        problem = make_composite_problem(rng, 8)
        gamma = 0.99 * max_step_size(problem.L, problem.l, problem.beta)
        res = run(problem, rng.standard_normal(8), gamma=gamma,
                  rule=StoppingRule(max_iter=300))
        energies = res.trace.column("energy")
        assert np.all(np.diff(energies) <= 1e-9)

    def test_missing_value_oracles_raise(self):
        problem = ThreeTermProblem(prox_f=identity_prox, prox_g=identity_prox,
                                   grad_h=lambda y: np.zeros_like(y), L=1.0)
        state = SplittingState(*[np.zeros(2)] * 3)
        with pytest.raises(DiagnosticsUnavailable, match="unavailable"):
            energy(problem, state, 0.1)

    def test_infeasible_indicator_point_gives_infinite_energy(self):
        rng = np.random.default_rng(6)
        problem = make_composite_problem(rng, 3, g_kind="box")
        state = SplittingState(x=np.zeros(3), y=np.zeros(3), z=np.full(3, 5.0))
        assert energy(problem, state, 0.2) == np.inf


# ---------------------------------------------------------------------------
# step-size adaptation

class TestAdaptGamma:
    gamma0 = 0.1

    def test_no_change_at_or_below_root(self):
        rec = make_record(dy_norm=1e9, y_inf=1e20, t=5)
        assert adapt_gamma(self.gamma0, 0.1, via_trace(rec)) == 0.1
        assert adapt_gamma(self.gamma0, 0.05, via_trace(rec)) == 0.05

    def test_halving_branch(self):
        rec = make_record(dy_norm=1e9, t=3)
        assert adapt_gamma(self.gamma0, 0.8, via_trace(rec)) == pytest.approx(0.4)

    def test_floor_binds_near_root(self):
        rec = make_record(dy_norm=1e9, t=3)
        out = adapt_gamma(self.gamma0, 0.15, via_trace(rec))
        assert out == pytest.approx(0.9999 * 0.1)

    def test_speed_trigger_uses_iteration_count(self):
        slow = make_record(dy_norm=10.0, t=10)   # threshold 1000/10 = 100
        fast = make_record(dy_norm=150.0, t=10)
        assert adapt_gamma(self.gamma0, 0.8, via_trace(slow)) == 0.8
        assert adapt_gamma(self.gamma0, 0.8, via_trace(fast)) == pytest.approx(0.4)

    def test_magnitude_trigger(self):
        rec = make_record(dy_norm=0.0, y_inf=1e11, t=2)
        assert adapt_gamma(self.gamma0, 0.8, via_trace(rec)) == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# stopping rules

class TestCheckStop:
    def test_zero_residuals_pass(self):
        rule = StoppingRule(eps_abs=1e-7, eps_rel=1e-5)
        rec = make_record(zy_gap=0.0, s_dual=0.0, y_norm=1.0, z_norm=1.0, x_norm=1.0)
        assert check_stop(rule, via_trace(rec), dims=10)

    def test_threshold_is_inclusive(self):
        rule = StoppingRule(eps_abs=1e-3, eps_rel=1e-2)
        thr_r = np.sqrt(4) * 1e-3 + 1e-2 * 1.0
        rec = make_record(zy_gap=thr_r, s_dual=0.0, y_norm=1.0, z_norm=1.0, x_norm=0.0)
        assert check_stop(rule, via_trace(rec), dims=4)
        rec2 = make_record(zy_gap=np.nextafter(thr_r, 1.0), s_dual=0.0,
                           y_norm=1.0, z_norm=1.0, x_norm=0.0)
        assert not check_stop(rule, via_trace(rec2), dims=4)

    def test_both_residuals_required(self):
        rule = StoppingRule(eps_abs=1e-3, eps_rel=1e-2)
        rec = make_record(zy_gap=0.0, s_dual=1.0, y_norm=1.0, z_norm=1.0, x_norm=1.0)
        assert not check_stop(rule, via_trace(rec), dims=4)

    def test_masked_mode_strict_inequality(self):
        rule = StoppingRule(eps_rel=1e-4)
        assert check_stop(rule, via_trace(make_record(stop_metric=9.9e-5)), dims=4)
        assert not check_stop(rule, via_trace(make_record(stop_metric=1e-4)), dims=4)
        assert not check_stop(rule, via_trace(make_record(stop_metric=float("nan"))), dims=4)
        # the metric alone decides: residuals far above the pair's bound do not block it
        rec = make_record(stop_metric=0.0, zy_gap=1.0, s_dual=1.0)
        assert check_stop(rule, via_trace(rec), dims=4)

    def test_max_iter_gives_max_iter_status_not_success(self):
        rng = np.random.default_rng(7)
        problem = make_composite_problem(rng, 6)
        res = run(problem, rng.standard_normal(6), gamma=0.05,
                  rule=StoppingRule(eps_abs=1e-16, eps_rel=1e-16, max_iter=3))
        assert res.status == MAX_ITER
        assert len(res.trace) == 3


def small_sensing_instance():
    rng = np.random.default_rng(31)
    A = rng.standard_normal((20, 60))
    x = np.zeros(60)
    x[[3, 17, 42]] = (1.0, -2.0, 0.5)
    return SensingInstance(A, A @ x, x_true=x)


def small_completion_instance():
    rng = np.random.default_rng(32)
    M = rng.standard_normal((20, 2)) @ rng.standard_normal((2, 20))
    rows, cols = np.nonzero(rng.random((20, 20)) < 0.7)
    obs = ObservationSet(rows, cols, M[rows, cols], (20, 20))
    return matcomp.CompletionInstance(obs, (20, 20), 2, 0.0)


PLAIN_RULE = StoppingRule(max_iter=200)


@pytest.mark.parametrize("call, dims", [
    (lambda: cs.dys_l12(small_sensing_instance(), rule=PLAIN_RULE), 60),
    (lambda: cs.dca_l12(small_sensing_instance(), inner_rule=PLAIN_RULE), 60),
    (lambda: cs.admm_lasso(small_sensing_instance(), rule=PLAIN_RULE), 60),
    (lambda: matcomp.dys_complete(small_completion_instance(), rule=PLAIN_RULE), 400),
    (lambda: matcomp.drs_complete(small_completion_instance(), rule=PLAIN_RULE), 400),
    (lambda: matcomp.svp_complete(small_completion_instance(), rule=PLAIN_RULE), 400),
    (lambda: matcomp.svt_complete(small_completion_instance(), rule=PLAIN_RULE), 400),
], ids=["dys_l12", "dca_l12", "admm_lasso", "dys_complete", "drs_complete",
        "svp_complete", "svt_complete"])
def test_every_solver_stops_under_a_plain_rule(call, dims):
    """Each solver's rows pick the test it can evaluate; none raises, and
    every solver counts its iterations as the rows of its trace. Every
    solver returns one frozen type."""
    res = call()
    assert isinstance(res, RunResult)
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.status = CONVERGED
    assert res.X_opt is res.x_opt
    if res.x_opt.ndim == 1:  # the sensing instance carries its truth
        truth = small_sensing_instance().x_true
        assert res.relative_error == cs.evaluate(res.x_opt, truth).relative_error
    else:  # the completion calls pass none
        assert res.relative_error is None
    assert res.status in (CONVERGED, MAX_ITER, DIVERGED)
    assert res.iterations == len(res.trace)
    if res.status == CONVERGED:
        assert check_stop(PLAIN_RULE, res.trace.last, dims)


@pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan")])
@pytest.mark.parametrize("solver", ["run", "dys_l12", "dys_complete", "drs_complete"])
def test_a_fixed_step_that_is_not_positive_is_rejected_before_any_oracle_call(monkeypatch, solver,
                                                                             gamma):
    calls = []

    def counted(f):
        def wrapper(*args, **kwargs):
            calls.append(f.__name__)
            return f(*args, **kwargs)
        return wrapper

    if solver == "run":
        problem = ThreeTermProblem(prox_f=counted(identity_prox), prox_g=counted(identity_prox),
                                   grad_h=counted(np.zeros_like), L=1.0)
        call = lambda: run(problem, np.ones(3), gamma=gamma)
    elif solver == "dys_l12":
        class CountingGram(GramSolver):
            solve = counted(GramSolver.solve)
        monkeypatch.setattr(cs, "GramSolver", CountingGram)
        monkeypatch.setattr(cs, "soft_threshold", counted(cs.soft_threshold))
        monkeypatch.setattr(cs, "grad_neg_l2", counted(cs.grad_neg_l2))
        call = lambda: cs.dys_l12(small_sensing_instance(), gamma=gamma)
    else:
        monkeypatch.setattr(matcomp, "truncated_svd", counted(matcomp.truncated_svd))
        call = lambda: getattr(matcomp, solver)(small_completion_instance(), gamma=gamma)
    with pytest.raises(ValueError, match="gamma must be positive"):
        call()
    assert calls == []


def scaled_completion_run(solver, c):
    # the CLI's n = 100, r = 5, p = 0.4, seed-0 instance, its observed values times c
    rng = np.random.default_rng(0)
    M, _ = gen_low_rank(100, 5, rng)
    obs = observe(M, *sample_omega(100, 100, 4000, rng))
    scaled = ObservationSet(obs.rows, obs.cols, obs.values * c, obs.shape)
    res = solver(matcomp.CompletionInstance(scaled, (100, 100), 5, matcomp.DEFAULT_LAMBDA))
    return res.status, res.iterations, res.x_opt


def scaled_sensing_run(c):
    # the CLI's 40 x 300, s = 3, F = 5, seed-0 frame, with b, x_true and lam times c
    rng = np.random.default_rng((0, 0, 0))
    A = gen_dct_matrix(DctSpec(40, 300, 5), rng)
    x = gen_sparse_signal(300, 3, 10, rng)
    rep = cs.dys_l12(SensingInstance(A, (A @ x) * c, x_true=x * c), lam=cs.L12_LAMBDA * c)
    return rep.status, rep.iterations, rep.x_opt


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13: the decay, magnitude and absolute "
                   "stop tests compare norms with fixed constants, so runs depend on the data's units")
@pytest.mark.parametrize("call", [
    lambda c: scaled_completion_run(matcomp.dys_complete, c),
    lambda c: scaled_completion_run(matcomp.drs_complete, c),
    scaled_sensing_run,
], ids=["dys_complete", "drs_complete", "dys_l12"])
def test_engine_solvers_are_equivariant_under_power_of_two_scaling(call):
    # a power of two scales exactly in binary floating point, so a run on data
    # times 2^j should take the same steps and end on the iterate times 2^j
    ref_status, ref_iters, ref_x = call(1.0)
    for j in (-6, 6):
        c = 2.0 ** j
        status, iters, x = call(c)
        assert (status, iters) == (ref_status, ref_iters), f"j = {j}"
        assert np.array_equal(x / c, ref_x), f"j = {j}"


# ---------------------------------------------------------------------------
# stationarity certificate

class TestStationarityBound:
    def test_zero_gap_is_certificate(self):
        state = SplittingState(x=np.ones(3), y=np.ones(3), z=np.ones(3))
        assert stationarity_bound(state, 0.1, 1.0, 1.0) == 0.0

    def test_direct_formula(self):
        z = np.zeros(4)
        z[0] = 1.0
        state = SplittingState(x=np.zeros(4), y=np.zeros(4), z=z)
        assert stationarity_bound(state, 0.1, 1.0, 1.0) == pytest.approx(12.0)

    def test_decreases_along_converging_run_tail(self):
        rng = np.random.default_rng(8)
        problem = make_composite_problem(rng, 10)
        gamma = 0.99 * max_step_size(problem.L, problem.l, problem.beta)
        res = run(problem, rng.standard_normal(10), gamma=gamma,
                  rule=StoppingRule(eps_abs=1e-12, eps_rel=1e-12, max_iter=400))
        factor = problem.L + problem.beta + 1.0 / gamma
        bounds = factor * res.trace.column("zy_gap")
        tail = bounds[int(0.8 * len(bounds)):]
        assert len(tail) >= 5
        for a, b in zip(tail, tail[1:]):
            assert b <= 1.1 * a + 1e-15
        assert tail[-1] <= tail[0] + 1e-15


# ---------------------------------------------------------------------------
# the driver

class TestRun:
    def test_zero_problem_converges_immediately(self):
        res = run(zero_problem(), np.ones(4), gamma=0.5)
        assert res.status == CONVERGED
        assert len(res.trace) == 1
        assert res.trace.last.zy_gap == 0.0

    def test_scalar_quadratic_reaches_minimizer(self):
        problem = ThreeTermProblem(
            prox_f=lambda v, gamma: (v + gamma) / (1.0 + gamma),
            prox_g=identity_prox, grad_h=lambda y: np.zeros_like(y), L=1.0)
        res = run(problem, np.zeros(1), gamma=0.5,
                  rule=StoppingRule(eps_abs=1e-12, eps_rel=1e-12, max_iter=200))
        assert res.status == CONVERGED
        assert res.state.y[0] == pytest.approx(1.0, abs=1e-8)

    def test_lasso_objective_matches_independent_solvers(self):
        rng = np.random.default_rng(9)
        m, n = 20, 50
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        lam = 0.1 * np.max(np.abs(A.T @ b))
        L = np.linalg.norm(A, 2) ** 2
        AtA = A.T @ A
        Atb = A.T @ b

        def prox_f(v, gamma):
            return np.linalg.solve(np.eye(n) + gamma * AtA, v + gamma * Atb)

        problem = ThreeTermProblem(
            prox_f=prox_f,
            prox_g=lambda v, gamma: soft_threshold(v, gamma * lam),
            grad_h=lambda y: np.zeros_like(y), L=L)
        gamma = 0.99 * max_step_size(L, 0.0, 0.0)
        res = run(problem, np.zeros(n), gamma=gamma,
                  rule=StoppingRule(eps_abs=1e-10, eps_rel=1e-8, max_iter=20000))
        assert res.status == CONVERGED

        def objective(x):
            return 0.5 * np.sum((A @ x - b) ** 2) + lam * np.sum(np.abs(x))

        x_ista = ista_lasso(A, b, lam, iters=100000)
        x_admm = admm_lasso(SensingInstance(A, b), lam=lam, rho=1.0,
                            rule=StoppingRule(eps_abs=1e-12, eps_rel=1e-10, max_iter=20000)).x_opt
        obj_engine = objective(res.state.z)
        obj_ista = objective(x_ista)
        obj_admm = objective(x_admm)
        assert obj_engine == pytest.approx(obj_ista, abs=1e-6)
        assert obj_admm == pytest.approx(obj_ista, abs=1e-6)

    def test_policy_decays_toward_root_under_fast_motion(self):
        # run derives gamma0 from the problem's own constants and starts at k * gamma0
        rng = np.random.default_rng(10)
        problem = make_composite_problem(rng, 5)
        g0 = max_step_size(problem.L, problem.l, problem.beta)
        res = run(problem, 1e4 + rng.standard_normal(5), k=8.0,
                  rule=StoppingRule(max_iter=50))
        gammas = res.trace.column("gamma")
        assert gammas[0] == 8.0 * g0
        assert gammas[-1] <= g0
        assert gammas[-1] >= 0.9999 * g0

    def test_divergence_detected_on_blowup(self):
        problem = ThreeTermProblem(
            prox_f=identity_prox, prox_g=identity_prox,
            grad_h=lambda y: -3.0 * y, L=1.0, beta=3.0)
        res = run(problem, np.ones(2), gamma=1.0, rule=StoppingRule(max_iter=500))
        assert res.status == DIVERGED
        assert np.isfinite(res.state.x).all()

    def test_nan_oracle_returns_last_finite_state(self):
        problem = ThreeTermProblem(
            prox_f=lambda v, gamma: v * np.nan, prox_g=identity_prox,
            grad_h=lambda y: np.zeros_like(y), L=1.0)
        x0 = np.ones(3)
        res = run(problem, x0, gamma=0.5, rule=StoppingRule(max_iter=10))
        assert res.status == DIVERGED
        assert np.array_equal(res.state.x, x0)
        assert len(res.trace) == 0

    def test_oracle_exception_carries_iteration_context(self):
        def bad_prox(v, gamma):
            raise ValueError("broken oracle")
        problem = ThreeTermProblem(prox_f=bad_prox, prox_g=identity_prox,
                                   grad_h=lambda y: np.zeros_like(y), L=1.0)
        with pytest.raises(OracleError, match="iteration 1"):
            run(problem, np.zeros(2), gamma=0.5)

    def test_oracle_output_of_another_shape_is_an_oracle_error(self):
        problem = ThreeTermProblem(prox_f=identity_prox,
                                   prox_g=lambda v, gamma: v.reshape(-1, 1),
                                   grad_h=lambda y: np.zeros_like(y), L=1.0)
        with pytest.raises(OracleError, match="iteration 1") as info:
            run(problem, np.ones(3), gamma=0.5)
        assert "one shape" in str(info.value.__cause__)

    def test_gamma_and_policy_are_exclusive(self):
        # the decay policy is selected by k, which cannot go with a fixed step
        with pytest.raises(ValueError, match="not both"):
            run(zero_problem(), np.zeros(2), gamma=0.1, k=2.0)

    def test_default_step_is_margin_below_root(self):
        problem = zero_problem()
        res = run(problem, np.ones(2))
        expected = 0.99 * max_step_size(problem.L, problem.l, problem.beta)
        assert res.trace.last.gamma == pytest.approx(expected)


@pytest.mark.parametrize("build", [
    lambda: StoppingRule(eps_abs=float("nan")),
    lambda: StoppingRule(eps_rel=float("nan")),
    lambda: run(zero_problem(), np.zeros(2), k=float("nan")),
    lambda: run(zero_problem(), np.zeros(2), k=0.5),
    lambda: ThreeTermProblem(prox_f=identity_prox, prox_g=identity_prox,
                             grad_h=identity_prox, L=1.0, beta=float("nan")),
    lambda: ThreeTermProblem(prox_f=identity_prox, prox_g=identity_prox,
                             grad_h=identity_prox, L=1.0, l=float("nan")),
])
def test_nan_setting_rejected(build):
    with pytest.raises(ValueError):
        build()


# ---------------------------------------------------------------------------
# algebraic identities and trajectory laws

class TestIdentities:
    def test_polarization_identity_on_random_tuples(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            a, b, c, d = rng.standard_normal((4, 2))
            lhs = np.linalg.norm(2 * a - b - c - d) ** 2 - np.linalg.norm(a - c - d) ** 2
            rhs = (np.linalg.norm(a - c) ** 2 - np.linalg.norm(b - c) ** 2
                   + 2 * np.linalg.norm(a - b) ** 2 + 2 * d @ (b - a))
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) <= 1e-10 * scale

    def test_x_step_bounded_by_next_y_step(self):
        rng = np.random.default_rng(12)
        problem = make_composite_problem(rng, 7)
        gamma = 0.9 * max_step_size(problem.L, problem.l, problem.beta)
        res = run(problem, rng.standard_normal(7), gamma=gamma,
                  rule=StoppingRule(max_iter=150))
        zy = res.trace.column("zy_gap")      # equals ||x_t - x_{t-1}||
        dy = res.trace.column("dy_norm")
        for t in range(len(zy) - 1):
            assert zy[t] <= (1.0 + gamma * problem.L) * dy[t + 1] + 1e-9

    def test_descent_matches_coefficient(self):
        rng = np.random.default_rng(13)
        problem = make_composite_problem(rng, 6)
        gamma = 0.99 * max_step_size(problem.L, problem.l, problem.beta)
        lam_gamma = lambda_threshold(gamma, problem.L, problem.l, problem.beta)
        assert lam_gamma > 0
        res = run(problem, rng.standard_normal(6), gamma=gamma,
                  rule=StoppingRule(max_iter=200))
        en = res.trace.column("energy")
        dy = res.trace.column("dy_norm")
        for t in range(len(en) - 1):
            assert en[t + 1] - en[t] <= -lam_gamma * dy[t + 1] ** 2 + 1e-9

    def test_update_law_between_recorded_states(self):
        rng = np.random.default_rng(14)
        problem = make_composite_problem(rng, 5)
        x0 = rng.standard_normal(5)
        state = SplittingState(x0, x0, x0)
        for _ in range(30):
            new, step_gap = dys_step(problem, state, 0.1)
            assert np.array_equal(step_gap, new.z - new.y)
            gap = (new.x - state.x) - (new.z - new.y)
            assert np.max(np.abs(gap)) <= 1e-12 * max(1.0, np.max(np.abs(new.x)))
            state = new


class TestReductionEquivalence:
    def test_two_block_run_matches_reference_over_200_iterations(self):
        rng = np.random.default_rng(15)
        n = 8
        P = random_psd(rng, n)
        prox_f = quadratic_prox(P, rng.standard_normal(n) * 0.1)
        prox_g = lambda v, gamma: soft_threshold(v, gamma * 0.4)
        problem = ThreeTermProblem(prox_f=prox_f, prox_g=prox_g,
                                   grad_h=lambda y: np.zeros_like(y), L=1.0)
        gamma = 0.3
        x0 = rng.standard_normal(n)
        ref = drs_reference(prox_f, prox_g, x0, gamma, iters=200)
        state = SplittingState(x0, x0, x0)
        for t in range(200):
            state, _ = dys_step(problem, state, gamma)
            rx, ry, rz = ref[t]
            assert np.max(np.abs(state.x - rx)) <= 1e-12
            assert np.max(np.abs(state.y - ry)) <= 1e-12
            assert np.max(np.abs(state.z - rz)) <= 1e-12

    def test_gradient_run_matches_reference_over_200_iterations(self):
        rng = np.random.default_rng(16)
        n = 8
        R = random_psd(rng, n, scale=0.9)
        grad_h = lambda y: R @ y + 0.05
        prox_g = lambda v, gamma: soft_threshold(v, gamma * 0.2)
        problem = ThreeTermProblem(prox_f=identity_prox, prox_g=prox_g,
                                   grad_h=grad_h, L=1.0, beta=0.9)
        gamma = 0.5
        x0 = rng.standard_normal(n)
        ref = fbs_reference(prox_g, grad_h, x0, gamma, iters=200)
        state = SplittingState(x0, x0, x0)
        for t in range(200):
            state, _ = dys_step(problem, state, gamma)
            assert np.max(np.abs(state.x - ref[t])) <= 1e-12


# ---------------------------------------------------------------------------
# trace serialization

def test_trace_csv_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    problem = make_composite_problem(rng, 4)
    res = run(problem, rng.standard_normal(4), gamma=0.1,
              rule=StoppingRule(max_iter=5))
    path = tmp_path / "trace.csv"
    res.trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,gamma,energy,dy_norm,zy_gap,s_dual"
    assert len(lines) == 1 + len(res.trace)
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == 0.1


def test_trace_csv_of_a_run_that_diverged_on_its_first_step():
    problem = ThreeTermProblem(prox_f=lambda v, gamma: v * np.nan, prox_g=identity_prox,
                               grad_h=lambda y: np.zeros_like(y), L=1.0)
    res = run(problem, np.ones(3), gamma=0.5)
    assert res.status == DIVERGED and len(res.trace) == 0
    buf = io.StringIO()
    res.trace.to_csv(buf)
    assert buf.getvalue() == "iter,gamma,energy,dy_norm,zy_gap,s_dual\n"


class TestRunTrace:
    def test_columns_grow_past_initial_capacity(self):
        trace = RunTrace()
        for t in range(1, 41):
            trace.append(SimpleNamespace(t=t, dy_norm=0.5 * t))
        assert len(trace) == 40
        assert np.array_equal(trace.column("iter"), np.arange(1, 41))
        assert np.array_equal(trace.column("dy_norm"), 0.5 * np.arange(1, 41))
        assert trace.last.dy_norm == 20.0

    def test_only_recorded_columns_exist(self):
        trace = RunTrace()
        trace.append(SimpleNamespace(t=1, dy_norm=1.0))
        with pytest.raises(KeyError):
            trace.column("energy")
        with pytest.raises(AttributeError, match="energy"):
            trace.last.energy
        with pytest.raises(ValueError, match="columns"):
            trace.append(SimpleNamespace(t=2, dy_norm=1.0, energy=0.0))
        with pytest.raises(ValueError, match="columns"):
            trace.append(SimpleNamespace(dy_norm=1.0, t=2))  # same names, other order
        assert len(trace) == 1

    def test_empty_trace(self):
        trace = RunTrace()
        assert len(trace.column("y_norm")) == 0
        with pytest.raises(IndexError):
            trace.last

    def test_energy_column_only_on_request(self):
        rng = np.random.default_rng(18)
        full = make_composite_problem(rng, 4)
        problem = ThreeTermProblem(prox_f=full.prox_f, prox_g=full.prox_g,
                                   grad_h=full.grad_h, L=full.L, beta=full.beta)
        x0 = rng.standard_normal(4)
        res = run(problem, x0, gamma=0.1, rule=StoppingRule(max_iter=5))
        with pytest.raises(KeyError):
            res.trace.column("energy")
        with pytest.raises(KeyError):
            res.trace.column("stop_metric")
        with_values = run(full, x0, gamma=0.1, rule=StoppingRule(max_iter=5))
        assert len(with_values.trace.column("energy")) == len(with_values.trace)

    def test_csv_writes_nan_for_unrecorded_columns(self):
        inst = SensingInstance(np.eye(3), np.array([1.0, 0.5, 0.0]))
        rep = admm_lasso(inst, lam=0.1, rho=1.0, rule=StoppingRule(max_iter=3))
        buf = io.StringIO()
        rep.trace.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 1 + len(rep.trace)
        cells = lines[1].split(",")
        assert cells[:3] == ["1", "nan", "nan"]  # iter, gamma, energy
        assert float(cells[5]) == rep.trace.column("s_dual")[0]


class TestIterate:
    @staticmethod
    def doubling(blowup_at, value=np.inf):
        def advance(state, t):
            (v,) = state
            return (v * value,) if t == blowup_at else (2.0 * v,)
        return advance

    @staticmethod
    def measure(old, new, t, norms):
        assert norms == [np.linalg.norm(a) for a in new]  # bit for bit
        return SimpleNamespace(t=t, stop_metric=1.0 / t, y_inf=float(np.max(new[0])))

    def test_nonfinite_step_keeps_last_finite_state(self):
        res = _iterate(self.doubling(3), self.measure, (np.ones(2),), StoppingRule(max_iter=10))
        assert res.status == DIVERGED
        assert len(res.trace) == 2
        assert np.array_equal(res.state[0], np.full(2, 4.0))

    # at 1e200 the entries are finite but their squared norm overflows, so
    # the finiteness test must fall back to reading the entries
    @pytest.mark.parametrize("value", [1e31, 1e200])
    def test_recorded_blowup_keeps_that_state(self, value):
        res = _iterate(self.doubling(3, value), self.measure, (np.ones(2),),
                       StoppingRule(max_iter=10))
        assert res.status == DIVERGED
        assert len(res.trace) == 3
        assert res.trace.last.y_inf == 4 * value

    def test_stop_test_reads_the_new_row(self):
        rule = StoppingRule(eps_rel=0.2, max_iter=10)
        res = _iterate(self.doubling(None), self.measure, (np.ones(2),), rule)
        assert res.status == CONVERGED
        assert len(res.trace) == 6  # 1/6 < 0.2 <= 1/5
        res = _iterate(self.doubling(None), self.measure, (np.ones(2),),
                       StoppingRule(eps_rel=0.01, max_iter=4))
        assert res.status == MAX_ITER
        assert np.array_equal(res.trace.column("iter"), [1, 2, 3, 4])
