import numpy as np
import pytest

from triosplit import cs
from triosplit.cs import (SPARSITY_TRUNCATION, SensingInstance, _multiplier_loop,
                          admm_lasso, dca_l12, dys_l12, evaluate,
                          noise_scaled_weight, truncated_sparsity)
from triosplit.datagen import DctSpec, gen_dct_matrix, gen_sparse_signal
from triosplit.linalg import gram_spectral_norm
from triosplit.prox import GramSolver, grad_neg_l2, soft_threshold
from triosplit.splitting import (CONVERGED, DEFAULT_K, DEFAULT_STEP_FRACTION, DIVERGED,
                                 MAX_ITER, OracleError, RunResult, SplittingState,
                                 StoppingRule, max_step_size)

from oracles import ista_lasso


def gaussian_instance(rng, m, n, s, noise=0.0):
    A = rng.standard_normal((m, n)) / np.sqrt(m)
    x = np.zeros(n)
    support = rng.choice(n, size=s, replace=False)
    x[support] = rng.standard_normal(s)
    b = A @ x + noise * rng.standard_normal(m)
    return SensingInstance(A, b, x_true=x)


def dct_instance(rng, m=100, n=1500, s=5, F=10, sigma=0.0):
    A = gen_dct_matrix(DctSpec(m, n, F), rng)
    x = gen_sparse_signal(n, s, 2 * F, rng)
    b = A @ x
    if sigma > 0:
        b = b + sigma * rng.standard_normal(m)
    return SensingInstance(A, b, x_true=x)


class NanOnThirdSolve:
    """Gram solver stand-in whose third solve returns NaN."""

    def __init__(self, A):
        self.solver = GramSolver(A)
        self.calls = 0

    def solve(self, mu, rhs):
        self.calls += 1
        y = self.solver.solve(mu, rhs)
        return np.full_like(y, np.nan) if self.calls == 3 else y


class RaiseOnThirdSolve(NanOnThirdSolve):
    """Gram solver stand-in whose third solve raises."""

    def solve(self, mu, rhs):
        y = super().solve(mu, rhs)
        if self.calls == 3:
            raise np.linalg.LinAlgError("singular factor")
        return y


class TestSensingInstance:
    def test_zero_measurement_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            SensingInstance(np.eye(3), np.zeros(3))

    def test_shape_checks(self):
        with pytest.raises(ValueError, match="length"):
            SensingInstance(np.eye(3), np.ones(4))
        with pytest.raises(ValueError, match="ground truth"):
            SensingInstance(np.eye(3), np.ones(3), x_true=np.ones(5))

    @pytest.mark.parametrize("weight", ["lam", "rho"])
    def test_weights_are_solver_arguments_only(self, weight):
        with pytest.raises(TypeError):
            SensingInstance(np.eye(3), np.ones(3), **{weight: 1e-5})


class TestEvaluate:
    def test_exact_recovery(self):
        x = np.array([0.0, 1.5, 0.0, -2.0])
        m = evaluate(x, x)
        assert m.success and m.relative_error == 0.0 and m.sparsity == 2

    def test_tiny_entries_excluded_from_sparsity(self):
        x = np.array([1.0, 4e-6, 0.0])
        assert truncated_sparsity(x) == 1
        assert truncated_sparsity(np.array([1.0, 5e-6, 0.0])) == 2

    def test_matches_direct_ratio(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(10), rng.standard_normal(10)
        m = evaluate(a, b)
        assert m.relative_error == pytest.approx(
            np.linalg.norm(a - b) / np.linalg.norm(b), rel=1e-13)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            evaluate(np.ones(3), np.zeros(3))


class TestNoiseScaledWeight:
    def test_universal_threshold_formula(self):
        A = np.diag([1.0, 2.0, 0.5, 1.5])
        sigma = 0.01
        expected = sigma * np.sqrt(2 * np.log(4)) * 2.0
        assert noise_scaled_weight(A, sigma) == pytest.approx(expected, rel=1e-15)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            noise_scaled_weight(np.eye(3), -0.1)


class TestAdmmLasso:
    def test_identity_full_shrinkage(self):
        b = np.zeros(4)
        b[0] = 1.0
        inst = SensingInstance(np.eye(4), b)
        rep = admm_lasso(inst, lam=2.0, rho=1.0)
        assert rep.status == CONVERGED
        assert np.allclose(rep.x_opt, np.zeros(4), atol=1e-6)

    def test_identity_soft_threshold_closed_form(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal(6) * 2.0
        lam = 0.5
        inst = SensingInstance(np.eye(6), b)
        rule = StoppingRule(eps_abs=1e-10, eps_rel=1e-9, max_iter=100000)
        rep = admm_lasso(inst, rule=rule, lam=lam, rho=1.0)
        assert rep.status == CONVERGED
        assert np.allclose(rep.x_opt, soft_threshold(b, lam), atol=1e-7)

    def test_objective_matches_proximal_gradient_oracle(self):
        rng = np.random.default_rng(2)
        inst = gaussian_instance(rng, 20, 50, 3)
        lam = 0.05 * np.max(np.abs(inst.A.T @ inst.b))
        rule = StoppingRule(eps_abs=1e-10, eps_rel=1e-8, max_iter=100000)
        rep = admm_lasso(inst, rule=rule, lam=lam, rho=1.0)

        def objective(x):
            return 0.5 * np.sum((inst.A @ x - inst.b) ** 2) + lam * np.sum(np.abs(x))

        x_ref = ista_lasso(inst.A, inst.b, lam, iters=150000)
        assert objective(rep.x_opt) == pytest.approx(objective(x_ref), abs=1e-6)

    def test_one_more_iteration_barely_moves_reported_point(self):
        rng = np.random.default_rng(3)
        inst = gaussian_instance(rng, 20, 50, 3)
        rule = StoppingRule(eps_abs=1e-7, eps_rel=1e-5, max_iter=100000)
        rep = admm_lasso(inst, rule=rule, lam=1e-4, rho=1e-3)
        assert rep.status == CONVERGED
        st = rep.end_state
        solver = GramSolver(inst.A)
        y1 = solver.solve(st["rho"], inst.A.T @ inst.b + st["rho"] * st["z"] - st["x"])
        z1 = soft_threshold(y1 + st["x"] / st["rho"], st["lam"] / st["rho"])
        move = np.linalg.norm(z1 - rep.x_opt)
        budget = 10 * (rule.eps_abs * np.sqrt(inst.n) + rule.eps_rel * np.linalg.norm(rep.x_opt))
        assert move < budget


class TestMultiplierLoop:
    def test_nan_solve_keeps_last_finite_triple(self):
        rng = np.random.default_rng(17)
        inst = gaussian_instance(rng, 15, 40, 3)
        res = _multiplier_loop(inst.A, inst.b, 1e-4, 1e-3, StoppingRule(max_iter=50),
                               solver=NanOnThirdSolve(inst.A))
        assert res.status == DIVERGED
        assert len(res.trace) == 2
        ref = _multiplier_loop(inst.A, inst.b, 1e-4, 1e-3, StoppingRule(max_iter=2))
        assert ref.status == MAX_ITER
        for name in ("x", "y", "z"):
            assert np.array_equal(getattr(res.state, name), getattr(ref.state, name))
        assert np.array_equal(res.trace.column("zy_gap"), ref.trace.column("zy_gap"))

    def test_first_step_names_dual_least_squares_and_consensus(self):
        rng = np.random.default_rng(18)
        inst = gaussian_instance(rng, 15, 40, 3)
        lam, rho = 0.05, 0.5
        res = _multiplier_loop(inst.A, inst.b, lam, rho, StoppingRule(max_iter=1))
        assert isinstance(res, RunResult) and isinstance(res.state, SplittingState)
        state = res.state
        assert np.any(state.z) and np.any(state.y != state.z)
        assert np.array_equal(state.z, soft_threshold(state.y, lam / rho))
        assert np.array_equal(state.x, rho * (state.y - state.z))

    def test_admm_report_keeps_finite_end_state(self, monkeypatch):
        rng = np.random.default_rng(17)
        inst = gaussian_instance(rng, 15, 40, 3)
        monkeypatch.setattr(cs, "GramSolver", NanOnThirdSolve)
        rep = admm_lasso(inst, lam=1e-4, rho=1e-3)
        assert rep.status == DIVERGED
        assert rep.iterations == len(rep.trace) == 2
        for key in ("y", "z", "x"):
            assert np.isfinite(rep.end_state[key]).all()
        assert np.array_equal(rep.x_opt, rep.end_state["z"])

    @pytest.mark.parametrize("solver", [admm_lasso, dca_l12])
    def test_a_failed_solve_raises_oracle_error_naming_its_iteration(self, monkeypatch, solver):
        rng = np.random.default_rng(17)
        inst = gaussian_instance(rng, 15, 40, 3)
        monkeypatch.setattr(cs, "GramSolver", RaiseOnThirdSolve)
        with pytest.raises(OracleError, match="iteration 3") as info:
            solver(inst, lam=1e-4, rho=1e-3)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_reports_carry_the_driver_trace(self):
        rng = np.random.default_rng(18)
        inst = gaussian_instance(rng, 15, 40, 3)
        rule = StoppingRule(max_iter=5000)
        admm = admm_lasso(inst, rule=rule, lam=1e-4, rho=1e-3)
        assert len(admm.trace) == admm.iterations
        with pytest.raises(KeyError):
            admm.trace.column("gamma")
        dca = dca_l12(inst, inner_rule=rule, lam=1e-4, rho=1e-3)
        # the trace holds every inner pass, each restarting t at 1
        assert len(dca.trace) == dca.iterations
        assert np.count_nonzero(dca.trace.column("t") == 1) > 1


class TestDcaL12:
    def test_zero_weight_degenerates_to_multiplier_baseline(self):
        rng = np.random.default_rng(4)
        inst = gaussian_instance(rng, 15, 40, 3)
        rule = StoppingRule(max_iter=5000)
        rep_dca = dca_l12(inst, outer_max=1, inner_rule=rule, lam=0.0, rho=1e-3)
        rep_admm = admm_lasso(inst, rule=rule, lam=0.0, rho=1e-3)
        assert rep_dca.iterations == rep_admm.iterations
        assert np.array_equal(rep_dca.x_opt, rep_admm.x_opt)

    def test_first_outer_pass_is_plain_lasso(self):
        rng = np.random.default_rng(5)
        inst = gaussian_instance(rng, 15, 40, 3)
        rule = StoppingRule(max_iter=5000)
        lam = 1e-4
        rep_dca = dca_l12(inst, outer_max=1, inner_rule=rule, lam=lam, rho=1e-3)
        rep_admm = admm_lasso(inst, rule=rule, lam=lam, rho=1e-3)
        assert rep_dca.iterations == rep_admm.iterations
        # the two reports expose different iterate blocks; at convergence
        # they coincide up to the primal residual tolerance
        assert np.linalg.norm(rep_dca.x_opt - rep_admm.x_opt) < 1e-4

    def test_recovers_coherent_instance(self):
        rng = np.random.default_rng(6)
        inst = dct_instance(rng)
        rep = dca_l12(inst)
        assert rep.success
        # the outer iterate is not thresholded, so a few entries may sit
        # just above the truncation cutoff
        assert 5 <= rep.sparsity <= 20

    def test_outer_stop_on_truncated_inner_pass_reports_max_iter(self):
        rng = np.random.default_rng(16)
        inst = gaussian_instance(rng, 15, 40, 3)
        # the outer test fires after the first pass in both runs
        truncated = dca_l12(inst, inner_rule=StoppingRule(max_iter=3), lam=1e-4,
                            outer_tol=1e9)
        assert truncated.iterations == 3
        assert truncated.status == MAX_ITER
        full = dca_l12(inst, inner_rule=StoppingRule(max_iter=20000), lam=1e-4,
                       outer_tol=1e9)
        assert full.iterations < 20000
        assert full.status == CONVERGED

    def test_rejects_bad_outer_max(self):
        rng = np.random.default_rng(7)
        inst = gaussian_instance(rng, 5, 10, 1)
        with pytest.raises(ValueError, match="outer_max"):
            dca_l12(inst, outer_max=0)

    def test_one_more_inner_iteration_barely_moves_reported_point(self):
        rng = np.random.default_rng(14)
        inst = gaussian_instance(rng, 20, 50, 3)
        rule = StoppingRule(eps_abs=1e-7, eps_rel=1e-5, max_iter=20000)
        rep = dca_l12(inst, inner_rule=rule, lam=1e-4, rho=1e-3)
        assert rep.status == CONVERGED
        st = rep.end_state
        solver = GramSolver(inst.A)
        rhs = inst.A.T @ inst.b + st["rho"] * st["z"] - st["x"]
        if st["shift"] is not None:
            rhs = rhs + st["shift"]
        y1 = solver.solve(st["rho"], rhs)
        move = np.linalg.norm(y1 - rep.x_opt)
        budget = 10 * (rule.eps_abs * np.sqrt(inst.n) + rule.eps_rel * np.linalg.norm(rep.x_opt))
        assert move < budget


class TestDysL12:
    def test_zero_weight_solves_least_squares(self):
        rng = np.random.default_rng(8)
        inst = gaussian_instance(rng, 10, 30, 2)
        rule = StoppingRule(eps_abs=1e-12, eps_rel=1e-11, max_iter=100000)
        rep = dys_l12(inst, rule=rule, lam=0.0)
        resid = inst.A.T @ (inst.A @ rep.x_opt - inst.b)
        assert np.linalg.norm(resid) < 1e-8

    def test_recovers_coherent_instance(self):
        rng = np.random.default_rng(9)
        inst = dct_instance(rng)
        rep = dys_l12(inst)
        assert rep.success
        assert rep.sparsity == 5
        assert rep.relative_error < 1e-4

    def test_noise_scaled_weight_stays_bounded_and_finds_support(self):
        # with k * gamma0 as the start, the threshold level gamma * lam sat
        # far above ||A^T b||_inf here; the iterates ran off to |y| ~ 400 and
        # the run ended at a relative error of several hundred
        rng = np.random.default_rng(2)
        sigma = 0.01
        inst = dct_instance(rng, m=40, n=300, s=3, F=5, sigma=sigma)
        rep = dys_l12(inst, lam=noise_scaled_weight(inst.A, sigma))
        assert rep.status == CONVERGED
        peak = np.max(np.abs(inst.x_true))
        assert np.max(np.abs(rep.end_state["y"])) < 2 * peak
        assert np.max(np.abs(rep.end_state["x"])) < 2 * peak
        found = np.flatnonzero(np.abs(rep.x_opt) >= SPARSITY_TRUNCATION)
        assert np.array_equal(found, np.flatnonzero(inst.x_true))
        assert rep.relative_error < 0.1

    @pytest.mark.parametrize("noisy", [False, True], ids=["default-weight", "noise-scaled-weight"])
    def test_start_step_is_k_times_root_capped_at_the_data_scale(self, noisy):
        # first gamma = min(k * gamma0, max(gamma0, ||A^T b||_inf / lam)), with
        # gamma0 the root of the problem's constants (||A||_2^2, 0, 1)
        rng = np.random.default_rng(2)
        sigma = 0.01
        inst = dct_instance(rng, m=40, n=300, s=3, F=5, sigma=sigma if noisy else 0.0)
        lam = noise_scaled_weight(inst.A, sigma) if noisy else cs.L12_LAMBDA
        rep = dys_l12(inst, lam=lam, rule=StoppingRule(max_iter=1))
        gamma0 = max_step_size(gram_spectral_norm(inst.A), 0.0, 1.0)
        cap = max(gamma0, np.max(np.abs(inst.A.T @ inst.b)) / lam)
        assert (cap < DEFAULT_K * gamma0) == noisy  # the cap binds only at the noise-scaled weight
        first = rep.trace.column("gamma")[0]
        assert first == pytest.approx(min(DEFAULT_K * gamma0, cap), rel=1e-13)
        if not noisy:
            assert first == DEFAULT_K * gamma0

    def test_no_start_multiplier_runs_at_the_fixed_step(self):
        rng = np.random.default_rng(8)
        inst = gaussian_instance(rng, 10, 30, 2)
        rep = dys_l12(inst, k=None)
        gamma0 = max_step_size(gram_spectral_norm(inst.A), 0.0, 1.0)
        assert rep.status == CONVERGED
        assert np.all(rep.trace.column("gamma") == DEFAULT_STEP_FRACTION * gamma0)

    def test_threshold_iterates_are_exact_shrinkage_outputs(self):
        rng = np.random.default_rng(10)
        inst = gaussian_instance(rng, 12, 30, 2)
        lam = 1e-4
        rep = dys_l12(inst, gamma=0.05, lam=lam,
                      rule=StoppingRule(max_iter=50))
        st = rep.end_state
        # replay the final step from (x - (z - y)) and confirm the reported z
        x_prev = st["x"] - (st["z"] - st["y"])
        solver = GramSolver(inst.A)
        y1 = solver.solve(1.0 / st["gamma"], inst.A.T @ inst.b + x_prev / st["gamma"])
        arg = 2.0 * y1 - st["gamma"] * grad_neg_l2(y1, lam) - x_prev
        assert np.max(np.abs(st["z"] - soft_threshold(arg, st["gamma"] * lam))) < 1e-12

    def test_objective_no_worse_than_zero_start(self):
        rng = np.random.default_rng(11)
        inst = dct_instance(rng, n=800, s=4)
        lam = 1e-5
        rep = dys_l12(inst, lam=lam)
        assert rep.status == CONVERGED

        def objective(x):
            return (0.5 * np.sum((inst.A @ x - inst.b) ** 2)
                    + lam * (np.sum(np.abs(x)) - np.linalg.norm(x)))

        assert objective(rep.x_opt) <= objective(np.zeros(inst.n))

    def test_one_more_iteration_barely_moves_reported_point(self):
        rng = np.random.default_rng(12)
        inst = dct_instance(rng, n=800, s=4)
        rule = StoppingRule(eps_abs=1e-7, eps_rel=1e-5, max_iter=50000)
        rep = dys_l12(inst, rule=rule)
        assert rep.status == CONVERGED
        st = rep.end_state
        solver = GramSolver(inst.A)
        y1 = solver.solve(1.0 / st["gamma"], inst.A.T @ inst.b + st["x"] / st["gamma"])
        arg = 2.0 * y1 - st["gamma"] * grad_neg_l2(y1, st["lam"]) - st["x"]
        z1 = soft_threshold(arg, st["gamma"] * st["lam"])
        move = np.linalg.norm(z1 - rep.x_opt)
        budget = 10 * (rule.eps_abs * np.sqrt(inst.n) + rule.eps_rel * np.linalg.norm(rep.x_opt))
        assert move < budget

    def test_reports_origin_diagnostics(self):
        rng = np.random.default_rng(13)
        inst = gaussian_instance(rng, 8, 20, 2)
        rep = dys_l12(inst, gamma=0.05, rule=StoppingRule(max_iter=20))
        assert rep.min_y_norm > 0
        assert rep.origin_hits == 0
        assert rep.beta_local == pytest.approx(1e-5 / rep.min_y_norm)

    def test_energy_recording_on_request(self):
        rng = np.random.default_rng(15)
        inst = gaussian_instance(rng, 10, 25, 2)
        rep = dys_l12(inst, lam=1e-3, gamma=0.02, with_energy=True,
                      rule=StoppingRule(max_iter=60))
        energies = rep.trace.column("energy")
        assert np.isfinite(energies).all()
        # fixed step below the root: the merit value must keep decreasing
        assert np.all(np.diff(energies) <= 1e-9)
        without = dys_l12(inst, lam=1e-3, gamma=0.02, rule=StoppingRule(max_iter=5))
        with pytest.raises(KeyError):
            without.trace.column("energy")


@pytest.mark.parametrize("solver", [admm_lasso, dca_l12, dys_l12])
@pytest.mark.parametrize("lam", [float("nan"), -1e-3])
def test_nan_or_negative_weight_rejected(solver, lam):
    inst = gaussian_instance(np.random.default_rng(19), 10, 30, 2)
    with pytest.raises(ValueError, match="lam"):
        solver(inst, lam=lam)
