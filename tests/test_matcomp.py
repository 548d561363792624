import tracemalloc

import numpy as np
import pytest

from triosplit import linalg, matcomp, prox, splitting
from triosplit.datagen import gen_low_rank, observe, sample_omega
from triosplit.linalg import ObservationSet, SvdWarmStart, masked_relative_residual
from triosplit.matcomp import (CompletionInstance, default_masked_rule,
                               drs_complete, dys_complete, relative_error, rmse,
                               shrink_singular_values, svp_complete, svt_complete)
from triosplit.prox import grad_frobenius_reg, prox_masked_quadratic, rank_projection
from triosplit.splitting import (CONVERGED, DEFAULT_K, SplittingState, StoppingRule,
                                 ThreeTermProblem, dys_step, max_step_size, run)


def make_instance(n, r, p, lam, seed):
    rng = np.random.default_rng(seed)
    M, _ = gen_low_rank(n, r, rng)
    ridx, cidx = sample_omega(n, n, int(round(p * n * n)), rng)
    return CompletionInstance(observe(M, ridx, cidx), (n, n), r, lam), M


@pytest.fixture(scope="module")
def desk_instance():
    return make_instance(120, 6, 0.35, 1.5e-6, seed=0)


def dense_problem(inst, lam, warm, with_energy=False):
    """The completion objective with tail weight lam as the engine's
    three-operator problem on dense iterates, from public pieces."""
    obs = inst.obs
    values = {}
    if with_energy:
        values = dict(
            value_f=lambda X: 0.5 * float(np.sum((X.take(obs.flat) - obs.values) ** 2)),
            value_g=lambda Z: 0.0,  # rank_projection's outputs are rank-feasible
            value_h=lambda X: 0.5 * lam * float(np.sum(X ** 2)))
    return ThreeTermProblem(prox_f=lambda X, g: prox_masked_quadratic(X, obs, g),
                            prox_g=lambda V, g: rank_projection(V, inst.r, warm=warm),
                            grad_h=lambda X: grad_frobenius_reg(X, lam),
                            L=1.0, l=0.0, beta=lam, **values)


def dense_complete(inst, lam, gamma=None, k=DEFAULT_K, with_energy=False):
    """Reference for dys_complete (lam = inst.lam) and drs_complete (lam = 0):
    splitting.run on dense x, y and z, stopped on the masked residual of z."""
    problem = dense_problem(inst, lam, SvdWarmStart(), with_energy)
    return run(problem, np.zeros(inst.shape), gamma=gamma,
               k=None if gamma is not None else k, rule=default_masked_rule(),
               stop_metric=lambda s: masked_relative_residual(s.z, inst.obs))


# Bounds on the drift from the dense reference, whose sums run in another
# order: norms and y_inf within 1e-12 relative (measured: 1e-14), the
# differences and the metric within 1e-8 (measured: 1e-10 after 430
# iterations), the energy within 1e-8 of the run's largest |energy|.
TIGHT_COLUMNS = ("t", "gamma", "x_norm", "y_norm", "z_norm", "y_inf")


class TestAgainstDenseReference:
    @pytest.mark.parametrize("solver", ["dys", "drs"])
    @pytest.mark.parametrize("gamma, with_energy", [(None, True), (0.2, False)],
                             ids=["policy", "fixed-step"])
    def test_iterates_match_the_dense_iteration(self, desk_instance, solver, gamma, with_energy):
        inst, _ = desk_instance
        fn, lam = (dys_complete, inst.lam) if solver == "dys" else (drs_complete, 0.0)
        res = fn(inst, gamma=gamma, with_energy=with_energy)
        ref = dense_complete(inst, lam, gamma=gamma, with_energy=with_energy)
        assert res.status == ref.status == CONVERGED
        assert res.iterations == len(ref.trace)
        assert np.linalg.norm(res.X_opt - ref.state.z) <= 1e-12 * np.linalg.norm(ref.state.z)
        names = list(vars(ref.trace.last))
        assert list(vars(res.trace.last)) == names
        assert ("energy" in names) == with_energy
        for name in names:
            got, want = res.trace.column(name), ref.trace.column(name)
            if name == "energy":
                assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))
            else:
                rtol = 1e-12 if name in TIGHT_COLUMNS else 1e-8
                assert np.allclose(got, want, rtol=rtol, atol=0.0), name

    @pytest.mark.parametrize("solver", [dys_complete, drs_complete, svp_complete, svt_complete])
    def test_an_iteration_holds_few_dense_copies(self, solver):
        # 600 x 800 at 5% density: the dense iteration peaks at about 8
        # copies; one buffer per run, with the SVD's finiteness scan and
        # thin factors, at 1.2 to 1.5
        rng = np.random.default_rng(9)
        m, n, r = 600, 800, 5
        flat = rng.choice(m * n, size=m * n // 20, replace=False)
        rows, cols = np.divmod(flat, n)
        left, right = rng.standard_normal((m, r)), rng.standard_normal((n, r))
        values = np.einsum("ij,ij->i", left[rows], right[cols])
        inst = CompletionInstance(ObservationSet(rows, cols, values, (m, n)), (m, n), r)
        tracemalloc.start()
        try:
            res = solver(inst, rule=default_masked_rule(max_iter=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.iterations == 3
        assert peak <= 2 * m * n * 8


class TestInstance:
    def test_sampling_ratio(self):
        inst, _ = make_instance(20, 2, 0.25, 0.0, seed=1)
        assert inst.p == pytest.approx(0.25)

    def test_validation(self):
        obs = ObservationSet([0], [0], [1.0], (4, 4))
        with pytest.raises(ValueError, match="rank"):
            CompletionInstance(obs, (4, 4), 5, 0.0)
        for lam in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="nonnegative"):
                CompletionInstance(obs, (4, 4), 1, lam)
        empty = ObservationSet([], [], [], (4, 4))
        with pytest.raises(ValueError, match="least one"):
            CompletionInstance(empty, (4, 4), 1, 0.0)


class TestDysComplete:
    def test_fully_observed_exact_recovery(self):
        rng = np.random.default_rng(2)
        n, r = 40, 3
        M, _ = gen_low_rank(n, r, rng)
        ridx, cidx = sample_omega(n, n, n * n, rng)
        inst = CompletionInstance(observe(M, ridx, cidx), (n, n), r, 0.0)
        rule = StoppingRule(eps_abs=1e-12, eps_rel=1e-7, max_iter=50)
        res = dys_complete(inst, rule=rule, M_true=M)
        assert res.status == CONVERGED
        assert res.iterations <= 50
        assert res.relative_error < 1e-6

    def test_desk_scale_partial_observation(self, desk_instance):
        inst, M = desk_instance
        res = dys_complete(inst, M_true=M)
        assert res.status == CONVERGED
        assert res.relative_error < 1e-3
        assert res.iterations < 300
        assert masked_relative_residual(res.X_opt, inst.obs) < 1e-4

    @pytest.mark.parametrize("gamma", [0.2, None], ids=["fixed-step", "default-policy"])
    def test_zero_weight_matches_two_block_solver(self, desk_instance, gamma):
        # at lam = 0 the smooth term and its constant beta vanish, so the
        # default policy starts both solvers at the same step
        inst, M = desk_instance
        inst0 = CompletionInstance(inst.obs, inst.shape, inst.r, 0.0)
        a = dys_complete(inst0, gamma=gamma, M_true=M)
        b = drs_complete(inst0, gamma=gamma, M_true=M)
        assert a.iterations == b.iterations
        assert np.array_equal(a.X_opt, b.X_opt)

    def test_step_starts_at_k_times_the_root_of_the_objectives_constants(self, desk_instance):
        inst, _ = desk_instance
        res = dys_complete(inst, rule=default_masked_rule(max_iter=1))
        assert res.trace.column("gamma")[0] == splitting.DEFAULT_K * max_step_size(1.0, 0.0, inst.lam)

    def test_a_failed_projection_raises_oracle_error_naming_its_iteration(self, monkeypatch):
        inst, _ = make_instance(30, 2, 0.6, 1e-6, seed=11)
        calls = []

        def fail_second(A, k, **kwargs):
            calls.append(k)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("no convergence")
            return linalg.truncated_svd(A, k, **kwargs)

        monkeypatch.setattr(matcomp, "truncated_svd", fail_second)
        with pytest.raises(splitting.OracleError, match="iteration 2") as info:
            dys_complete(inst)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.parametrize("solver", [dys_complete, drs_complete, svp_complete, svt_complete])
    def test_a_non_finite_projection_returns_the_last_finite_iterate(self, monkeypatch, solver):
        # the step overwrites the run's one dense buffer with the bad
        # projection, so the last finite iterate is rebuilt from its factors
        inst, _ = make_instance(30, 2, 0.6, 1e-6, seed=11)
        # a rank projection keeps every value it computes, so poisoning the
        # third SVD fails iteration 3; svt_complete's early shrinkages keep
        # none and would drop a NaN, so the first SVD that keeps a value is
        # poisoned, which fails the first iteration whose estimate moves
        if solver is svt_complete:
            moves = svt_complete(inst).trace.column("dy_norm")
            poisoned, diverges_at = 1, int(np.flatnonzero(moves)[0]) + 1
        else:
            poisoned = diverges_at = 3
        kept = []

        def nan_once(A, k, **kwargs):
            t = linalg.truncated_svd(A, k, **kwargs)
            floor = kwargs.get("floor")
            if floor is None or t.S[0] > floor:
                kept.append(k)
                if len(kept) == poisoned:
                    t = linalg.SvdTriplet(t.U * np.nan, t.S, t.V)
            return t

        monkeypatch.setattr(matcomp, "truncated_svd", nan_once)
        res = solver(inst)
        monkeypatch.undo()
        capped = solver(inst, rule=default_masked_rule(max_iter=diverges_at - 1))
        assert res.status == splitting.DIVERGED
        assert res.iterations == diverges_at - 1 >= 1
        assert np.array_equal(res.X_opt, capped.X_opt)

    def test_energy_recording_on_request(self):
        inst, M = make_instance(30, 2, 0.6, 1e-6, seed=11)
        res = dys_complete(inst, M_true=M, with_energy=True)
        energies = res.trace.column("energy")
        assert np.isfinite(energies).all()  # every iterate stays rank-feasible
        assert res.status == CONVERGED

    def test_iterates_stay_rank_feasible_and_reuse_masked_prox(self, desk_instance):
        inst, _ = desk_instance
        problem = dense_problem(inst, inst.lam, SvdWarmStart())
        gamma = 0.12
        state = SplittingState(*[np.zeros(inst.shape)] * 3)
        for _ in range(5):
            prev_x = state.x
            state, _ = dys_step(problem, state, gamma)
            s = np.linalg.svd(state.z, compute_uv=False)
            assert s[inst.r] < 1e-8 * s[0]
            ref = prox_masked_quadratic(prev_x, inst.obs, gamma)
            assert np.max(np.abs(state.y - ref)) <= 1e-12


class TestDrsComplete:
    def test_fully_observed_exact_recovery(self):
        rng = np.random.default_rng(3)
        n, r = 40, 3
        M, _ = gen_low_rank(n, r, rng)
        ridx, cidx = sample_omega(n, n, n * n, rng)
        inst = CompletionInstance(observe(M, ridx, cidx), (n, n), r, 0.0)
        rule = StoppingRule(eps_abs=1e-12, eps_rel=1e-7, max_iter=80)
        res = drs_complete(inst, rule=rule, M_true=M)
        assert res.status == CONVERGED
        assert res.relative_error < 1e-6

    def test_needs_at_least_as_many_iterations_as_three_block(self, desk_instance):
        inst, M = desk_instance
        res_dys = dys_complete(inst, M_true=M)
        res_drs = drs_complete(inst, M_true=M)
        assert res_drs.status == CONVERGED
        assert res_drs.relative_error < 1e-3
        assert res_drs.iterations >= res_dys.iterations


class TestSvpComplete:
    def test_one_full_gradient_step_lands_on_truth(self):
        rng = np.random.default_rng(4)
        n, r = 30, 2
        M, _ = gen_low_rank(n, r, rng)
        ridx, cidx = sample_omega(n, n, n * n, rng)
        inst = CompletionInstance(observe(M, ridx, cidx), (n, n), r, 0.0)
        res = svp_complete(inst, eta=1.0, M_true=M)
        assert res.iterations == 1
        assert res.relative_error < 1e-10

    def test_zero_data_fixed_point(self):
        obs = ObservationSet([0, 1], [1, 2], [0.0, 0.0], (5, 5))
        inst = CompletionInstance(obs, (5, 5), 1, 0.0)
        res = svp_complete(inst)
        assert res.status == CONVERGED
        assert np.array_equal(res.X_opt, np.zeros((5, 5)))

    def test_desk_scale_slower_than_three_block(self, desk_instance):
        inst, M = desk_instance
        res = svp_complete(inst, M_true=M)
        res_dys = dys_complete(inst, M_true=M)
        assert res.status == CONVERGED
        assert res.relative_error < 1e-3
        assert res.iterations > res_dys.iterations


class TestBaselineTraces:
    def test_svp_records_its_step_schedule_and_metric(self):
        inst, _ = make_instance(25, 2, 0.4, 0.0, seed=6)
        res = svp_complete(inst, rule=default_masked_rule(max_iter=5))
        t = np.arange(1, len(res.trace) + 1)
        assert np.allclose(res.trace.column("gamma"), 1.0 / (inst.p * np.sqrt(t)))
        assert res.trace.last.stop_metric == masked_relative_residual(res.X_opt, inst.obs)
        for name in ("energy", "r_primal", "y_norm"):
            with pytest.raises(KeyError):
                res.trace.column(name)

    def test_svt_records_step_and_metric_of_its_primal(self):
        inst, _ = make_instance(25, 2, 0.4, 0.0, seed=6)
        res = svt_complete(inst, rule=default_masked_rule(max_iter=5))
        assert np.all(res.trace.column("gamma") == 1.2 / inst.p)
        assert res.trace.last.stop_metric == masked_relative_residual(res.X_opt, inst.obs)
        with pytest.raises(KeyError):
            res.trace.column("s_dual")


class TestSvtComplete:
    def test_shrinkage_below_threshold_vanishes(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((12, 12))
        tau = 2.0 * np.linalg.norm(X, 2)
        W, V = shrink_singular_values(X, tau)
        assert W.shape[1] == 0
        assert np.array_equal(W @ V.T, np.zeros((12, 12)))

    def test_scalar_shrinkage(self):
        W, V = shrink_singular_values(np.diag([7.0, 3.0]), 5.0)
        assert W.shape[1] == 1
        assert np.allclose(W @ V.T, np.diag([2.0, 0.0]), atol=1e-12)

    def test_dual_supported_on_mask_every_iteration(self, monkeypatch):
        # every shrinkage operand is the dual, scattered on the mask
        inst, _ = make_instance(25, 2, 0.4, 0.0, seed=6)
        off_mask = np.ones((25, 25), dtype=bool)
        off_mask[inst.obs.rows, inst.obs.cols] = False
        operands = []

        def record(A, k, **kwargs):
            operands.append(A.copy())
            return linalg.truncated_svd(A, k, **kwargs)

        monkeypatch.setattr(matcomp, "truncated_svd", record)
        res = svt_complete(inst, rule=default_masked_rule(max_iter=8))
        assert res.iterations == 8
        assert len(operands) >= 8
        assert any(np.any(A != 0.0) for A in operands)
        for A in operands:
            assert np.all(A[off_mask] == 0.0)

    def test_desk_scale_converges_with_data_driven_rank(self, desk_instance):
        inst, M = desk_instance
        res = svt_complete(inst, M_true=M)
        assert res.status == CONVERGED
        assert masked_relative_residual(res.X_opt, inst.obs) < 1e-4
        s = np.linalg.svd(res.X_opt, compute_uv=False)
        rank = int(np.count_nonzero(s > 1e-8 * s[0]))
        assert rank >= 1  # not pinned to inst.r by construction


def shrink_reference(X, tau):
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    keep = s > tau
    return (U[:, keep] * (s[keep] - tau)) @ Vt[keep], int(np.count_nonzero(keep))


def known_spectrum(s, m=120, seed=3):
    rng = np.random.default_rng(seed)
    n = len(s)
    U = np.linalg.qr(rng.standard_normal((m, n)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return (U * s) @ V.T, V


class TestShrinkageOnTheSubspacePath:
    TOL = 1e-10  # truncated_svd's default settling tolerance

    @pytest.mark.parametrize("tau", [1.0, 250.0])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_values_straddling_tau_closely(self, tau, warm):
        # 120 x 100 is above the dense cutoff; 1.02 tau is kept, 0.98 tau is not
        s = tau * np.concatenate([[4.0, 3.0, 2.0, 1.5, 1.02, 0.98], np.linspace(0.9, 0.01, 94)])
        X, _ = known_spectrum(s)
        state = None
        if warm:
            state = SvdWarmStart()
            nearby = X + 1e-4 * tau * np.random.default_rng(4).standard_normal(X.shape)
            shrink_singular_values(nearby, tau, warm=state)
        W, V = shrink_singular_values(X, tau, warm=state)
        out, count = W @ V.T, W.shape[1]
        ref, ref_count = shrink_reference(X, tau)
        assert count == ref_count == 5
        # the kept values settle to the tolerance; their vectors, whose
        # values lie close to tau, to about its square root
        shrunk = np.linalg.svd(out, compute_uv=False)[:count]
        assert np.max(np.abs(shrunk - (s[:count] - tau))) < 10 * self.TOL * s[0]
        assert np.linalg.norm(out - ref, 2) < np.sqrt(self.TOL) * s[0]

    def test_value_climbing_toward_tau_from_a_gaussian_fill_is_kept(self):
        # the start spans v1..v3 exactly, so it is orthogonal to v4 at 1.02 tau;
        # v4 is found by the Gaussian columns, its estimate climbing from below
        # tau through a tail packed just under it while v1..v3 have settled
        c, tau = 3, 1.0
        s = np.concatenate([[4.0, 3.0, 2.0, 1.02], np.linspace(0.99, 0.5, 96)])
        X, V = known_spectrum(s, seed=1)
        state = SvdWarmStart()
        state.basis = V[:, :c]
        W, V_kept = shrink_singular_values(X, tau, start_k=c + 1, warm=state)
        out, count = W @ V_kept.T, W.shape[1]
        assert count == c + 1
        assert np.linalg.norm(out - shrink_reference(X, tau)[0], 2) < np.sqrt(self.TOL) * s[0]


class SvdCalls:
    """Wraps truncated_svd where the solvers look it up, counting sweeps and
    products; with cold=True every start basis is dropped, so each SVD is
    one-shot."""

    def __init__(self, monkeypatch, cold):
        self.sweeps = self.products = 0
        self.cold = cold
        for module in (prox, matcomp):
            monkeypatch.setattr(module, "truncated_svd", self)

    def __call__(self, A, k, **kwargs):
        if self.cold:
            kwargs["start"] = None
        t = linalg.truncated_svd(A, k, **kwargs)
        self.sweeps += t.sweeps
        self.products += t.products
        return t


@pytest.fixture(scope="module")
def tiny_instance():
    # above truncated_svd's dense cutoff, so every SVD is subspace iteration
    return make_instance(80, 3, 0.4, 1.5e-6, seed=0)


class TestWarmStart:
    @pytest.mark.parametrize("solver", [dys_complete, drs_complete, svp_complete, svt_complete])
    def test_warm_run_matches_one_shot_run(self, solver, tiny_instance, monkeypatch):
        inst, M = tiny_instance
        warm = solver(inst, M_true=M)
        SvdCalls(monkeypatch, cold=True)
        cold = solver(inst, M_true=M)
        assert warm.status == cold.status == CONVERGED
        assert warm.iterations == cold.iterations
        assert np.linalg.norm(warm.X_opt - cold.X_opt) <= 1e-6 * np.linalg.norm(cold.X_opt)

    @pytest.mark.parametrize("solver", [dys_complete, drs_complete, svp_complete, svt_complete])
    def test_result_counts_svd_sweeps(self, solver, tiny_instance, monkeypatch):
        inst, M = tiny_instance
        calls = SvdCalls(monkeypatch, cold=False)
        res = solver(inst, M_true=M)
        assert res.svd_sweeps == calls.sweeps > 0
        assert res.svd_products == calls.products >= 2 * calls.sweeps

    def test_gaussian_block_is_drawn_once_per_run(self, tiny_instance, monkeypatch):
        inst, _ = tiny_instance
        draws = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: draws.append(seed)
                            or default_rng(seed))
        linalg._gaussian_block.cache_clear()
        res = dys_complete(inst)
        assert res.iterations > 1
        assert draws == [0]

    def test_warm_shrinkage_halves_svd_sweeps(self, tiny_instance, monkeypatch):
        inst, M = tiny_instance
        sweeps = []
        for cold in (False, True):
            with monkeypatch.context() as patch:
                calls = SvdCalls(patch, cold)
                svt_complete(inst, M_true=M)
            sweeps.append(calls.sweeps)
        assert 0 < sweeps[0] <= 0.5 * sweeps[1]

    def test_shrinkage_reruns_are_identical(self, tiny_instance):
        # the basis lives in the run, so a second run starts cold like the first
        inst, M = tiny_instance
        a, b = svt_complete(inst, M_true=M), svt_complete(inst, M_true=M)
        assert a.iterations == b.iterations
        assert np.array_equal(a.X_opt, b.X_opt)


class TestMetrics:
    def test_relative_error_basics(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((6, 6))
        assert relative_error(M, M) == 0.0
        assert relative_error(np.zeros((6, 6)), M) == pytest.approx(1.0)
        assert relative_error(1.01 * M, M) == pytest.approx(0.01, abs=1e-12)
        with pytest.raises(ValueError, match="zero"):
            relative_error(M, np.zeros((6, 6)))

    def test_rmse_exact_and_offset(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((7, 7))
        obs = ObservationSet([0, 3, 5], [2, 4, 6], X[[0, 3, 5], [2, 4, 6]], (7, 7))
        assert rmse(X, obs) == 0.0
        assert rmse(X + 0.75, obs) == pytest.approx(0.75)

    def test_rmse_matches_direct_computation(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((5, 5))
        obs = ObservationSet([0, 1, 2], [1, 2, 3], rng.standard_normal(3), (5, 5))
        direct = np.sqrt(np.mean([(X[r, c] - v) ** 2
                                  for r, c, v in zip(obs.rows, obs.cols, obs.values)]))
        assert rmse(X, obs) == pytest.approx(direct, rel=1e-13)

    def test_rmse_empty_test_set_rejected(self):
        empty = ObservationSet([], [], [], (4, 4))
        with pytest.raises(ValueError, match="empty"):
            rmse(np.zeros((4, 4)), empty)
