import functools
import tracemalloc

import numpy as np
import pytest

from triosplit import linalg, matcomp, prox, splitting
from triosplit.datagen import gen_low_rank, observe, sample_omega
from triosplit.linalg import ObservationSet, SvdWarmStart, masked_relative_residual
from triosplit.matcomp import (CompletionInstance, default_masked_rule,
                               drs_complete, dys_complete, relative_error, rmse,
                               shrink_singular_values, svp_complete, svt_complete)
from triosplit.prox import grad_frobenius_reg, prox_masked_quadratic
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
    three-operator problem on dense iterates. Its rank projection is the
    solvers' own, matcomp._project_into on a copy with the warm-start state
    warm: settled on its first call, one warm sweep after that."""
    obs = inst.obs
    values = {}
    if with_energy:
        values = dict(
            value_f=lambda X: 0.5 * float(np.sum((X.take(obs.flat) - obs.values) ** 2)),
            value_g=lambda Z: 0.0,  # the projection's outputs are rank-feasible
            value_h=lambda X: 0.5 * lam * float(np.sum(X ** 2)))

    def project(V, g):
        out = np.array(V)
        matcomp._project_into(out, inst.r, warm)
        return out

    return ThreeTermProblem(prox_f=lambda X, g: prox_masked_quadratic(X, obs, g),
                            prox_g=project,
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
        # copies; one buffer per run, with a few vectors on the mask and
        # the SVD's thin factors, at 1.2 to 1.4
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


# each completion solver on the 30 x 30 instance, below truncated_svd's
# dense cutoff, whose projections are all settled, and on an 80 x 80 one,
# whose projections after the first are one warm sweep each
SOLVERS_30_AND_80 = [
    pytest.param(solver, n, id=solver.__name__ + ("" if n == 30 else "-80x80"))
    for n in (30, 80) for solver in (dys_complete, drs_complete, svp_complete, svt_complete)]


def route_projections(monkeypatch, wrap):
    """Send matcomp's SVD calls, the settled truncated_svd and the one-sweep
    projection, through wrap(svd, A, k, ...), with svd the wrapped function."""
    for name in ("truncated_svd", "_one_sweep"):
        monkeypatch.setattr(matcomp, name, functools.partial(wrap, getattr(linalg, name)))


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

    @pytest.mark.parametrize("solver, n", SOLVERS_30_AND_80)
    def test_a_failed_projection_raises_oracle_error_naming_its_iteration(self, monkeypatch,
                                                                          solver, n):
        inst, _ = make_instance(n, 2, 0.6, 1e-6, seed=11)
        calls = []

        def fail_second(svd, A, k, *args, **kwargs):
            calls.append(k)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("no convergence")
            return svd(A, k, *args, **kwargs)

        route_projections(monkeypatch, fail_second)
        with pytest.raises(splitting.OracleError, match="iteration 2") as info:
            solver(inst)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.parametrize("solver, n", SOLVERS_30_AND_80)
    def test_a_non_finite_projection_returns_the_last_finite_iterate(self, monkeypatch,
                                                                     solver, n):
        # the step overwrites the run's one dense buffer with the bad
        # projection, so the last finite iterate is rebuilt from its factors
        inst, _ = make_instance(n, 2, 0.6, 1e-6, seed=11)
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
        # a shrinkage keeps a value once its largest passes tau; its one-sweep
        # calls pass no floor, so tau is read from the instance
        tau = 5 * max(inst.shape) if solver is svt_complete else -np.inf

        def nan_once(svd, A, k, *args, **kwargs):
            t = svd(A, k, *args, **kwargs)
            if t.S[0] > tau:
                kept.append(k)
                if len(kept) == poisoned:
                    t = linalg.SvdTriplet(t.U * np.nan, t.S, t.V)
            return t

        route_projections(monkeypatch, nan_once)
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
        res = svp_complete(inst, M_true=M)
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
        for name in ("energy", "zy_gap", "y_norm"):
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

    def test_table1_desk_size_converges_near_the_settled_count(self):
        # the size the table1-desk preset and the benchmark run; a run whose
        # every shrinkage settles its SVD takes 140 iterations here
        inst, M = make_instance(300, 10, 0.3, 1.5e-6, seed=0)
        res = svt_complete(inst, M_true=M)
        assert res.status == CONVERGED
        assert res.relative_error < 1e-3
        assert abs(res.iterations - 140) <= 5


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

    @staticmethod
    def warmed_on_a_nearby_matrix(X, tau, start_k, seed=4):
        warm = SvdWarmStart()
        nearby = X + 1e-4 * tau * np.random.default_rng(seed).standard_normal(X.shape)
        shrink_singular_values(nearby, tau, start_k=start_k, warm=warm)
        return warm

    def test_warm_call_below_start_k_makes_one_sweep(self):
        # five values kept, eight computed: the sweep's smallest value falls
        # below tau, so its values are kept as they stand
        tau, k = 1.0, 8
        s = np.concatenate([[4.0, 3.0, 2.0, 1.5, 1.2], np.linspace(0.9, 0.01, 95)])
        X, _ = known_spectrum(s)
        warm = self.warmed_on_a_nearby_matrix(X, tau, start_k=k)
        products, sweeps = warm.products, warm.sweeps
        W, V = shrink_singular_values(X, tau, start_k=k, warm=warm)
        assert warm.sweeps - sweeps == 1
        assert warm.products - products == 2 * (k + 8)
        assert warm.change > 0.0  # an unsettled call
        out, count = W @ V.T, W.shape[1]
        ref, ref_count = shrink_reference(X, tau)
        assert count == ref_count == 5
        # Ritz values of one sweep lie below the true values; from a basis
        # settled on a matrix 1e-4 * tau * Gaussian away, the shrinkage
        # lies 3.7e-5 * s[0] from the reference
        shrunk = np.linalg.svd(out, compute_uv=False)[:count]
        assert np.all(shrunk <= s[:count] - tau)
        assert np.linalg.norm(out - ref, 2) < 1e-4 * s[0]

    def test_warm_call_above_tau_at_start_k_widens_settled(self):
        # seven values above tau, three computed: the sweep proves the kept
        # rank is at least three, and the settled loop widens to 6, then 12
        tau, k = 1.0, 3
        s = np.concatenate([[4.0, 3.0, 2.0, 1.5, 1.2, 1.05, 1.02, 0.98],
                            np.linspace(0.9, 0.01, 92)])
        X, _ = known_spectrum(s)
        warm = self.warmed_on_a_nearby_matrix(X, tau, start_k=k)
        products = warm.products
        W, V = shrink_singular_values(X, tau, start_k=k, warm=warm)
        assert warm.products - products > 2 * (k + 8)
        assert warm.change == 0.0  # the last SVD was settled
        assert warm.values.shape == (12,)
        out, count = W @ V.T, W.shape[1]
        ref, ref_count = shrink_reference(X, tau)
        assert count == ref_count == 7
        shrunk = np.linalg.svd(out, compute_uv=False)[:count]
        assert np.max(np.abs(shrunk - (s[:count] - tau))) < 10 * self.TOL * s[0]
        assert np.linalg.norm(out - ref, 2) < np.sqrt(self.TOL) * s[0]


class SvdCalls:
    """Wraps truncated_svd and the one-sweep projection where the solvers
    look them up, counting sweeps and products and keeping each call's
    values. With settled=True each one-sweep projection is replaced by a
    truncated_svd settled from the same start; with cold=True every start
    basis is dropped as well, so each SVD is one-shot."""

    def __init__(self, monkeypatch, cold=False, settled=False):
        self.sweeps = self.products = 0
        self.values = []
        self.cold, self.settled = cold, settled or cold
        for module in (prox, matcomp):
            monkeypatch.setattr(module, "truncated_svd", self.svd)
        monkeypatch.setattr(matcomp, "_one_sweep", self.one_sweep)

    def svd(self, A, k, **kwargs):
        if self.cold:
            kwargs["start"] = None
        return self.count(linalg.truncated_svd(A, k, **kwargs))

    def one_sweep(self, A, k, start):
        if self.settled:
            return self.svd(A, k, start=start)
        return self.count(linalg._one_sweep(A, k, start))

    def count(self, t):
        self.sweeps += t.sweeps
        self.products += t.products
        self.values.append(t.S)
        return t


@pytest.fixture(scope="module")
def tiny_instance():
    # above truncated_svd's dense cutoff, so every SVD is subspace iteration
    return make_instance(80, 3, 0.4, 1.5e-6, seed=0)


class TestWarmStart:
    # every SVD of a run after its first is a single warm sweep: each rank
    # projection, and each shrinkage whose smallest value falls at or below
    # tau; the runs are checked against settled runs below. A cold
    # shrinkage, with no basis to sweep from, settles its values.
    def test_cold_shrinkage_matches_the_reference(self, tiny_instance, monkeypatch):
        inst, _ = tiny_instance
        tau = 5 * max(inst.shape)
        operands = []

        def record(X, tau, start_k=4, warm=None):
            operands.append(X.copy())
            return shrink_singular_values(X, tau, start_k, warm)

        monkeypatch.setattr(matcomp, "shrink_singular_values", record)
        svt_complete(inst, rule=default_masked_rule(max_iter=200))
        # the duals of a run, the later ones keeping a value within 0.3% of
        # tau; the bounds are TestShrinkageOnTheSubspacePath's
        tol = TestShrinkageOnTheSubspacePath.TOL
        checked = 0
        for X in operands[::20]:
            W, V = shrink_singular_values(X, tau)
            out, count = W @ V.T, W.shape[1]
            ref, ref_count = shrink_reference(X, tau)
            s = np.linalg.svd(X, compute_uv=False)
            assert count == ref_count
            shrunk = np.linalg.svd(out, compute_uv=False)[:count]
            # <=, for the run's first dual, which is zero
            assert np.max(np.abs(shrunk - (s[:count] - tau)), initial=0.0) <= 10 * tol * s[0]
            assert np.linalg.norm(out - ref, 2) <= np.sqrt(tol) * s[0]
            checked += count > 0
        assert checked >= 5

    # Measured on this instance: the one-sweep runs take the settled runs'
    # iteration counts +1 (dys), +0 (drs, svp, svt), at relative errors
    # 3.1%, 2.2% and 0.1% lower (dys, drs, svp) and 0.09% higher (svt),
    # with 0.46, 0.43, 0.43 and 0.34 times their matrix-vector products.
    # A settled shrinkage here settles all k values of the sweep it
    # replaces, then widens as the one-sweep call would.
    @pytest.mark.parametrize("solver", [dys_complete, drs_complete, svp_complete, svt_complete])
    def test_one_sweep_run_against_a_settled_run(self, solver, tiny_instance, monkeypatch):
        inst, M = tiny_instance
        one = solver(inst, M_true=M)
        SvdCalls(monkeypatch, settled=True)
        settled = solver(inst, M_true=M)
        assert one.status == settled.status == CONVERGED
        assert abs(one.iterations - settled.iterations) <= 0.1 * settled.iterations
        assert abs(one.relative_error - settled.relative_error) <= 0.1 * settled.relative_error
        assert one.svd_products <= 0.5 * settled.svd_products

    @pytest.mark.parametrize("solver", [dys_complete, drs_complete, svp_complete, svt_complete])
    def test_result_counts_svd_sweeps(self, solver, tiny_instance, monkeypatch):
        inst, M = tiny_instance
        calls = SvdCalls(monkeypatch, cold=False)
        res = solver(inst, M_true=M)
        assert res.svd_sweeps == calls.sweeps > 0
        assert res.svd_products == calls.products >= 2 * calls.sweeps

    @pytest.mark.parametrize("solver", [dys_complete, drs_complete, svp_complete, svt_complete])
    def test_result_reports_the_last_projections_move(self, solver, tiny_instance, monkeypatch):
        inst, _ = tiny_instance
        calls = SvdCalls(monkeypatch)
        res = solver(inst)
        # a shrinkage's width follows its kept rank: the move is read over
        # the leading values both calls computed
        last, prev = calls.values[-1], calls.values[-2]
        shared = min(len(last), len(prev))
        assert res.svd_change == np.max(np.abs(last[:shared] - prev[:shared])) / last[0]
        # measured 1.3e-6 (svp) to 3.0e-5 (svt) at the 1e-4 masked stop
        assert 0.0 < res.svd_change < 1e-4
        # a run whose only projection is its first, and a run on the dense
        # path, end on a settled SVD
        assert solver(inst, rule=default_masked_rule(max_iter=1)).svd_change == 0.0
        small, _ = make_instance(30, 2, 0.6, 1e-6, seed=11)
        assert solver(small).svd_change == 0.0

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


class TestDescentInsideTheLemma:
    # At k = 1 the step is the descent-coefficient root gamma0, inside the
    # descent lemma. The lemma assumes the nearest rank-r projection; the
    # run's projections after its first are one warm sweep each, feasible
    # but not nearest. Measured on this instance: 382 iterations either
    # way, every energy drop at least 3.8e-10 of the first energy.
    @pytest.mark.parametrize("settled", [False, True], ids=["one-sweep", "settled"])
    def test_energy_falls_at_every_step(self, desk_instance, monkeypatch, settled):
        inst, M = desk_instance
        if settled:
            SvdCalls(monkeypatch, settled=True)
        res = dys_complete(inst, k=1, M_true=M, with_energy=True)
        assert res.status == CONVERGED
        assert np.all(np.diff(res.trace.column("energy")) < 0)


class TestFactoredDifference:
    @staticmethod
    def factors(rng, m, n, r):
        return rng.standard_normal((m, r)), np.linalg.qr(rng.standard_normal((n, r)))[0]

    @pytest.mark.parametrize("r0, r1", [(4, 4), (3, 5), (5, 3), (0, 4), (4, 0), (0, 0)],
                             ids=["same-width", "wider", "narrower", "svt-start",
                                  "none-kept", "empty"])
    def test_matches_the_dense_difference(self, r0, r1):
        # svt starts from zero-column factors, and a shrinkage may keep none
        rng = np.random.default_rng(17)
        W0, V0 = self.factors(rng, 30, 40, r0)
        W1, V1 = self.factors(rng, 30, 40, r1)
        dense = float(np.sum((W1 @ V1.T - W0 @ V0.T) ** 2))
        assert matcomp._factored_diff_sq(W1, V1, W0, V0) == pytest.approx(dense, rel=1e-13)

    def test_a_zero_start_and_a_small_move(self):
        # the masked solvers start from W = 0, V = 0; a late step moves the
        # factors by little, where the difference cancels
        rng = np.random.default_rng(18)
        W1, V1 = self.factors(rng, 30, 40, 4)
        zero = matcomp._factored_diff_sq(W1, V1, np.zeros((30, 4)), np.zeros((40, 4)))
        assert zero == pytest.approx(float(np.sum(W1 ** 2)), rel=1e-13)
        W0 = W1 + 1e-6 * rng.standard_normal(W1.shape)
        V0 = np.linalg.qr(V1 + 1e-6 * rng.standard_normal(V1.shape))[0]
        dense = float(np.sum((W1 @ V1.T - W0 @ V0.T) ** 2))
        assert matcomp._factored_diff_sq(W1, V1, W0, V0) == pytest.approx(dense, rel=1e-8)


class TestMetrics:
    def test_relative_error_basics(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((6, 6))
        assert relative_error(M, M) == 0.0
        assert relative_error(np.zeros((6, 6)), M) == pytest.approx(1.0)
        assert relative_error(1.01 * M, M) == pytest.approx(0.01, abs=1e-12)
        with pytest.raises(ValueError, match="zero"):
            relative_error(M, np.zeros((6, 6)))
        with pytest.raises(ValueError, match="shape mismatch"):
            relative_error(M, M[:1])  # broadcasting would read a number here

    @pytest.mark.parametrize("solver", [dys_complete, drs_complete, svp_complete, svt_complete])
    @pytest.mark.parametrize("truth, match", [
        (lambda M: M[:1], "M_true has shape"),
        (lambda M: M[:, :1], "M_true has shape"),
        (lambda M: np.where(np.eye(*M.shape, dtype=bool), np.nan, M), "finite"),
    ], ids=["one-row", "one-column", "nan-entries"])
    def test_a_malformed_truth_is_rejected_before_the_first_svd(self, solver, truth, match,
                                                                monkeypatch):
        inst, M = make_instance(30, 2, 400 / 900, 0.0, seed=5)
        calls = []

        def counted(A, k, **kwargs):
            calls.append(k)
            return linalg.truncated_svd(A, k, **kwargs)

        monkeypatch.setattr(matcomp, "truncated_svd", counted)
        with pytest.raises(ValueError, match=match):
            solver(inst, M_true=truth(M))
        assert calls == []

    def test_relative_error_forms_no_full_size_difference(self):
        rng = np.random.default_rng(10)
        X, M = rng.standard_normal((600, 800)), rng.standard_normal((600, 800))
        tracemalloc.start()
        try:
            err = relative_error(X, M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * X.nbytes
        assert err == pytest.approx(np.linalg.norm(X - M) / np.linalg.norm(M), rel=1e-15)

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
