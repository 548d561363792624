"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria 7, 8 and 10 share solver runs through module-scoped
fixtures; the whole module is budgeted to finish well inside the stated
runtime limits on a desktop-class machine.
"""

import io
import time

import numpy as np
import pytest

from triosplit.cs import (SensingInstance, admm_lasso, dca_l12, dys_l12,
                          noise_scaled_weight)
from triosplit.datagen import (DctSpec, add_noise, gen_dct_matrix,
                               gen_low_rank, gen_sparse_signal,
                               mutual_coherence, observe, sample_omega)
from triosplit.experiments import ExperimentConfig, run_experiment
from triosplit.linalg import gram_spectral_norm
from triosplit.matcomp import (CompletionInstance, drs_complete, dys_complete)
from triosplit.prox import soft_threshold
from triosplit.splitting import (CONVERGED, SplittingState, StoppingRule,
                                 ThreeTermProblem, dys_step, energy,
                                 lambda_threshold, max_step_size, run)

from oracles import drs_reference, fbs_reference, ista_lasso


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared problem builders (mirror the experiment drivers)

def quadratic_prox(P, q):
    def prox(v, gamma):
        return np.linalg.solve(np.eye(len(v)) + gamma * P, v - gamma * q)
    return prox


def random_psd(rng, n, scale):
    B = rng.standard_normal((n, n))
    P = B @ B.T
    return P * (scale / np.linalg.eigvalsh(P).max())


def composite_problem(rng, n, g_kind):
    P = random_psd(rng, n, scale=1.0)
    q = 0.1 * rng.standard_normal(n)
    R = random_psd(rng, n, scale=0.7)
    r = 0.1 * rng.standard_normal(n)
    if g_kind == "l1":
        w = 0.5
        prox_g = lambda v, gamma: soft_threshold(v, gamma * w)
        value_g = lambda z: w * np.sum(np.abs(z))
    else:
        prox_g = lambda v, gamma: np.clip(v, -1.0, 1.0)
        value_g = lambda z: 0.0 if np.all(np.abs(z) <= 1.0 + 1e-12) else float("inf")
    return ThreeTermProblem(
        prox_f=quadratic_prox(P, q), prox_g=prox_g,
        grad_h=lambda y: R @ y + r, L=1.0, l=0.0, beta=0.7,
        value_f=lambda y: 0.5 * y @ P @ y + q @ y, value_g=value_g,
        value_h=lambda y: 0.5 * y @ R @ y + r @ y)


def completion_instance(trial_seed, n=300, r=10, p=0.3, lam=1.5e-6):
    rng = np.random.default_rng(trial_seed)
    M, _ = gen_low_rank(n, r, rng)
    ridx, cidx = sample_omega(n, n, int(round(p * n * n)), rng)
    return CompletionInstance(observe(M, ridx, cidx), (n, n), r, lam), M


def sensing_instance(trial_seed, sigma=0.0, m=100, n=1500, F=10, s=5):
    rng = np.random.default_rng((trial_seed, 0, 0))
    A = gen_dct_matrix(DctSpec(m, n, F), rng)
    x_true = gen_sparse_signal(n, s, 2 * F, rng)
    b = A @ x_true
    if sigma > 0:
        b = add_noise(b, sigma, rng)
    return SensingInstance(A, b, x_true=x_true)


@pytest.fixture(scope="module")
def matcomp_runs():
    out = []
    start = time.time()
    for seed in range(5):
        inst, M = completion_instance(seed)
        res_dys = dys_complete(inst, M_true=M)
        res_drs = drs_complete(inst, M_true=M)
        out.append((inst, res_dys, res_drs))
    return out, time.time() - start


@pytest.fixture(scope="module")
def cs_noiseless_runs():
    out = []
    start = time.time()
    for seed in range(5):
        # five seeds exercised here; the other five run inside criterion 8
        inst = sensing_instance(seed)
        out.append((inst, dys_l12(inst)))
    return out, time.time() - start


def test_criterion_01_threshold_root():
    start = time.time()
    g0 = max_step_size(1.0, 0.0, 1.0)
    elapsed = time.time() - start
    ok = 0.14 <= g0 <= 0.16 and elapsed < 1.0
    report(1, ok, f"root {g0:.5f} in [0.14, 0.16], computed in {elapsed:.3f}s")


def test_criterion_02_coefficient_spot_values():
    v1 = lambda_threshold(0.1, 1.0, 0.0, 1.0)
    v2 = lambda_threshold(1e-6, 1.0, 0.0, 1.0)
    ok = abs(v1 - 1.795) <= 1e-9 and v2 > 1e5
    report(2, ok, f"value(0.1)={v1!r} (target 1.795 +/- 1e-9), value(1e-6)={v2:.3g} > 1e5")


def test_criterion_03_energy_descent():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst_slack = -np.inf
    for case in range(20):
        n = int(rng.integers(5, 51))
        problem = composite_problem(rng, n, "l1" if case % 2 == 0 else "box")
        gamma = 0.99 * max_step_size(problem.L, problem.l, problem.beta)
        coeff = lambda_threshold(gamma, problem.L, problem.l, problem.beta)
        assert coeff > 0
        res = run(problem, rng.standard_normal(n), gamma=gamma,
                  rule=StoppingRule(max_iter=150))
        en = res.trace.column("energy")
        dy = res.trace.column("dy_norm")
        for t in range(len(en) - 1):
            slack = (en[t + 1] - en[t]) + coeff * dy[t + 1] ** 2
            worst_slack = max(worst_slack, slack)
    elapsed = time.time() - start
    ok = worst_slack <= 1e-9 and elapsed < 30.0
    report(3, ok, f"20 instances, worst descent slack {worst_slack:.2e} <= 1e-9, {elapsed:.1f}s")


def test_criterion_04_identity_suite():
    rng = np.random.default_rng(7)
    worst_rel = 0.0
    for _ in range(1000):
        a, b, c, d = rng.standard_normal((4, 2))
        lhs = np.linalg.norm(2 * a - b - c - d) ** 2 - np.linalg.norm(a - c - d) ** 2
        rhs = (np.linalg.norm(a - c) ** 2 - np.linalg.norm(b - c) ** 2
               + 2 * np.linalg.norm(a - b) ** 2 + 2 * d @ (b - a))
        worst_rel = max(worst_rel, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    identity_ok = worst_rel <= 1e-10

    # x-step bound along trajectories
    bound_ok = True
    for case in range(3):
        problem = composite_problem(rng, 10, "l1")
        gamma = 0.9 * max_step_size(problem.L, problem.l, problem.beta)
        res = run(problem, rng.standard_normal(10), gamma=gamma,
                  rule=StoppingRule(max_iter=120))
        zy = res.trace.column("zy_gap")
        dy = res.trace.column("dy_norm")
        for t in range(len(zy) - 1):
            if zy[t] > (1.0 + gamma * problem.L) * dy[t + 1] + 1e-9:
                bound_ok = False

    # energy collapse at y = z
    problem = composite_problem(rng, 6, "l1")
    collapse_ok = True
    for _ in range(100):
        x, y = rng.standard_normal((2, 6))
        state = SplittingState(x=x, y=y, z=y.copy())
        val = energy(problem, state, 0.2)
        ref = problem.value_f(y) + problem.value_g(y) + problem.value_h(y)
        if abs(val - ref) > 1e-12 * max(abs(ref), 1.0):
            collapse_ok = False
    ok = identity_ok and bound_ok and collapse_ok
    report(4, ok, f"identity worst rel {worst_rel:.2e}; step bound {bound_ok}; "
                  f"energy collapse {collapse_ok}")


def test_criterion_05_reduction_equivalence():
    rng = np.random.default_rng(11)
    n = 8
    P = random_psd(rng, n, 1.0)
    prox_f = quadratic_prox(P, 0.1 * rng.standard_normal(n))
    prox_g = lambda v, gamma: soft_threshold(v, 0.4 * gamma)
    two_block = ThreeTermProblem(prox_f=prox_f, prox_g=prox_g,
                                 grad_h=lambda y: np.zeros_like(y), L=1.0)
    gamma = 0.3
    x0 = rng.standard_normal(n)
    ref = drs_reference(prox_f, prox_g, x0, gamma, iters=200)
    state = SplittingState(x0, x0, x0)
    worst_two = 0.0
    for t in range(200):
        state, _ = dys_step(two_block, state, gamma)
        rx, ry, rz = ref[t]
        worst_two = max(worst_two,
                        np.max(np.abs(state.x - rx)),
                        np.max(np.abs(state.y - ry)),
                        np.max(np.abs(state.z - rz)))

    R = random_psd(rng, n, 0.9)
    grad_h = lambda y: R @ y + 0.05
    gradient_only = ThreeTermProblem(prox_f=lambda v, g: v, prox_g=prox_g,
                                     grad_h=grad_h, L=1.0, beta=0.9)
    ref_fbs = fbs_reference(prox_g, grad_h, x0, 0.5, iters=200)
    state = SplittingState(x0, x0, x0)
    worst_fbs = 0.0
    for t in range(200):
        state, _ = dys_step(gradient_only, state, 0.5)
        worst_fbs = max(worst_fbs, np.max(np.abs(state.x - ref_fbs[t])))
    ok = worst_two <= 1e-12 and worst_fbs <= 1e-12
    report(5, ok, f"two-block max dev {worst_two:.2e}; gradient-case max dev {worst_fbs:.2e}")


def test_criterion_06_convex_cross_check():
    rng = np.random.default_rng(13)
    m, n = 20, 50
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    lam = 0.1 * np.max(np.abs(A.T @ b))

    def objective(x):
        return 0.5 * np.sum((A @ x - b) ** 2) + lam * np.sum(np.abs(x))

    L = np.linalg.norm(A, 2) ** 2
    AtA, Atb = A.T @ A, A.T @ b
    problem = ThreeTermProblem(
        prox_f=lambda v, g: np.linalg.solve(np.eye(n) + g * AtA, v + g * Atb),
        prox_g=lambda v, g: soft_threshold(v, g * lam),
        grad_h=lambda y: np.zeros_like(y), L=L)
    res = run(problem, np.zeros(n), gamma=0.99 * max_step_size(L, 0.0, 0.0),
              rule=StoppingRule(eps_abs=1e-10, eps_rel=1e-8, max_iter=30000))
    obj_engine = objective(res.state.z)
    obj_admm = objective(admm_lasso(
        SensingInstance(A, b), lam=lam, rho=1.0,
        rule=StoppingRule(eps_abs=1e-10, eps_rel=1e-8, max_iter=30000)).x_opt)
    obj_oracle = objective(ista_lasso(A, b, lam, iters=150000))
    spread = max(abs(obj_engine - obj_oracle), abs(obj_admm - obj_oracle))
    ok = res.status == CONVERGED and spread <= 1e-6
    report(6, ok, f"objective spread across three solvers {spread:.2e} <= 1e-6")


def test_criterion_07_completion_desk_scale(matcomp_runs):
    runs, elapsed = matcomp_runs
    errors = [res.relative_error for _, res, _ in runs]
    dys_iters = [res.iterations for _, res, _ in runs]
    drs_iters = [res.iterations for _, _, res in runs]
    all_small = all(e < 1e-3 for e in errors)
    all_fast = all(it < 300 for it in dys_iters)
    all_conv = all(res.status == CONVERGED for _, res, _ in runs)
    fewer = sum(d < r for d, r in zip(dys_iters, drs_iters))
    ok = all_small and all_fast and all_conv and fewer >= 4 and elapsed < 300
    report(7, ok, f"errors {['%.1e' % e for e in errors]}, three-block iters {dys_iters} "
                  f"vs two-block {drs_iters} (fewer on {fewer}/5), {elapsed:.0f}s < 300s")


def test_criterion_08_sensing_desk_scale(cs_noiseless_runs):
    runs, warm_elapsed = cs_noiseless_runs
    start = time.time()
    noiseless = [rep for _, rep in runs]
    for seed in range(5, 10):
        inst = sensing_instance(seed)
        noiseless.append(dys_l12(inst))
    successes = [rep for rep in noiseless if rep.success]
    n_success = len(successes)
    mean_err = float(np.mean([rep.relative_error for rep in successes])) if successes else np.inf

    # noisy half: both methods get the universal-threshold weight for the
    # noise level; the noiseless defaults sit far below it and fit the noise
    sigma = 0.01
    wins = 0
    lams, per_seed = [], []
    for seed in range(10):
        inst = sensing_instance(seed, sigma=sigma)
        lam = noise_scaled_weight(inst.A, sigma)
        rep_dys = dys_l12(inst, lam=lam)
        rep_dca = dca_l12(inst, lam=lam)
        if rep_dys.relative_error <= rep_dca.relative_error:
            wins += 1
        lams.append(lam)
        per_seed.append(f"{seed}: dys {rep_dys.relative_error:.3g} {rep_dys.status} / "
                        f"dca {rep_dca.relative_error:.3g} {rep_dca.status}")
    elapsed = time.time() - start + warm_elapsed
    ok = n_success >= 8 and mean_err < 1e-4 and wins >= 6 and elapsed < 600
    report(8, ok, f"noiseless success {n_success}/10, mean success error {mean_err:.2e}; "
                  f"noisy wins {wins}/10 (need >= 6) at lam {min(lams):.4g}..{max(lams):.4g} "
                  f"[{'; '.join(per_seed)}]; {elapsed:.0f}s < 600s")


def test_criterion_09_frame_coherence():
    cohs = [mutual_coherence(gen_dct_matrix(DctSpec(100, 2000, 10), seed=seed))
            for seed in range(5)]
    ok = all(c > 0.99 for c in cohs)
    report(9, ok, f"coherence per seed {['%.4f' % c for c in cohs]} all > 0.99")


def test_criterion_10_stationarity_certificates(matcomp_runs, cs_noiseless_runs):
    mc_runs, _ = matcomp_runs
    cs_runs, _ = cs_noiseless_runs
    ok = True
    details = []

    for inst, res, _ in mc_runs:
        if res.status != CONVERGED:
            continue
        tr = res.trace
        gamma = tr.last.gamma
        factor = 1.0 + 1.0 + 1.0 / gamma  # L = 1; beta = lam = 1.5e-6 counted as 1 (cancels in bound/scale)
        bound = factor * tr.last.zy_gap
        scale = factor * 1e-4 * np.linalg.norm(inst.obs.values)
        gaps = tr.column("zy_gap")
        trend = gaps[-1] <= 0.01 * np.max(gaps)
        ok = ok and bound <= 10 * scale and trend
        details.append(f"mc bound/scale={bound / scale:.2f}")

    for inst, rep in cs_runs:
        if rep.status != CONVERGED:
            continue
        st = rep.end_state
        L = gram_spectral_norm(inst.A)
        factor = L + 1.0 + 1.0 / st["gamma"]
        bound = factor * np.linalg.norm(st["z"] - st["y"])
        tau = (np.sqrt(inst.n) * 1e-7
               + 1e-5 * max(np.linalg.norm(st["y"]), np.linalg.norm(st["z"])))
        ok = ok and bound <= 10 * factor * tau
        details.append(f"cs bound/scale={bound / (factor * tau):.2f}")

    report(10, ok and details, "certificates within 10x of tolerance scale, "
                               f"gap trace decays [{'; '.join(details)}]")


def test_criterion_11_deterministic_tables():
    def csv_of(cfg):
        buf = io.StringIO()
        run_experiment(cfg).to_csv(buf)
        return buf.getvalue()

    mc_cfg = dict(task="matcomp_synth", methods=("dys", "svp"), trials=2,
                  seed=4, n=80, r=4, p=0.4, lam=1.5e-6)
    cs_cfg = dict(task="cs_recovery", methods=("admm",), trials=2, seed=4,
                  m=30, n=90, sparsity_levels=(2,), refinement=3, max_iter=4000)
    same_mc = csv_of(ExperimentConfig(**mc_cfg)) == csv_of(ExperimentConfig(**mc_cfg))
    same_cs = csv_of(ExperimentConfig(**cs_cfg)) == csv_of(ExperimentConfig(**cs_cfg))
    ok = same_mc and same_cs
    report(11, ok, f"completion rerun identical: {same_mc}; sensing rerun identical: {same_cs}")
