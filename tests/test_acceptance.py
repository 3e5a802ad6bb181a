"""End-to-end acceptance gate: eleven numbered checks, one pass/fail line each.

Each check prints CRITERION k: PASS/FAIL directly to the terminal (bypassing
capture) before asserting, so the scoreboard is visible even on failure.
"""

import numpy as np
import pytest

import conftest

from cstomo.certify import (
    StateOracle,
    certify_fidelity,
    dfe_distribution,
    perturbation_shift,
    worst_case_shift,
)
from cstomo.cli import main
from cstomo.experiment import ExperimentConfig, run_benchmark
from cstomo.lowerbound import (
    VacuousBoundError,
    alpha_bound,
    generate_packing,
    minimax_copies_bound,
    packing_rate_c,
    verify_packing,
)
from cstomo.measurement import (
    EXACT,
    MeasurementPlan,
    apply_sampling_operator,
    simulate_measurements,
)
from cstomo.pauli import PauliString, all_paulis, pauli_matrix, sample_paulis
from cstomo.process import (
    channel_pauli_expectation,
    compose,
    jamiolkowski_fidelity,
    jamiolkowski_state,
    local_depolarizing_channel,
    random_channel,
    reconstruct_channel,
    simulate_process_measurements,
    split_pauli,
    unitary_channel,
)
from cstomo.solvers import SolverConfig, dantzig_selector, matrix_lasso, mle, renormalize
from cstomo.states import (
    DensityMatrix,
    fidelity,
    haar_random_pure,
    haar_random_unitary,
    random_rank_r_projection,
    trace_distance,
    truncate_rank,
)


def report(k, ok, detail):
    line = f"CRITERION {k}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.SCOREBOARD.append((k, line))
    assert ok, line


def random_hermitian(d, rng):
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (x + x.conj().T) / 2


def test_criterion_1_parseval():
    rng = np.random.default_rng(1)
    worst = 0.0
    for n in (2, 3, 4):
        plan = MeasurementPlan(tuple(all_paulis(n)))
        for _ in range(100):
            x = random_hermitian(1 << n, rng)
            gap = abs(np.linalg.norm(apply_sampling_operator(plan, x))
                      - np.linalg.norm(x))
            worst = max(worst, gap)
    report(1, worst <= 1e-10,
           f"complete-set isometry, worst norm gap {worst:.2e} (tol 1e-10)")


def test_criterion_2_noiseless_exact_recovery():
    worst = {}
    for n in (2, 3):
        rng = np.random.default_rng(20 + n)
        truth = haar_random_pure(n, rng)
        plan = MeasurementPlan(tuple(all_paulis(n)))
        record = simulate_measurements(plan, truth, EXACT)
        worst[f"dantzig d={1 << n}"] = trace_distance(
            dantzig_selector(plan, record.y, 1e-6).rho_hat, truth)
        worst[f"lasso d={1 << n}"] = trace_distance(
            matrix_lasso(plan, record.y, 1e-6).rho_hat, truth)
        tight = SolverConfig(tolerance=1e-13, max_iterations=50000)
        worst[f"mle d={1 << n}"] = trace_distance(mle(plan, record, tight).rho_hat, truth)
    bad = {k: v for k, v in worst.items() if v > 1e-3}
    report(2, not bad,
           f"all estimators, worst trace distance {max(worst.values()):.2e} (tol 1e-3)")


def test_criterion_3_compressed_recovery():
    hits = 0
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(300 + seed)
        truth = haar_random_pure(4, rng)
        plan = MeasurementPlan(tuple(sample_paulis(4, 96, rng=rng)))
        record = simulate_measurements(plan, truth, EXACT)
        td = trace_distance(matrix_lasso(plan, record.y, 1e-6).rho_hat, truth)
        worst = max(worst, td)
        if td <= 1e-2:
            hits += 1
    report(3, hits >= 95,
           f"d=16, m=6d: {hits}/100 instances within 1e-2 (need 95), worst {worst:.2e}")


def test_criterion_4_error_scaling():
    plan = MeasurementPlan(tuple(all_paulis(3)))
    ts = [10**3, 10**4, 10**5, 10**6]
    means = []
    for t in ts:
        errs = []
        for seed in range(5):
            rng = np.random.default_rng(4000 + seed)
            truth = haar_random_pure(3, rng)
            record = simulate_measurements(plan, truth, t, rng)
            res = renormalize(matrix_lasso(plan, record.y, 8 / np.sqrt(t)))
            errs.append(trace_distance(res.rho_hat, truth))
        means.append(np.mean(errs))
    slope = float(np.polyfit(np.log(ts), np.log(means), 1)[0])
    report(4, abs(slope + 0.5) <= 0.1,
           f"trace-distance error vs copies: log-log slope {slope:.3f} (target -0.5 +- 0.1)")


def test_criterion_5_benchmark_reproduction():
    config = ExperimentConfig(n=4, T=10000.0, c=20.0,
                              m_grid=(32, 64, 96, 128, 192, 256),
                              estimators=("lasso", "mle"), trials=40,
                              gamma=0.01, seed=5)
    rows, _ = run_benchmark(config, timing=False)
    lasso = {r.m: r.mean_fidelity for r in rows if r.estimator == "lasso"}
    mle_f = {r.m: r.mean_fidelity for r in rows if r.estimator == "mle"}
    dominates = all(lasso[m] >= mle_f[m] for m in config.m_grid)
    upper = [lasso[m] for m in config.m_grid[len(config.m_grid) // 2:]]
    spread = max(upper) - min(upper)
    report(5, dominates and spread <= 0.03,
           f"trace-penalty beats likelihood at every m: {dominates}; "
           f"upper-grid fidelity spread {spread:.4f} (tol 0.03)")


def test_criterion_6_dfe_algebra():
    worst_delta = 0.0
    for r in (2, 4, 8):
        for eps0 in (0.01, 0.1):
            g = np.eye(r) / r**2
            e = eps0 * np.eye(r) / r
            worst_delta = max(worst_delta, abs(
                perturbation_shift(g, e) - worst_case_shift(r, eps0)))
    worst_bias = 0.0
    worst_var = 0.0
    for n in (1, 2):
        d = 1 << n
        rng = np.random.default_rng(60 + n)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        probs = dfe_distribution(a, b)
        mean = 0.0 + 0.0j
        second = 0.0
        for i in range(d * d):
            if probs[i] == 0:
                continue
            p = pauli_matrix(PauliString.from_index(n, i))
            x = np.trace(p @ rho) / np.vdot(b, p @ a)
            mean += probs[i] * x
            second += probs[i] * abs(x) ** 2
        worst_bias = max(worst_bias, abs(mean - np.vdot(a, rho @ b)))
        worst_var = max(worst_var, second - abs(mean) ** 2 - 1.0)
    ok = worst_delta <= 1e-12 and worst_bias <= 1e-12 and worst_var <= 1e-12
    report(6, ok,
           f"shift-formula gap {worst_delta:.2e}, estimator bias {worst_bias:.2e}, "
           f"variance excess {worst_var:.2e} (tol 1e-12)")


def test_criterion_7_dfe_end_to_end():
    hits = 0
    trials = 200
    for seed in range(trials):
        rng = np.random.default_rng(700 + seed)
        truth = random_rank_r_projection(3, 2, rng, group="unitary")
        pert = random_hermitian(8, rng)
        noisy = DensityMatrix(truth.mat + 0.03 * pert / np.linalg.norm(pert))
        rho_hat, _ = truncate_rank(noisy, 2)
        rho_hat = DensityMatrix(rho_hat.mat / np.trace(rho_hat.mat).real)
        f_true = fidelity(rho_hat, truth)
        est = certify_fidelity(StateOracle(truth), rho_hat, 0.05, 0.1, rng)
        if abs(est.value - f_true) <= 0.05:
            hits += 1
    report(7, hits >= 0.9 * trials,
           f"d=8, r=2 certification: {hits}/{trials} within eps=0.05 (need 180)")


def test_criterion_8_process_tomography():
    worst = 0.0
    count = 0
    for n in (1, 2):
        rng = np.random.default_rng(80 + n)
        for _ in range(10):
            ch = random_channel(n, int(rng.integers(1, 5)), rng)
            rho_e = jamiolkowski_state(ch)
            count += 1
            for p in all_paulis(2 * n):
                lhs = float(np.trace(pauli_matrix(p) @ rho_e.mat).real)
                rhs = channel_pauli_expectation(ch, *split_pauli(p))
                worst = max(worst, abs(lhs - rhs))
    rng = np.random.default_rng(88)
    u = haar_random_unitary(4, rng)
    ch = compose(local_depolarizing_channel(2, 0.01), unitary_channel(u))
    plan = MeasurementPlan(tuple(all_paulis(4)))
    exact_rec = simulate_process_measurements(ch, plan, EXACT)
    est, _ = reconstruct_channel(exact_rec, plan, "lasso", 1e-6)
    fid_exact = jamiolkowski_fidelity(ch, est)
    noisy_rec = simulate_process_measurements(ch, plan, 10**6, rng)
    est, _ = reconstruct_channel(noisy_rec, plan, "lasso", 4 * plan.d / 1000.0)
    fid_noisy = jamiolkowski_fidelity(ch, est)
    ok = worst <= 1e-10 and fid_exact >= 0.95 and fid_noisy >= 0.90
    report(8, ok,
           f"encoding identity gap {worst:.2e} over {count} channels; round-trip "
           f"fidelity exact {fid_exact:.4f} (need 0.95), noisy {fid_noisy:.4f} (need 0.90)")


def test_criterion_9_mle_monotonicity():
    violations = 0
    for seed in range(100):
        rng = np.random.default_rng(900 + seed)
        truth = haar_random_pure(2, rng)
        m = int(rng.integers(6, 17))
        plan = MeasurementPlan(tuple(sample_paulis(2, m, rng=rng)))
        record = simulate_measurements(plan, truth, int(rng.integers(m, 20000)), rng)
        history = mle(plan, record).objective_history
        if np.any(np.diff(history) < -1e-9):
            violations += 1
    report(9, violations == 0,
           f"likelihood ascent: {violations} violations across 100 instances (need 0)")


def _uniform_packing_copy_bound(d, r=1):
    """t* for a packing of size e^(c r d) at epsilon = (1 - r/d) / 2, delta = 0."""
    eps = 0.5 * (1 - r / d)
    s = float(np.exp(packing_rate_c(d, r, eps) * r * d))
    return minimax_copies_bound(s, alpha_bound(d, r), 0.0)


def test_criterion_10_lower_bound_machinery():
    rng = np.random.default_rng(10)
    packing = generate_packing(8, 1, 0.4, 20, 5000, rng)
    packing_ok = packing.complete and verify_packing(packing)
    # At desk scale ln s < 1, so the inverted bound carries no information and
    # must be signalled as vacuous rather than returned as a number.
    desk_ds = [8, 16, 32]
    desk_outcomes = []
    for d in desk_ds:
        try:
            desk_outcomes.append(f"returned {_uniform_packing_copy_bound(d):.3g}")
        except ValueError as exc:
            desk_outcomes.append(type(exc).__name__)
    vacuous_ok = all(outcome == VacuousBoundError.__name__ for outcome in desk_outcomes)
    # The bound is non-vacuous from d = 128 on; t* ~ r^2 d^2 / log d there.
    ds = [256, 512, 1024]
    tstars = [_uniform_packing_copy_bound(d) for d in ds]
    slope = float(np.polyfit(np.log(ds), np.log(tstars), 1)[0])
    slope_ok = abs(slope - 2.0) <= 0.15
    detail = (f"packing verified: {packing_ok}; "
              f"d={','.join(map(str, desk_ds))} bound: {', '.join(desk_outcomes)}; "
              f"copy-bound slope over d={ds[0]}..{ds[-1]} {slope:.3f} (target 2 +- 0.15)")
    report(10, packing_ok and vacuous_ok and slope_ok, detail)


def test_criterion_11_determinism(tmp_path):
    pairs = []
    sim_args = ["simulate", "--n", "2", "--m", "12", "--t", "2000", "--seed", "7"]
    for i in (0, 1):
        out = tmp_path / f"sim{i}.json"
        assert main(sim_args + ["--output", str(out)]) == 0
        pairs.append(out.read_bytes())
    sim_same = pairs[0] == pairs[1]
    import json
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "T": 2000, "c": 20, "m_grid": [8, 16],
                               "trials": 3, "seed": 2,
                               "estimators": ["lasso", "mle"]}))
    csvs = []
    for i in (0, 1):
        out = tmp_path / f"bench{i}.csv"
        assert main(["benchmark", "--config", str(cfg), "--no-timing",
                     "--output", str(out)]) == 0
        csvs.append(out.read_bytes())
    bench_same = csvs[0] == csvs[1]
    report(11, sim_same and bench_same,
           f"seeded reruns byte-identical: simulate {sim_same}, benchmark {bench_same}")
