"""Tests of the benchmark's own checks: each passes on a tiny instance of the
program's real output and fails on a deliberately corrupted one.

    python3 -m pytest -q perfbench/test_checks.py
"""

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
import pytest

import cstomo
import checks
import spans
import workloads
from checks import CheckFailed


def test_dense_paulis_and_design_match_the_program():
    rng = np.random.default_rng(0)
    paulis = cstomo.sample_paulis(3, 20, with_replacement=False, rng=rng)
    for p in paulis:
        assert np.allclose(checks.dense_pauli(p.codes), cstomo.pauli_matrix(p))
    plan = cstomo.MeasurementPlan(tuple(paulis))
    design = checks.design_matrix([p.codes for p in paulis], 8)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    x = g + g.conj().T
    v = rng.standard_normal(20)
    assert np.allclose(checks.forward(design, x), cstomo.apply_sampling_operator(plan, x))
    assert np.allclose(checks.adjoint(design, v), cstomo.adjoint_sampling_operator(plan, v))


def test_fidelity_matches_the_program_and_the_pure_state_overlap():
    rng = np.random.default_rng(1)
    rho = cstomo.random_rank_r_projection(3, 2, rng, group="unitary")
    sigma = cstomo.depolarize_local(cstomo.haar_random_pure(3, rng), 0.1)
    assert checks.fidelity(rho.mat, sigma.mat) == pytest.approx(
        cstomo.fidelity(rho, sigma), abs=1e-10)
    psi = cstomo.haar_random_pure(3, rng)
    overlap = np.real(np.trace(psi.mat @ rho.mat))
    assert checks.fidelity(rho.mat, psi.mat) == pytest.approx(overlap, abs=1e-10)


def tiny(cls, **round_):
    """A workload with one small round, drawn from seed 0."""
    return type(f"Tiny{cls.__name__}", (cls,), {"ROUNDS": 1, **round_})(0)


def run_round(workload):
    outputs = []
    for instance in workload.instances:
        output = workload.run(instance)
        workload.check(instance, output)
        outputs.append(output)
    workload.finish()
    return outputs


def test_sweep_checks():
    sweep = tiny(workloads.Sweep, M_GRID=(8, 12))
    sweep.run = lambda seed: cstomo.run_benchmark(cstomo.ExperimentConfig(
        n=2, T=2000.0, c=1.0, m_grid=sweep.M_GRID, estimators=sweep.ESTIMATORS,
        trials=2, gamma=0.01, seed=seed))[0]
    rows = run_round(sweep)[0]
    broken = [dataclasses.replace(rows[0], mean_trace_distance=0.5, mean_fidelity=0.95)]
    with pytest.raises(CheckFailed, match="Fuchs-van de Graaf"):
        sweep.check(0, broken + rows[1:])
    with pytest.raises(CheckFailed, match="not the grid"):
        sweep.check(0, rows[1:])
    sweep.fidelities = {(m, e): [0.5 if e == "lasso" else 0.9] for m in sweep.M_GRID
                        for e in sweep.ESTIMATORS}
    with pytest.raises(CheckFailed, match="lasso mean fidelity"):
        sweep.finish()


def test_fvdg_bounds():
    checks.check_fvdg(1.0, 0.0)
    checks.check_fvdg(0.81, 0.2)
    with pytest.raises(CheckFailed):
        checks.check_fvdg(0.81, 0.05)
    with pytest.raises(CheckFailed):
        checks.check_fvdg(0.81, 0.5)
    with pytest.raises(CheckFailed):
        checks.check_fvdg(1.2, 0.1)


def test_recover_checks():
    recover = tiny(workloads.Recover, ROUND=((3, 40, 1),))
    instance = recover.instances[0]
    y, estimate = run_round(recover)[0]
    with pytest.raises(CheckFailed, match="trace distance"):
        recover.check(instance, (y, 2.0 * estimate))
    # a rescaled estimate too close to the truth for the distance check still fails KKT
    with pytest.raises(CheckFailed, match="KKT"):
        recover.check(instance, (y, 1.001 * estimate))
    with pytest.raises(CheckFailed, match="dense Pauli traces"):
        recover.check(instance, (-y, estimate))


def test_certify_checks():
    certify = tiny(workloads.Certify, ROUND=((2, 1), (2, 2)))
    estimates = run_round(certify)
    certify.hits = certify.checked = 0
    for instance, est in zip(certify.instances, estimates):
        certify.check(instance, dataclasses.replace(est, value=est.value - 2 * certify.EPS))
    with pytest.raises(CheckFailed, match="certificates within"):
        certify.finish()
    with pytest.raises(CheckFailed, match="copies"):
        certify.check(certify.instances[0], dataclasses.replace(estimates[0], copies_used=0))


def test_process_checks():
    process = tiny(workloads.Process, ROUND=((1, 96),))
    instance = process.instances[0]
    record, estimate, rho_e_hat, fid = run_round(process)[0]

    exact = process.exact_values(instance)
    worst = int(np.argmax(np.abs(exact)))
    plus = record.plus_counts.copy()
    plus[worst] = record.shots[worst] - plus[worst]
    flipped = cstomo.MeasurementRecord(record.normalization * (2.0 * plus / record.shots - 1.0),
                                       record.shots, plus, record.normalization)
    assert flipped.y[worst] == pytest.approx(-record.y[worst])
    with pytest.raises(CheckFailed, match="binomial band"):
        process.check(instance, (flipped, estimate, rho_e_hat, fid))
    with pytest.raises(CheckFailed, match="unit trace"):
        process.check(instance, (record, estimate, 2.0 * rho_e_hat, fid))
    with pytest.raises(CheckFailed, match="independent value"):
        process.check(instance, (record, estimate, rho_e_hat, fid - 1e-3))
    channel, paulis, _ = instance
    with pytest.raises(CheckFailed, match="exact process record"):
        process.check_exact(channel, paulis, -exact)


def test_components_rounds_hold_each_part_in_its_count():
    mixed = workloads.Components(0)
    rounds = mixed.rounds()
    expected = [part for part in mixed.PARTS
                for _ in range(mixed.COUNTS[part] * len(part.ROUND))]
    assert len(rounds) == mixed.ROUNDS
    assert all([type(part) for part, _ in one] == expected for one in rounds)
    recoveries = [id(instance) for one in rounds for part, instance in one
                  if isinstance(part, workloads.Recover)]
    assert len(set(recoveries)) == len(recoveries)
    item = next(item for item in rounds[0] if isinstance(item[0], workloads.Certify))
    output = mixed.run(item)
    mixed.check(item, output)
    assert mixed.fidelity(item, output) == output.value


def test_tracer_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    assert tracer.totals == {}
    tracer.active = True
    outer()
    assert tracer.totals["inner.calls"] == 3 and tracer.totals["outer.calls"] == 1
    assert 0 < tracer.totals["outer.self_s"] < tracer.totals["inner.self_s"]
    per_op = tracer.per_op(2)
    assert per_op["certify.copies"] == {"value": 0.0, "unit": "copies/op"}
