import numpy as np
import pytest

from cstomo.measurement import (
    EXACT,
    MeasurementPlan,
    MeasurementRecord,
    TimeBudget,
    adjoint_sampling_operator,
    apply_sampling_operator,
    budget_split,
    empirical_rip_constant,
    plan_from_dict,
    plan_to_dict,
    simulate_measurements,
)
from cstomo.pauli import PauliString, all_paulis, pauli_matrix, sample_paulis
from cstomo.states import haar_random_pure, maximally_mixed


def random_hermitian(d, rng):
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (x + x.conj().T) / 2


def full_plan(n):
    return MeasurementPlan(tuple(all_paulis(n)))


def test_plan_validation():
    with pytest.raises(ValueError):
        MeasurementPlan(())
    mixed = tuple(all_paulis(1)) + tuple(all_paulis(2))
    with pytest.raises(ValueError):
        MeasurementPlan(mixed)


def test_expectations_match_dense_traces():
    rng = np.random.default_rng(0)
    plan = MeasurementPlan(tuple(sample_paulis(3, 12, rng=rng)))
    x = random_hermitian(8, rng)
    dense = [np.trace(pauli_matrix(p) @ x).real for p in plan.paulis]
    assert np.allclose(plan.expectations(x), dense, atol=1e-10)


def test_adjoint_is_the_adjoint():
    # <A(X), v> = <X, A*(v)> for random X, v
    rng = np.random.default_rng(1)
    plan = MeasurementPlan(tuple(sample_paulis(2, 7, rng=rng)))
    x = random_hermitian(4, rng)
    v = rng.standard_normal(7)
    lhs = float(apply_sampling_operator(plan, x) @ v)
    rhs = float(np.trace(adjoint_sampling_operator(plan, v).conj().T @ x).real)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_pauli_sum_matches_dense_sum():
    # repeated words and Y factors exercise the scatter's accumulation and phases
    plan = MeasurementPlan(tuple(PauliString.from_label(s)
                                 for s in ("YX", "YX", "ZY", "II", "YY", "XZ", "ZY")))
    coeffs = np.random.default_rng(3).standard_normal(plan.m)
    dense = sum(c * pauli_matrix(p) for c, p in zip(coeffs, plan.paulis))
    assert np.allclose(plan.pauli_sum(coeffs), dense, atol=1e-12)
    plan = MeasurementPlan(tuple(sample_paulis(3, 80, rng=np.random.default_rng(4))))
    assert len({p.index for p in plan.paulis}) < plan.m
    coeffs = np.random.default_rng(5).standard_normal(plan.m)
    dense = sum(c * pauli_matrix(p) for c, p in zip(coeffs, plan.paulis))
    assert np.allclose(plan.pauli_sum(coeffs), dense, atol=1e-12)
    with pytest.raises(ValueError):
        plan.pauli_sum(np.ones(plan.m + 1))


def test_complete_set_is_an_isometry():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        plan = full_plan(n)
        for _ in range(5):
            x = random_hermitian(1 << n, rng)
            assert np.linalg.norm(apply_sampling_operator(plan, x)) == pytest.approx(
                np.linalg.norm(x), abs=1e-10)
            back = adjoint_sampling_operator(plan, apply_sampling_operator(plan, x))
            assert np.allclose(back, x, atol=1e-10)


def test_budget_split():
    assert budget_split(TimeBudget(41000, 20, 1000)) == 21000
    with pytest.raises(ValueError, match="infeasible"):
        budget_split(TimeBudget(100, 20, 5))


def test_exact_simulation():
    plan = full_plan(2)
    rho = haar_random_pure(2, np.random.default_rng(3))
    rec = simulate_measurements(plan, rho, EXACT)
    assert rec.exact
    assert np.allclose(rec.y, apply_sampling_operator(plan, rho.mat), atol=1e-12)


def test_noisy_simulation_statistics():
    plan = full_plan(2)
    rho = maximally_mixed(2)
    rng = np.random.default_rng(4)
    rec = simulate_measurements(plan, rho, 16 * 4000, rng)
    assert rec.shots[0] == 4000
    # identity Pauli always reads +1; others are unbiased coin flips
    assert rec.plus_counts[0] == 4000
    freqs = rec.plus_frequencies()[1:]
    assert np.max(np.abs(freqs - 0.5)) < 5 * np.sqrt(0.25 / 4000)
    with pytest.raises(ValueError):
        simulate_measurements(plan, rho, 10, rng)


def test_record_invariant_enforced():
    with pytest.raises(ValueError, match="inconsistent"):
        MeasurementRecord(np.array([0.9]), np.array([10]), np.array([5]), 1.0)
    with pytest.raises(ValueError):
        MeasurementRecord(np.array([0.0]), np.array([10]), np.array([11]), 1.0)


def test_determinism():
    plan = full_plan(2)
    rho = haar_random_pure(2, np.random.default_rng(5))
    a = simulate_measurements(plan, rho, 5000, np.random.default_rng(8))
    b = simulate_measurements(plan, rho, 5000, np.random.default_rng(8))
    assert np.array_equal(a.plus_counts, b.plus_counts)


def test_empirical_rip_near_one_for_complete_set():
    stats = empirical_rip_constant(full_plan(3), 2, 20, np.random.default_rng(6))
    assert stats.minimum == pytest.approx(1.0, abs=1e-9)
    assert stats.maximum == pytest.approx(1.0, abs=1e-9)


def test_plan_serialization_round_trip():
    rng = np.random.default_rng(7)
    plan = MeasurementPlan(tuple(sample_paulis(3, 9, rng=rng)))
    back = plan_from_dict(plan_to_dict(plan, seed=7))
    assert [p.index for p in back.paulis] == [p.index for p in plan.paulis]
