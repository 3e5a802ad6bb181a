import numpy as np
import pytest

from conftest import solve_sweep_cells

import cstomo.cli
import cstomo.measurement
import cstomo.pauli
from cstomo.experiment import ExperimentConfig
from cstomo.measurement import (
    EXACT,
    MeasurementPlan,
    MeasurementRecord,
    adjoint_sampling_operator,
    apply_sampling_operator,
    empirical_rip_constant,
    simulate_measurements,
)
from cstomo.pauli import (
    SINGLE_QUBIT_MATRICES,
    PauliString,
    all_paulis,
    pauli_matrix,
    sample_paulis,
)
from cstomo.states import DensityMatrix, haar_random_pure, maximally_mixed


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


@pytest.fixture
def words_built(monkeypatch):
    """Every PauliString built from here on, one by one or by the bulk decoder."""
    built = []
    post_init = PauliString.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    decode = cstomo.pauli.paulis_from_indices

    def counting_decode(n, indices):
        words = decode(n, indices)
        built.extend(words)
        return words

    monkeypatch.setattr(PauliString, "__post_init__", counting_post_init)
    for module in (cstomo.pauli, cstomo.measurement):
        monkeypatch.setattr(module, "paulis_from_indices", counting_decode)
    return built


def test_plans_build_no_words_until_read(words_built, monkeypatch, tmp_path):
    indices = np.random.default_rng(0).integers(0, 4**10, size=40960)
    plan = MeasurementPlan.from_indices(10, indices)
    assert plan.m == 40960 and words_built == []
    assert [p.index for p in plan.paulis] == indices.tolist()
    assert len(words_built) == 40960

    words_built.clear()
    drawn = []
    draw = cstomo.cli._draw_plan

    def recording_draw(cfg, n, rng):
        plan = draw(cfg, n, rng)
        drawn.append((plan.m, len(words_built)))
        return plan

    monkeypatch.setattr(cstomo.cli, "_draw_plan", recording_draw)
    assert cstomo.cli.main(["simulate", "--n", "3", "--m", "40", "--t", "exact",
                            "--output", str(tmp_path / "sim.json")]) == 0
    assert drawn == [(40, 0)]
    assert len(words_built) == 40  # the plan file's labels

    words_built.clear()
    solve_sweep_cells(ExperimentConfig(n=3, m_grid=(16,), estimators=("lasso",), trials=1))
    assert words_built == []


def test_plans_are_read_only_values():
    plan = MeasurementPlan.from_indices(2, [7, 1])
    assert plan == MeasurementPlan((PauliString.from_label("XZ"), PauliString.from_label("IX")))
    assert hash(plan) == hash(MeasurementPlan.from_indices(2, np.array([7, 1], dtype=np.uint8)))
    assert plan != MeasurementPlan.from_indices(2, [1, 7])
    assert plan != MeasurementPlan.from_indices(3, [7, 1])
    with pytest.raises(AttributeError):
        plan.indices = np.array([0, 0])
    with pytest.raises(ValueError):
        plan.indices[0] = 0


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


def kron_pauli(p):
    """Dense Pauli matrix from Kronecker products, independent of the tables."""
    mat = np.array([[1.0]], dtype=complex)
    for c in p.codes:
        mat = np.kron(mat, SINGLE_QUBIT_MATRICES[c])
    return mat


def test_kernels_match_kronecker_paulis():
    # with-replacement plans: repeated words and Y factors at every qubit count
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4):
        d = 1 << n
        plan = MeasurementPlan(tuple(sample_paulis(n, 3 * d, rng=rng)))
        assert len({p.index for p in plan.paulis}) < plan.m
        assert any(2 in p.codes for p in plan.paulis)
        dense = [kron_pauli(p) for p in plan.paulis]
        x = random_hermitian(d, rng)
        expected = np.array([np.trace(p @ x).real for p in dense])
        assert np.max(np.abs(plan.expectations(x) - expected)) <= 1e-12
        coeffs = rng.standard_normal(plan.m)
        expected = sum(c * p for c, p in zip(coeffs, dense))
        assert np.max(np.abs(plan.pauli_sum(coeffs) - expected)) <= 1e-12


def reference_kernels(plan):
    """The permutation-and-phase table layer that A and A* went through before the
    all-Pauli transform: float64-view slots and real weights of every table entry.

    Row k of a word has its nonzero entry in column k ^ x with phase
    (-i)^{#Y} (-1)^{popcount(k & z)}; a word's phases are all +-1 or all +-i,
    so each entry touches one real or one imaginary float of the d x d matrix.
    """
    n, d = plan.n, plan.d
    position = np.arange(n - 1, -1, -1)
    codes = (plan.indices[:, None] >> (2 * position)) & 3
    z = codes >> 1
    x = (codes ^ z) & 1
    basis_bits = (np.arange(d)[:, None] >> position) & 1
    perms = np.arange(d) ^ (x @ (1 << position))[:, None]
    phases = np.array([1, -1j, -1, 1j])[((x * z).sum(axis=1)[:, None] + 2 * (z @ basis_bits.T)) & 3]
    rows = np.arange(d)
    imag = phases.imag != 0
    gather_slots = 2 * (perms * d + rows) + imag
    gather_weights = np.where(imag, -phases.imag, phases.real)
    scatter_slots = (2 * (rows * d + perms) + imag).ravel()
    scatter_signs = np.where(imag, phases.imag, phases.real)
    return gather_slots, gather_weights, scatter_slots, scatter_signs


def reference_expectations(plan, mat):
    slots, weights, _, _ = reference_kernels(plan)
    mat = np.ascontiguousarray(mat, dtype=complex)
    return np.einsum("ij,ij->i", mat.reshape(-1).view(np.float64).take(slots), weights)


def reference_pauli_sum(plan, coeffs):
    _, _, slots, signs = reference_kernels(plan)
    flat = np.bincount(slots, (coeffs[:, None] * signs).ravel(), 2 * plan.d * plan.d)
    return flat.view(complex).reshape(plan.d, plan.d)


@pytest.mark.parametrize("n", [5, 6])
def test_transform_matches_reference_kernels(n):
    """With-replacement plans at n = 5 and 6 (repeated words, Y factors), on Hermitian,
    non-Hermitian and real inputs; the two routes differ in summation order only."""
    rng = np.random.default_rng(14 + n)
    d = 1 << n
    plan = MeasurementPlan(tuple(sample_paulis(n, 3 * d * d // 4, rng=rng)))
    assert len({p.index for p in plan.paulis}) < plan.m
    assert any(2 in p.codes for p in plan.paulis)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    for mat in (g + g.conj().T, g, g.real):
        assert np.max(np.abs(plan.expectations(mat) - reference_expectations(plan, mat))) <= 1e-12 * d
    coeffs = rng.standard_normal(plan.m)
    assert np.max(np.abs(plan.pauli_sum(coeffs) - reference_pauli_sum(plan, coeffs))) <= 1e-12 * d


def test_expectations_accept_any_layout():
    rng = np.random.default_rng(12)
    plan = MeasurementPlan(tuple(sample_paulis(3, 30, rng=rng)))
    dense = [kron_pauli(p) for p in plan.paulis]
    x = random_hermitian(8, rng)
    sym = x.real + x.real.T
    inputs = {
        "real dtype": sym,
        "real non-symmetric": rng.standard_normal((8, 8)),
        "non-Hermitian": x + 1j * sym,
        "non-Hermitian Fortran order": np.asfortranarray(x + 1j * sym),
        "Fortran order": np.asfortranarray(x),
        "transposed view": x.T,
        "DensityMatrix": DensityMatrix(x),
    }
    assert not inputs["transposed view"].flags.c_contiguous
    for label, mat in inputs.items():
        values = np.asarray(getattr(mat, "mat", mat))
        # Re Tr(P_i X), whatever the input's symmetry
        expected = np.array([np.trace(p @ values).real for p in dense])
        assert np.max(np.abs(plan.expectations(mat) - expected)) <= 1e-12, label
    with pytest.raises(ValueError, match="dimension"):
        plan.expectations(np.eye(4))


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
