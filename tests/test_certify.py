import tracemalloc

import numpy as np
import pytest

import cstomo.certify
from cstomo.certify import (
    BUDGET_LIMIT,
    StateOracle,
    certify_fidelity,
    dfe_budget,
    dfe_distribution,
    dfe_matrix_element,
    element_error_budget,
    perturbation_shift,
    trace_sqrt,
    worst_case_shift,
)
from cstomo.measurement import MeasurementPlan
from cstomo.pauli import PauliString, pauli_expectation, pauli_matrix
from cstomo.states import (
    DensityMatrix,
    fidelity,
    haar_random_pure,
    pure_state,
    random_rank_r_projection,
    truncate_rank,
)


def random_state_vec(d, rng):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def test_distribution_basis_state():
    phi = np.array([1.0, 0.0], dtype=complex)
    probs = dfe_distribution(phi, phi)
    # uniform over {I, Z}, nothing on {X, Y}
    assert np.allclose(probs, [0.5, 0.0, 0.0, 0.5], atol=1e-12)


def test_distribution_orthogonal_vectors_skip_identity():
    rng = np.random.default_rng(0)
    a = random_state_vec(4, rng)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b -= np.vdot(a, b) * a
    b /= np.linalg.norm(b)
    probs = dfe_distribution(a, b)
    assert probs[0] == pytest.approx(0.0, abs=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_distribution_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        dfe_distribution(np.array([1.0, 1.0]), np.array([1.0, 0.0]))


def test_distribution_rejects_non_power_of_two_length():
    phi = np.ones(3) / np.sqrt(3)
    with pytest.raises(ValueError, match="length 3 is not a power of two"):
        dfe_distribution(phi, phi)


def test_distribution_memory_is_quadratic():
    """All d^2 overlaps in O(d^2) memory: no d^3 table of every word's row."""
    d = 1 << 7
    rng = np.random.default_rng(9)
    phi_j, phi_k = random_state_vec(d, rng), random_state_vec(d, rng)
    dfe_distribution(phi_j, phi_k)  # warm-up: the per-n transform layout is cached
    tracemalloc.start()
    try:
        dfe_distribution(phi_j, phi_k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * d * d * np.dtype(complex).itemsize


def test_estimator_unbiased_and_bounded_variance():
    """Exhaustive enumeration over all Paulis at d in {2, 4}: E(X) equals the
    matrix element and Var(X) <= 1, no sampling involved."""
    for n in (1, 2):
        d = 1 << n
        rng = np.random.default_rng(n)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        phi_j = random_state_vec(d, rng)
        phi_k = random_state_vec(d, rng)
        probs = dfe_distribution(phi_j, phi_k)
        mean = 0.0 + 0.0j
        second = 0.0
        for i in range(d * d):
            if probs[i] == 0:
                continue
            p = pauli_matrix(PauliString.from_index(n, i))
            w = np.vdot(phi_k, p @ phi_j)
            x = np.trace(p @ rho) / w
            mean += probs[i] * x
            second += probs[i] * abs(x) ** 2
        target = np.vdot(phi_j, rho @ phi_k)
        assert abs(mean - target) < 1e-12
        assert second - abs(mean) ** 2 <= 1.0 + 1e-12


def test_matrix_element_exact_mode():
    rng = np.random.default_rng(3)
    rho = random_rank_r_projection(2, 2, rng, group="unitary")
    phi_j = random_state_vec(4, rng)
    phi_k = random_state_vec(4, rng)
    est = dfe_matrix_element(StateOracle(rho, exact=True), phi_j, phi_k,
                             0.01, 0.1, rng)
    assert abs(est.value - np.vdot(phi_j, rho.mat @ phi_k)) < 1e-12
    assert est.copies_used == 0


def test_matrix_element_sampled_diagonal():
    rng = np.random.default_rng(4)
    phi = random_state_vec(4, rng)
    rho = pure_state(phi)
    est = dfe_matrix_element(StateOracle(rho), phi, phi, 0.05, 0.2, rng)
    assert abs(est.value - 1.0) < 0.05
    assert est.copies_used > 0


def reference_dfe_matrix_element(rho, exact, phi_j, phi_k, eps0, delta_jk, rng):
    """Word by word: one expectation, or one binomial draw, per support word.

    Returns (value, copies); the samples are split over the support by a
    chain of conditional binomials.
    """
    n = phi_j.size.bit_length() - 1
    probs = dfe_distribution(phi_j, phi_k)
    support = np.flatnonzero(probs > 0)
    weights = [np.vdot(phi_k, pauli_matrix(PauliString.from_index(n, int(i))) @ phi_j)
               for i in support]
    if exact:
        total = 0.0 + 0.0j
        for i, w in zip(support, weights):
            total += probs[i] * pauli_expectation(PauliString.from_index(n, int(i)), rho) / w
        return complex(total), 0

    num_samples = dfe_budget(eps0, delta_jk)
    counts = np.zeros(support.size, dtype=np.int64)
    remaining = num_samples
    tail_prob = 1.0
    for idx in range(support.size - 1):
        p = probs[support[idx]] / tail_prob
        counts[idx] = rng.binomial(remaining, min(p, 1.0))
        remaining -= counts[idx]
        tail_prob -= probs[support[idx]]
        if remaining == 0:
            break
    counts[-1] += remaining

    shot_factor = 2.0 * np.log(2.0 / delta_jk) / (num_samples * (eps0 / 2.0) ** 2)
    total = 0.0 + 0.0j
    copies = 0
    for idx, (i, w) in enumerate(zip(support, weights)):
        c = int(counts[idx])
        if c == 0:
            continue
        shots = c * int(np.ceil(shot_factor / abs(w) ** 2))
        if shots >= BUDGET_LIMIT:
            raise OverflowError("per-index shot budget exceeds integer precision")
        value = pauli_expectation(PauliString.from_index(n, int(i)), rho)
        plus = int(rng.binomial(shots, np.clip((1.0 + value) / 2.0, 0.0, 1.0)))
        total += c * (2.0 * plus / shots - 1.0) / w
        copies += shots
    return complex(total / num_samples), copies


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("exact", [True, False])
def test_matrix_element_matches_word_by_word_reference(n, exact):
    """The one-plan estimator draws the same samples and shots as the per-word
    loop from the same seed, and agrees with it on the value."""
    d = 1 << n
    rng = np.random.default_rng(50 + n)
    rho = random_rank_r_projection(n, 2, rng, group="unitary")
    phi_j, phi_k = random_state_vec(d, rng), random_state_vec(d, rng)
    for a, b in ((phi_j, phi_k), (phi_j, phi_j)):
        for seed in (1, 2):
            est = dfe_matrix_element(StateOracle(rho, exact=exact), a, b, 0.05, 0.1,
                                     np.random.default_rng(seed))
            value, copies = reference_dfe_matrix_element(rho, exact, a, b, 0.05, 0.1,
                                                         np.random.default_rng(seed))
            assert est.copies_used == copies
            assert abs(est.value - value) <= 1e-12
            assert (copies > 0) != exact


class AllOnRarestWord:
    """A generator stub that puts every importance sample on the least likely word."""

    def multinomial(self, n, pvals):
        counts = np.zeros(len(pvals), dtype=np.int64)
        counts[np.argmin(pvals)] = n
        return counts


def test_matrix_element_shot_budget_overflow_raises():
    theta = 5e-16  # <phi|X|phi> = sin(2 theta) = 1e-15 for a real phi
    phi = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
    probs = dfe_distribution(phi, phi)
    assert 2 * probs[1] == pytest.approx(1e-30, rel=1e-6)  # |w|^2 = d Pr(X)
    with pytest.raises(OverflowError, match="shot budget"):
        dfe_matrix_element(StateOracle(pure_state(phi)), phi, phi, 0.1, 0.1, AllOnRarestWord())


def test_budget_formulas():
    assert dfe_budget(0.1, 0.5) == int(np.ceil(8 / (0.5 * 0.01)))
    with pytest.raises(OverflowError):
        dfe_budget(1e-12, 1e-12)
    with pytest.raises(ValueError):
        dfe_budget(-1.0, 0.5)
    eps0 = element_error_budget(0.05, 2)
    assert 2 * 2**0.75 * np.sqrt(2 * eps0) == pytest.approx(0.05)


def test_positive_part_and_trace_sqrt():
    g = np.diag([4.0, -1.0])
    assert trace_sqrt(g) == pytest.approx(2.0)


def test_perturbation_shift_closed_form():
    for r in (2, 4, 8):
        for eps0 in (0.01, 0.1):
            g = np.eye(r) / r**2
            e = eps0 * np.eye(r) / r
            assert perturbation_shift(g, e) == pytest.approx(
                worst_case_shift(r, eps0), abs=1e-12)


def test_error_bound_chain():
    # |F - F_hat| <= 2 r^(3/4) sqrt(2 eps0) whenever each element moved by <= eps0
    rng = np.random.default_rng(5)
    for _ in range(20):
        r = int(rng.integers(2, 9))
        eps0 = float(rng.uniform(0.001, 0.1))
        g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        g = g @ g.conj().T
        g /= np.trace(g).real * r  # keep Tr sqrt(G) on a unit-ish scale
        e = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        e = (e + e.conj().T) / 2
        e *= eps0 / np.linalg.norm(e)
        f = trace_sqrt(g) ** 2
        f_hat = trace_sqrt(g + e) ** 2
        assert abs(f - f_hat) <= 2 * r**0.75 * np.sqrt(2 * eps0) + 1e-12


def test_certify_pure_state_exact():
    rng = np.random.default_rng(6)
    rho = haar_random_pure(3, rng)
    est = certify_fidelity(StateOracle(rho, exact=True), rho, 0.05, 0.1, rng)
    assert est.value == pytest.approx(1.0, abs=1e-9)
    assert est.copies_used == 0


def test_certify_tracks_true_fidelity():
    rng = np.random.default_rng(7)
    truth = random_rank_r_projection(3, 2, rng, group="unitary")
    pert = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    pert = 0.03 * (pert + pert.conj().T) / np.linalg.norm(pert + pert.conj().T)
    noisy = DensityMatrix(truth.mat + pert)
    rho_hat, _ = truncate_rank(noisy, 2)
    rho_hat = DensityMatrix(rho_hat.mat / np.trace(rho_hat.mat).real)
    f = fidelity(rho_hat, truth)
    est = certify_fidelity(StateOracle(truth), rho_hat, 0.05, 0.1, rng)
    assert abs(est.value - f) <= 0.05
    assert 0.0 <= est.value <= 1.0


@pytest.mark.parametrize("exact", [True, False])
def test_certify_transforms_state_once_and_builds_no_plan(monkeypatch, exact):
    plans = []
    hold = MeasurementPlan._hold

    def counting_hold(self, n, indices):
        plans.append(self)
        hold(self, n, indices)

    transformed = []
    traces = cstomo.certify.pauli_traces

    def counting_traces(mat):
        transformed.append(mat)
        return traces(mat)

    monkeypatch.setattr(MeasurementPlan, "_hold", counting_hold)
    monkeypatch.setattr(cstomo.certify, "pauli_traces", counting_traces)
    rng = np.random.default_rng(11)
    rho = random_rank_r_projection(3, 2, rng, group="unitary")
    est = certify_fidelity(StateOracle(rho, exact=exact), rho, 0.05, 0.1, rng)
    assert est.value == pytest.approx(1.0, abs=0.05)
    assert plans == []
    # one transform of rho, one per matrix element for its overlaps (r = 2: three)
    assert sum(mat is rho.mat for mat in transformed) == 1
    assert len(transformed) == 1 + 3


def test_matrix_element_rejects_dimension_mismatch():
    rng = np.random.default_rng(12)
    phi = random_state_vec(4, rng)
    with pytest.raises(ValueError, match="dimension mismatch"):
        dfe_matrix_element(StateOracle(haar_random_pure(3, rng), exact=True), phi, phi,
                           0.05, 0.1, rng)


def test_certify_input_validation():
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError, match="rank zero"):
        certify_fidelity(StateOracle(haar_random_pure(1, rng), exact=True),
                         DensityMatrix(np.zeros((2, 2))), 0.1, 0.1, rng)
    bad = DensityMatrix(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError):
        certify_fidelity(StateOracle(haar_random_pure(1, rng)), bad, 0.1, 0.1, rng)
