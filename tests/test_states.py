import re

import numpy as np
import pytest

from cstomo.states import (
    DensityMatrix,
    depolarize_local,
    fidelity,
    haar_random_orthogonal,
    haar_random_pure,
    haar_random_unitary,
    maximally_mixed,
    project_simplex,
    pure_state,
    random_rank_r_projection,
    renormalized,
    trace_distance,
    truncate_rank,
)


def test_construction_rejects_non_hermitian():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(3))  # not a power of two
    for bad in (np.array(1.0), np.ones(4), np.ones((2, 4)), np.ones((2, 2, 2))):
        with pytest.raises(ValueError, match=re.escape(f"got {bad.shape}")):
            DensityMatrix(bad)


def test_basic_properties():
    rho = maximally_mixed(2)
    assert rho.d == 4 and rho.n == 2
    assert rho.trace == pytest.approx(1.0)
    assert rho.purity() == pytest.approx(0.25)
    assert rho.numerical_rank() == 4
    assert pure_state(np.eye(4)[3]).numerical_rank() == 1


def test_fidelity_pure_states():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    # for pure states the fidelity is the squared overlap
    assert fidelity(pure_state(a), pure_state(b)) == pytest.approx(
        abs(np.vdot(a, b)) ** 2, abs=1e-10)
    assert fidelity(pure_state(a), pure_state(a)) == pytest.approx(1.0, abs=1e-10)


def test_trace_distance_known_values():
    zero, one = pure_state(np.eye(2)[0]), pure_state(np.eye(2)[1])
    assert trace_distance(zero, one) == pytest.approx(1.0)
    assert trace_distance(zero, maximally_mixed(1)) == pytest.approx(0.5)
    rho = haar_random_pure(2, np.random.default_rng(3))
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_rejects_non_psd():
    bad = DensityMatrix(np.diag([1.5, -0.5, 0, 0]).astype(complex))
    with pytest.raises(ValueError, match="positive semidefinite"):
        fidelity(bad, maximally_mixed(2))


def test_fidelity_rejects_trace_above_one():
    rho = haar_random_pure(2, np.random.default_rng(9))
    sigma = maximally_mixed(2)
    over = DensityMatrix(1.2 * rho.mat)
    with pytest.raises(ValueError, match="trace"):
        fidelity(over, sigma)
    with pytest.raises(ValueError, match="trace"):
        fidelity(sigma, over)
    # subnormalized estimates stay allowed and score below the normalized state
    assert fidelity(DensityMatrix(0.5 * rho.mat), rho) == pytest.approx(0.5, abs=1e-10)


def depolarize_kraus_oracle(rho, gamma):
    """Independent route: explicit per-qubit Kraus sums with dense kron."""
    paulis = [np.eye(2, dtype=complex),
              np.array([[0, 1], [1, 0]], dtype=complex),
              np.array([[0, -1j], [1j, 0]], dtype=complex),
              np.array([[1, 0], [0, -1]], dtype=complex)]
    coeff = [np.sqrt(1 - 0.75 * gamma)] + [0.5 * np.sqrt(gamma)] * 3
    mat = np.array(rho.mat)
    n = rho.n
    for q in range(n):
        ops = []
        for c, p in zip(coeff, paulis):
            full = np.array([[1.0]], dtype=complex)
            for j in range(n):
                full = np.kron(full, p if j == q else np.eye(2))
            ops.append(c * full)
        mat = sum(k @ mat @ k.conj().T for k in ops)
    return mat


def test_local_depolarizing_matches_kraus_oracle():
    rng = np.random.default_rng(7)
    rho = haar_random_pure(2, rng)
    for gamma in (0.0, 0.01, 0.3, 1.0):
        fast = depolarize_local(rho, gamma)
        assert np.allclose(fast.mat, depolarize_kraus_oracle(rho, gamma), atol=1e-12)
        assert fast.trace == pytest.approx(1.0)
    assert np.allclose(depolarize_local(rho, 1.0).mat, np.eye(4) / 4, atol=1e-12)
    with pytest.raises(ValueError):
        depolarize_local(rho, 1.5)


def test_haar_unitary_and_orthogonal():
    rng = np.random.default_rng(11)
    u = haar_random_unitary(8, rng)
    assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-10)
    q = haar_random_orthogonal(8, rng)
    assert np.allclose(q @ q.T, np.eye(8), atol=1e-10)
    assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-9)


def test_random_rank_r_projection_spectrum():
    rng = np.random.default_rng(2)
    for group in ("special_orthogonal", "unitary"):
        rho = random_rank_r_projection(3, 2, rng, group=group)
        w = np.sort(np.linalg.eigvalsh(rho.mat))[::-1]
        assert np.allclose(w[:2], 0.5, atol=1e-9)
        assert np.allclose(w[2:], 0.0, atol=1e-9)
    with pytest.raises(ValueError):
        random_rank_r_projection(3, 2, rng, group="symplectic")


def test_truncate_rank():
    rho = DensityMatrix(np.diag([0.5, 0.3, 0.15, 0.05]).astype(complex))
    kept, residual = truncate_rank(rho, 2)
    assert kept.numerical_rank() == 2
    assert kept.trace == pytest.approx(0.8)
    assert residual == pytest.approx(0.2)


def test_renormalized():
    rho = DensityMatrix(np.diag([0.25, 0.25, 0, 0]).astype(complex))
    assert renormalized(rho).trace == pytest.approx(1.0)
    with pytest.raises(ValueError):
        renormalized(DensityMatrix(np.zeros((2, 2))))


def test_fidelity_clamped_to_one_on_rounding():
    """A two-qubit pure state against itself, whose fidelity squares a trace
    rounded just above 1."""
    from cstomo.states import _clamped_sqrt, eig_apply, eig_reduce

    rho = haar_random_pure(2, np.random.default_rng(3))
    root = eig_apply(rho.mat, _clamped_sqrt)
    assert eig_reduce(root @ rho.mat @ root, _clamped_sqrt) ** 2 > 1.0
    assert fidelity(rho, rho) == 1.0


def test_project_simplex_is_the_euclidean_projection():
    rng = np.random.default_rng(12)
    assert np.allclose(project_simplex(np.array([2.0, 0.0])), [1.0, 0.0])
    on_simplex = np.array([0.5, 0.3, 0.2, 0.0])
    assert np.allclose(project_simplex(on_simplex), on_simplex)
    for scale in (0.1, 1.0, 10.0):
        w = scale * rng.standard_normal(16)
        x = project_simplex(w)
        assert np.all(x >= 0) and x.sum() == pytest.approx(1.0, abs=1e-12)
        # optimality: w - x is one constant tau on the support and at most tau off it
        shift = w - x
        tau = shift[x > 0]
        assert np.ptp(tau) <= 1e-12 and np.all(w[x == 0] <= tau[0] + 1e-12)
