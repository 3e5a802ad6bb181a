import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cstomo.pauli import (
    SINGLE_QUBIT_MATRICES,
    PauliString,
    all_paulis,
    pauli_action,
    pauli_expectation,
    pauli_grid,
    pauli_grid_adjoint,
    pauli_matrix,
    pauli_traces,
    paulis_from_indices,
    sample_indices,
    sample_paulis,
)
from cstomo.measurement import MeasurementPlan


def kron_oracle(p):
    """Dense matrix by straight Kronecker products -- the independent route."""
    mat = np.array([[1.0]], dtype=complex)
    for c in p.codes:
        mat = np.kron(mat, SINGLE_QUBIT_MATRICES[c])
    return mat


def test_label_index_round_trip():
    p = PauliString.from_label("XZ")
    assert p.index == 7
    assert PauliString.from_index(2, 7).label == "XZ"
    for i in range(64):
        p = PauliString.from_index(3, i)
        assert PauliString.from_label(p.label).index == i


def test_identity_is_index_zero():
    p = PauliString.from_index(3, 0)
    assert p.is_identity and p.label == "III"
    assert not PauliString.from_label("IZI").is_identity


def test_invalid_inputs():
    with pytest.raises(ValueError):
        PauliString.from_label("XQ")
    with pytest.raises(ValueError):
        PauliString.from_index(2, 16)
    with pytest.raises(ValueError):
        PauliString(2, (0, 5))


@given(st.integers(1, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_action_matches_kron(n, data):
    i = data.draw(st.integers(0, 4**n - 1))
    p = PauliString.from_index(n, i)
    assert np.allclose(pauli_matrix(p), kron_oracle(p), atol=1e-12)


def test_pauli_matrix_algebra():
    rng = np.random.default_rng(0)
    for i in rng.integers(0, 256, size=10):
        p = PauliString.from_index(4, int(i))
        mat = pauli_matrix(p)
        assert np.allclose(mat @ mat, np.eye(p.d), atol=1e-12)
        assert np.allclose(mat, mat.conj().T, atol=1e-12)
        # permutation is an involution
        perm, _ = pauli_action(p)
        assert np.array_equal(perm[perm], np.arange(p.d))


def test_expectation_matches_dense_trace():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    x = (x + x.conj().T) / 2
    for i in range(64):
        p = PauliString.from_index(3, i)
        assert pauli_expectation(p, x) == pytest.approx(
            np.trace(pauli_matrix(p) @ x).real, abs=1e-10)


def test_expectation_rejects_non_hermitian():
    x = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValueError, match="not Hermitian"):
        pauli_expectation(PauliString.from_label("Y"), x)


def test_sampling_determinism_and_replacement():
    a = sample_paulis(3, 30, rng=np.random.default_rng(5))
    b = sample_paulis(3, 30, rng=np.random.default_rng(5))
    assert [p.index for p in a] == [p.index for p in b]
    distinct = sample_paulis(2, 16, with_replacement=False, rng=np.random.default_rng(5))
    assert len({p.index for p in distinct}) == 16
    with pytest.raises(ValueError):
        sample_paulis(2, 17, with_replacement=False, rng=np.random.default_rng(5))


def test_all_paulis_ordering():
    ps = all_paulis(2)
    assert len(ps) == 16
    assert [p.index for p in ps] == list(range(16))
    assert ps[0].is_identity


def assert_same_word(word, n, index):
    one = PauliString.from_index(n, index)
    assert type(word) is PauliString
    assert (word.n, word.codes, word.index, word.label) == (one.n, one.codes, one.index, one.label)
    assert all(type(c) is int for c in word.codes)
    assert word == one and hash(word) == hash(one)


def test_bulk_decoding_matches_the_per_word_constructor():
    for n in (1, 2, 3, 4):
        words = paulis_from_indices(n, np.arange(4**n))
        assert len(words) == 4**n
        for index, word in enumerate(words):
            assert_same_word(word, n, index)
    indices = sample_indices(8, 8192, rng=np.random.default_rng(8))
    for index, word in zip(indices.tolist(), paulis_from_indices(8, indices)):
        assert_same_word(word, 8, index)


def test_draws_are_pinned():
    """The generator calls behind a draw: every seeded output depends on them."""
    drawn = [42, 51, 1, 51, 30, 32, 40, 18, 62, 3, 17, 24, 36, 26, 8,
             2, 0, 3, 9, 63, 12, 41, 48, 15, 18, 27, 16, 62, 11, 57]
    assert sample_indices(3, 30, rng=np.random.default_rng(5)).tolist() == drawn
    assert [p.index for p in sample_paulis(3, 30, rng=np.random.default_rng(5))] == drawn
    distinct = [5, 4, 13, 3, 8, 10, 7, 12, 9, 6, 2, 11, 1, 14, 15, 0]
    rng = np.random.default_rng(5)
    assert sample_indices(2, 16, with_replacement=False, rng=rng).tolist() == distinct
    rng = np.random.default_rng(5)
    words = sample_paulis(2, 16, with_replacement=False, rng=rng)
    assert [p.index for p in words] == distinct


@pytest.mark.parametrize("n, indices, message", [
    (0, [0], "need at least one qubit"),
    (2, [3, 16], "index 16 out of range for 2 qubits"),
    (2, [-1, 3], "index -1 out of range for 2 qubits"),
    (2, [[0, 1]], "1-D"),
    (2, [1.5], "index 1.5 is not an integer"),
])
def test_bulk_decoding_rejects_bad_input(n, indices, message):
    with pytest.raises(ValueError, match=message):
        paulis_from_indices(n, indices)
    with pytest.raises(ValueError, match=message):
        MeasurementPlan.from_indices(n, indices)


def test_action_matrix_rebuild():
    p = PauliString.from_label("YZX")
    permutation, phases = pauli_action(p)
    mat = np.zeros((p.d, p.d), dtype=complex)
    mat[np.arange(p.d), permutation] = phases
    assert np.allclose(mat, kron_oracle(p))


def random_complex(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_traces_match_kron(n):
    """Hermitian, non-Hermitian (phi_k phi_j^dagger) and real inputs, phases included."""
    d = 1 << n
    rng = np.random.default_rng(10 + n)
    g = random_complex((d, d), rng)
    inputs = (g + g.conj().T,
              np.outer(random_complex(d, rng), random_complex(d, rng).conj()),
              rng.standard_normal((d, d)))
    words = [kron_oracle(p) for p in all_paulis(n)]
    for mat in inputs:
        expected = np.array([np.trace(w @ mat) for w in words])
        assert np.max(np.abs(pauli_traces(mat) - expected)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_traces_match_complete_plan(n):
    d = 1 << n
    g = random_complex((d, d), np.random.default_rng(20 + n))
    mat = g + g.conj().T
    traces = pauli_traces(mat)
    assert np.max(np.abs(traces.imag)) <= 1e-12
    expected = MeasurementPlan(tuple(all_paulis(n))).expectations(mat)
    assert np.max(np.abs(traces.real - expected)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_grid_stacks_match_single_matrices(n):
    """A stack goes through the same gather and product as each of its matrices, bit for
    bit, and the adjoint inverts the grid up to the factor d."""
    d = 1 << n
    mats = random_complex((2, 3, d, d), np.random.default_rng(30 + n))
    grids = pauli_grid(mats)
    back = pauli_grid_adjoint(grids)
    assert grids.shape == back.shape == mats.shape
    for index in np.ndindex(2, 3):
        assert np.array_equal(grids[index], pauli_grid(mats[index]))
        assert np.array_equal(back[index], pauli_grid_adjoint(grids[index]))
    assert np.max(np.abs(back - d * mats)) <= 1e-12 * d
    assert np.max(np.abs(pauli_grid(back) - d * grids)) <= 1e-11 * d


@pytest.mark.parametrize("shape", [(3,), (4,), (3, 3), (2, 4), (1, 1), (2, 2, 2)])
def test_traces_reject_bad_shapes(shape):
    with pytest.raises(ValueError, match=r"power-of-two size, got shape"):
        pauli_traces(np.ones(shape))
