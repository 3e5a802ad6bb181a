import numpy as np
import pytest

from cstomo.measurement import EXACT, MeasurementPlan, simulate_measurements
from cstomo.pauli import SINGLE_QUBIT_MATRICES, PauliString, all_paulis, pauli_matrix, sample_paulis
from cstomo.process import (
    QuantumChannel,
    ZeroEstimateError,
    channel_from_jamiolkowski,
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
from cstomo.states import haar_random_unitary


def identity_channel(n):
    return unitary_channel(np.eye(1 << n))


# eigenvectors (columns) and eigenvalues of conj(sigma) for each single-qubit
# code, the inputs an ancilla-free experiment prepares
_SQRT2 = 1.0 / np.sqrt(2.0)
_CONJ_EIGENBASES = (
    (np.eye(2, dtype=complex), np.array([1.0, 1.0])),                                 # I
    (np.array([[_SQRT2, _SQRT2], [_SQRT2, -_SQRT2]], dtype=complex),                  # X
     np.array([1.0, -1.0])),
    (np.array([[_SQRT2, _SQRT2], [1j * _SQRT2, -1j * _SQRT2]]),                       # conj(Y) = -Y
     np.array([-1.0, 1.0])),
    (np.eye(2, dtype=complex), np.array([1.0, -1.0])),                                # Z
)


def conj_pauli_eigenbasis(p):
    """Columns phi_j and eigenvalues lambda_j with conj(P) phi_j = lambda_j phi_j."""
    vecs = np.array([[1.0]], dtype=complex)
    vals = np.array([1.0])
    for c in p.codes:
        basis, ev = _CONJ_EIGENBASES[c]
        vecs = np.kron(vecs, basis)
        vals = np.kron(vals, ev)
    return vecs, vals


def protocol_plus_probabilities(channel, p):
    """Pr(lambda_j * outcome = +1 | input phi_j) for each eigenvector phi_j of conj(P_B).

    The protocol step by step: send phi_j through the channel, measure P_A
    (Heisenberg picture: <phi_j| sum_K K^dag P_A K |phi_j>), reweight by lambda_j.
    """
    p_a, p_b = split_pauli(p)
    vecs, vals = conj_pauli_eigenbasis(p_b)
    heisenberg = sum(k.conj().T @ pauli_matrix(p_a) @ k for k in channel.kraus_operators)
    q = np.sum(vecs.conj() * (heisenberg @ vecs), axis=0).real
    return (1.0 + vals * q) / 2.0


def test_channel_validation():
    with pytest.raises(ValueError):
        QuantumChannel((), 1)
    with pytest.raises(ValueError):
        QuantumChannel((np.eye(4),), 1)
    ch = identity_channel(2)
    assert ch.is_trace_preserving and ch.kraus_rank == 1


def test_jamiolkowski_identity_is_bell_projector():
    rho = jamiolkowski_state(identity_channel(1))
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    assert np.allclose(rho.mat, np.outer(bell, bell.conj()), atol=1e-12)
    assert rho.numerical_rank() == 1


def test_jamiolkowski_fully_depolarizing_is_maximally_mixed():
    rho = jamiolkowski_state(local_depolarizing_channel(1, 1.0))
    assert np.allclose(rho.mat, np.eye(4) / 4, atol=1e-12)


def test_jamiolkowski_rank_equals_kraus_rank():
    rng = np.random.default_rng(0)
    for r in (1, 2, 3, 4):
        ch = random_channel(1, r, rng)
        assert ch.kraus_rank == r
        rho = jamiolkowski_state(ch)
        assert np.sum(rho.eigenvalues > 1e-9) == r
        assert rho.trace == pytest.approx(1.0, abs=1e-10)


def test_encoding_identity_two_sided():
    """Tr((P_A x P_B) rho_E) computed on the dense encoded state must match the
    ancilla-free expression over every Pauli pair, random channels at n <= 2."""
    for n in (1, 2):
        rng = np.random.default_rng(n)
        for _ in range(3):
            ch = random_channel(n, int(rng.integers(1, 5)), rng)
            rho_e = jamiolkowski_state(ch)
            for p in all_paulis(2 * n):
                p_a, p_b = split_pauli(p)
                lhs = float(np.trace(pauli_matrix(p) @ rho_e.mat).real)
                rhs = channel_pauli_expectation(ch, p_a, p_b)
                assert abs(lhs - rhs) < 1e-10


def test_identity_channel_pauli_orthogonality():
    ch = identity_channel(1)
    z = PauliString.from_label("Z")
    x = PauliString.from_label("X")
    y = PauliString.from_label("Y")
    assert channel_pauli_expectation(ch, z, z) == pytest.approx(1.0)
    assert channel_pauli_expectation(ch, x, z) == pytest.approx(0.0)
    # conjugation flips the sign of the Y-Y pair
    assert channel_pauli_expectation(ch, y, y) == pytest.approx(-1.0)


def kron_depolarizing_kraus(n, gamma):
    """The Kraus operators as a loop of Kronecker products, qubit 0 most significant."""
    identity, *xyz = SINGLE_QUBIT_MATRICES
    single = [np.sqrt(1.0 - 0.75 * gamma) * identity] + [0.5 * np.sqrt(gamma) * p for p in xyz]
    ops = [np.array([[1.0]], dtype=complex)]
    for _ in range(n):
        ops = [np.kron(a, b) for a in ops for b in single]
    return ops


@pytest.mark.parametrize("n", [1, 2, 3])
def test_depolarizing_kraus_match_the_kron_loop(n):
    for gamma in (0.0, 0.01, 0.5, 1.0):
        ops = local_depolarizing_channel(n, gamma).kraus_operators
        expected = kron_depolarizing_kraus(n, gamma)
        assert len(ops) == len(expected) == 4**n
        assert all(np.array_equal(a, b) for a, b in zip(ops, expected))


def test_depolarizing_kills_nonidentity_rows():
    ch = local_depolarizing_channel(2, 1.0)
    p = PauliString.from_label("XZ")
    for pb in all_paulis(2):
        assert channel_pauli_expectation(ch, p, pb) == pytest.approx(0.0, abs=1e-12)


def test_conj_eigenbasis():
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = PauliString.from_index(2, int(rng.integers(0, 16)))
        vecs, vals = conj_pauli_eigenbasis(p)
        target = pauli_matrix(p).conj()
        assert np.allclose(target @ vecs, vecs * vals, atol=1e-12)
        assert np.allclose(vecs.conj().T @ vecs, np.eye(p.d), atol=1e-12)


def test_split_join_round_trip():
    p = PauliString.from_label("XZYI")
    a, b = split_pauli(p)
    assert a.label == "XZ" and b.label == "YI"
    with pytest.raises(ValueError):
        split_pauli(PauliString.from_label("XYZ"))


def test_ancilla_free_exact_equals_direct_state_measurement():
    rng = np.random.default_rng(2)
    ch = random_channel(2, 3, rng)
    plan = MeasurementPlan(tuple(all_paulis(4)))
    free = simulate_process_measurements(ch, plan, EXACT)
    direct = simulate_measurements(plan, jamiolkowski_state(ch), EXACT)
    assert np.allclose(free.y, direct.y, atol=1e-10)
    # the record also matches the ancilla-free expression, word by word
    for p, value in zip(plan.paulis, free.y / free.normalization):
        assert abs(value - channel_pauli_expectation(ch, *split_pauli(p))) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_form_matches_per_input_protocol(n):
    """The sampler's Pr(+1) = (1 + Tr((P_A x P_B) rho_E)) / 2 is the mean of the
    protocol's per-input probabilities, on complete and sampled plans."""
    rng = np.random.default_rng(40 + n)
    ch = random_channel(n, 2, rng)
    rho_e = jamiolkowski_state(ch)
    for plan in (MeasurementPlan(tuple(all_paulis(2 * n))),
                 MeasurementPlan(tuple(sample_paulis(2 * n, 30, rng=rng)))):
        protocol = np.array([protocol_plus_probabilities(ch, p).mean() for p in plan.paulis])
        assert np.max(np.abs(protocol - (1.0 + plan.expectations(rho_e)) / 2.0)) <= 1e-12
        record = simulate_process_measurements(ch, plan, EXACT)
        assert np.max(np.abs(protocol - record.plus_frequencies())) <= 1e-12


def test_sampled_data_need_a_generator():
    plan = MeasurementPlan(tuple(all_paulis(2)))
    with pytest.raises(ValueError, match="random generator"):
        simulate_process_measurements(identity_channel(1), plan, 1000)
    with pytest.raises(ValueError, match="random generator"):
        simulate_measurements(plan, jamiolkowski_state(identity_channel(1)), 1000)


def test_simulated_sample_mean_identity_channel():
    rng = np.random.default_rng(3)
    ch = identity_channel(2)
    zz = PauliString.from_label("ZZZZ")  # P_A = P_B = ZZ
    plan = MeasurementPlan((zz,))
    rec = simulate_process_measurements(ch, plan, 2000, rng)
    # the expectation is exactly +1, so every reweighted outcome reads +1
    assert rec.plus_counts[0] == 2000


def test_round_trip_identity_channel_exact():
    plan = MeasurementPlan(tuple(all_paulis(2)))
    rec = simulate_process_measurements(identity_channel(1), plan, EXACT)
    est, diag = reconstruct_channel(rec, plan, "lasso", 1e-6)
    for k in range(2):
        basis = np.zeros((2, 2), dtype=complex)
        basis[k, k] = 1.0
        assert np.allclose(est.apply(basis), basis, atol=1e-6)
    assert diag["tp_deviation"] < 1e-6


def test_round_trip_noisy_unitary():
    rng = np.random.default_rng(4)
    u = haar_random_unitary(4, rng)
    ch = compose(local_depolarizing_channel(2, 0.01), unitary_channel(u))
    plan = MeasurementPlan(tuple(all_paulis(4)))
    rec = simulate_process_measurements(ch, plan, 10**6, rng)
    mu = 4 * plan.d / np.sqrt(10**6)
    est, diag = reconstruct_channel(rec, plan, "lasso", mu)
    assert jamiolkowski_fidelity(ch, est) >= 0.9
    assert diag["tp_deviation"] < 0.5


def test_zero_data_record_is_degenerate():
    from cstomo.measurement import MeasurementRecord
    plan = MeasurementPlan(tuple(all_paulis(2)))
    zeros = np.zeros(plan.m)
    rec = MeasurementRecord(zeros, np.zeros(plan.m, dtype=np.int64),
                            np.zeros(plan.m, dtype=np.int64),
                            plan.normalization, exact=True)
    with pytest.raises(ZeroEstimateError, match="zero matrix"):
        reconstruct_channel(rec, plan, "dantzig", 1e-3)


def test_reconstruct_requires_regularization():
    plan = MeasurementPlan(tuple(all_paulis(2)))
    rec = simulate_process_measurements(identity_channel(1), plan, EXACT)
    with pytest.raises(ValueError, match="regularization"):
        reconstruct_channel(rec, plan, "lasso")
    with pytest.raises(ValueError, match="unknown solver"):
        reconstruct_channel(rec, plan, "sdp", 1.0)


def test_channel_from_jamiolkowski_round_trip():
    rng = np.random.default_rng(6)
    ch = random_channel(2, 2, rng)
    back = channel_from_jamiolkowski(jamiolkowski_state(ch))
    rho = np.outer(*2 * (np.array([1, 0, 0, 0], dtype=complex),))
    assert np.allclose(back.apply(rho), ch.apply(rho), atol=1e-9)
