"""Channels, the Jamiolkowski state, and ancilla-free compressed process tomography.

A channel with Kraus rank r is encoded by the rank-r state
rho_E = (1/d) sum_K vec(K) vec(K)^dagger (row-major vec, output system first),
so channel estimation reduces to low-rank state estimation on d^2 dimensions.
The key identity is

    Tr((P_A (x) P_B) rho_E) = (1/d) Tr(P_A E(conj(P_B)))

which lets a 2n-qubit Pauli expectation of rho_E be measured without an
ancilla: prepare a random eigenvector of conj(P_B), send it through the
channel, measure P_A, and reweight by the input eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measurement import EXACT, MeasurementPlan, MeasurementRecord
from .pauli import PauliString, pauli_action, pauli_expectation, pauli_matrix
from .solvers import SolverConfig, dantzig_selector, matrix_lasso, mle, renormalize
from .states import DensityMatrix, fidelity

COMPLETENESS_TOL = 1e-9
#: eigenvalues of a reconstructed Jamiolkowski state below this are dropped
KRAUS_CUTOFF = 1e-8


@dataclass(frozen=True)
class QuantumChannel:
    """A completely positive map given by its Kraus operators on n qubits."""

    kraus_operators: tuple[np.ndarray, ...]
    n: int

    def __post_init__(self):
        d = 1 << self.n
        ops = tuple(np.array(k, dtype=complex) for k in self.kraus_operators)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        if any(k.shape != (d, d) for k in ops):
            raise ValueError(f"Kraus operators must be {d}x{d}")
        for k in ops:
            k.setflags(write=False)
        object.__setattr__(self, "kraus_operators", ops)

    @property
    def d(self) -> int:
        return 1 << self.n

    @property
    def is_trace_preserving(self) -> bool:
        return self.completeness_deviation() <= COMPLETENESS_TOL

    def completeness_deviation(self) -> float:
        """Frobenius norm of sum K^dagger K - identity."""
        total = sum(k.conj().T @ k for k in self.kraus_operators)
        return float(np.linalg.norm(total - np.eye(self.d)))

    @property
    def kraus_rank(self) -> int:
        """Number of linearly independent Kraus operators."""
        stacked = np.stack([k.reshape(-1) for k in self.kraus_operators])
        return int(np.linalg.matrix_rank(stacked, tol=1e-9))

    def apply(self, mat: np.ndarray) -> np.ndarray:
        mat = np.asarray(getattr(mat, "mat", mat))
        return sum(k @ mat @ k.conj().T for k in self.kraus_operators)


def identity_channel(n: int) -> QuantumChannel:
    return QuantumChannel((np.eye(1 << n, dtype=complex),), n)


def unitary_channel(u: np.ndarray) -> QuantumChannel:
    u = np.asarray(u, dtype=complex)
    n = u.shape[0].bit_length() - 1
    return QuantumChannel((u,), n)


def depolarizing_channel(n: int, gamma: float = 1.0) -> QuantumChannel:
    """Global depolarizing map rho -> (1-gamma) rho + gamma 1/d.

    Kraus form: sqrt(1 - gamma + gamma/d^2) on the identity and
    sqrt(gamma)/d on every non-identity Pauli.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    d = 1 << n
    ops = [np.sqrt(1.0 - gamma + gamma / d**2) * np.eye(d, dtype=complex)]
    for i in range(1, d * d):
        ops.append((np.sqrt(gamma) / d) * pauli_matrix(PauliString.from_index(n, i)))
    return QuantumChannel(tuple(ops), n)


def local_depolarizing_channel(n: int, gamma: float) -> QuantumChannel:
    """Tensor power of the single-qubit depolarizing map with strength gamma."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    single = [np.sqrt(1.0 - 0.75 * gamma) * np.eye(2, dtype=complex)]
    for label in "XYZ":
        single.append(0.5 * np.sqrt(gamma) * pauli_matrix(PauliString.from_label(label)))
    ops = [np.array([[1.0]], dtype=complex)]
    for _ in range(n):
        ops = [np.kron(a, b) for a in ops for b in single]
    return QuantumChannel(tuple(ops), n)


def compose(outer: QuantumChannel, inner: QuantumChannel) -> QuantumChannel:
    """The channel rho -> outer(inner(rho))."""
    if outer.n != inner.n:
        raise ValueError("qubit counts differ")
    ops = tuple(a @ b for a in outer.kraus_operators for b in inner.kraus_operators)
    return QuantumChannel(ops, outer.n)


def random_channel(n: int, kraus_rank: int, rng) -> QuantumChannel:
    """Random trace-preserving channel with the given Kraus rank.

    A Haar-random isometry V: C^d -> C^(rd) (orthonormal columns of a complex
    Gaussian) is cut into r stacked d x d blocks; completeness is automatic.
    """
    d = 1 << n
    if not 1 <= kraus_rank <= d * d:
        raise ValueError(f"Kraus rank {kraus_rank} out of range for d={d}")
    g = (rng.standard_normal((kraus_rank * d, d))
         + 1j * rng.standard_normal((kraus_rank * d, d))) / np.sqrt(2)
    v, _ = np.linalg.qr(g)
    ops = tuple(v[i * d:(i + 1) * d, :] for i in range(kraus_rank))
    return QuantumChannel(ops, n)


def jamiolkowski_state(channel: QuantumChannel) -> DensityMatrix:
    """The state (E (x) I)|psi_0><psi_0| with |psi_0> the maximally entangled pair.

    Equals (1/d) sum_K vec(K) vec(K)^dagger with row-major vec; its rank is
    the Kraus rank of the channel.
    """
    d = channel.d
    mat = np.zeros((d * d, d * d), dtype=complex)
    for k in channel.kraus_operators:
        vec = k.reshape(-1)
        mat += np.outer(vec, vec.conj())
    return DensityMatrix(mat / d)


def channel_from_jamiolkowski(rho_e: DensityMatrix, cutoff: float = KRAUS_CUTOFF) -> QuantumChannel:
    """Kraus operators sqrt(d lambda_i) unvec(v_i) from the eigenpairs above cutoff."""
    d2 = rho_e.d
    d = 1 << (d2.bit_length() - 1 >> 1)
    if d * d != d2:
        raise ValueError(f"dimension {d2} is not a square")
    w, v = np.linalg.eigh(rho_e.mat)
    order = np.argsort(w)[::-1]
    w, v = w[order], v[:, order]
    ops = []
    for i in range(d2):
        if w[i] <= cutoff:
            break
        ops.append(np.sqrt(d * w[i]) * v[:, i].reshape(d, d))
    if not ops:
        raise ValueError("state has no eigenvalue above the Kraus cutoff")
    return QuantumChannel(tuple(ops), d.bit_length() - 1)


def split_pauli(p: PauliString) -> tuple[PauliString, PauliString]:
    """Split a 2n-qubit word into its output-system and input-system halves."""
    if p.n % 2:
        raise ValueError("process-tomography Paulis act on an even qubit count")
    n = p.n // 2
    return PauliString(n, p.codes[:n]), PauliString(n, p.codes[n:])


def join_paulis(p_a: PauliString, p_b: PauliString) -> PauliString:
    if p_a.n != p_b.n:
        raise ValueError("qubit counts differ")
    return PauliString(p_a.n + p_b.n, p_a.codes + p_b.codes)


def channel_pauli_expectation(channel: QuantumChannel, p_a: PauliString,
                              p_b: PauliString) -> float:
    """(1/d) Tr(P_A E(conj(P_B))), the ancilla-free side of the encoding identity."""
    if p_a.n != channel.n or p_b.n != channel.n:
        raise ValueError("Pauli qubit counts must match the channel")
    return pauli_expectation(p_a, channel.apply(pauli_matrix(p_b).conj())) / channel.d


# eigenvectors (columns) and eigenvalues of conj(sigma) for each single-qubit
# code; fixed phase convention so the input-state bookkeeping is reproducible
_SQRT2 = 1.0 / np.sqrt(2.0)
_CONJ_EIGENBASES = (
    (np.eye(2, dtype=complex), np.array([1.0, 1.0])),                                 # I
    (np.array([[_SQRT2, _SQRT2], [_SQRT2, -_SQRT2]], dtype=complex),                  # X
     np.array([1.0, -1.0])),
    (np.array([[_SQRT2, _SQRT2], [1j * _SQRT2, -1j * _SQRT2]]),                       # conj(Y) = -Y
     np.array([-1.0, 1.0])),
    (np.eye(2, dtype=complex), np.array([1.0, -1.0])),                                # Z
)


def conj_pauli_eigenbasis(p: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """Columns phi_j and eigenvalues lambda_j with conj(P) phi_j = lambda_j phi_j."""
    vecs = np.array([[1.0]], dtype=complex)
    vals = np.array([1.0])
    for c in p.codes:
        basis, ev = _CONJ_EIGENBASES[c]
        vecs = np.kron(vecs, basis)
        vals = np.kron(vals, ev)
    return vecs, vals


def simulate_process_measurements(channel: QuantumChannel, plan: MeasurementPlan,
                                  t, rng=None) -> MeasurementRecord:
    """Ancilla-free shot-noise simulation of 2n-qubit Pauli data on rho_E.

    Per setting (P_A, P_B): draw an eigenvector phi_j of conj(P_B) uniformly,
    send it through the channel, measure the two-outcome P_A observable, and
    record the outcome reweighted by the input eigenvalue lambda_j.  Since
    lambda_j * outcome is itself a +-1 variable, the record keeps the same
    counts layout as direct state measurement; t = EXACT returns the
    noiseless identity values.
    """
    if plan.n != 2 * channel.n:
        raise ValueError("plan must act on twice the channel's qubit count")
    norm = plan.normalization
    if t is EXACT:
        exps = np.array([
            channel_pauli_expectation(channel, *split_pauli(p)) for p in plan.paulis
        ])
        zeros = np.zeros(plan.m, dtype=np.int64)
        return MeasurementRecord(norm * exps, zeros, zeros, norm, exact=True)
    t = int(t)
    if t < plan.m:
        raise ValueError(f"t={t} cannot allocate one shot to each of {plan.m} settings")
    shots = t // plan.m
    d = channel.d
    plus = np.zeros(plan.m, dtype=np.int64)
    for i, p in enumerate(plan.paulis):
        p_a, p_b = split_pauli(p)
        vecs, vals = conj_pauli_eigenbasis(p_b)
        # Heisenberg picture: <P_A> on output j is <phi_j| sum_K K^dag P_A K |phi_j>
        action = pauli_action(p_a)
        heisenberg = sum(k.conj().T @ (action.phases[:, None] * k[action.permutation])
                         for k in channel.kraus_operators)
        q = np.sum(vecs.conj() * (heisenberg @ vecs), axis=0).real
        # Pr(lambda_j * outcome = +1 | input j), then mix over the uniform j
        probs = np.clip((1.0 + vals * q) / 2.0, 0.0, 1.0)
        counts = rng.multinomial(shots, np.full(d, 1.0 / d))
        plus[i] = sum(rng.binomial(int(c), probs[j]) for j, c in enumerate(counts) if c)
    shots_vec = np.full(plan.m, shots, dtype=np.int64)
    y = norm * (2.0 * plus / shots - 1.0)
    return MeasurementRecord(y, shots_vec, plus, norm)


_SOLVERS = {"lasso": matrix_lasso, "dantzig": dantzig_selector, "mle": mle}


def reconstruct_channel(record: MeasurementRecord, plan: MeasurementPlan,
                        solver_choice: str = "lasso", regularization: float = None,
                        config: SolverConfig = SolverConfig()):
    """Estimate a channel from process-measurement data.

    Runs the chosen state estimator on the d^2-dimensional encoded-state data,
    renormalizes, and extracts Kraus operators from the eigendecomposition.
    Returns (channel_estimate, diagnostics); trace preservation is reported,
    not enforced.
    """
    if solver_choice not in _SOLVERS:
        raise ValueError(f"unknown solver {solver_choice!r}")
    if solver_choice == "mle":
        result = mle(plan, record, config)
    else:
        if regularization is None:
            raise ValueError("lasso/dantzig need an explicit regularization weight")
        result = _SOLVERS[solver_choice](plan, record.y, regularization, config)
        result = renormalize(result)
    channel = channel_from_jamiolkowski(result.rho_hat)
    diagnostics = {
        "tp_deviation": channel.completeness_deviation(),
        "kraus_rank": channel.kraus_rank,
        "converged": result.converged,
        "iterations": result.iterations_used,
        "rho_e_hat": result.rho_hat,
    }
    return channel, diagnostics


def jamiolkowski_fidelity(a: QuantumChannel, b: QuantumChannel) -> float:
    return fidelity(jamiolkowski_state(a), jamiolkowski_state(b))


def channel_to_dict(channel: QuantumChannel) -> dict:
    return {
        "kind": "quantum_channel",
        "n": channel.n,
        "kraus_operators": [
            [[float(z.real), float(z.imag)] for z in k.reshape(-1)]
            for k in channel.kraus_operators
        ],
    }


def channel_from_dict(data: dict) -> QuantumChannel:
    n = int(data["n"])
    d = 1 << n
    ops = tuple(
        np.array([complex(re, im) for re, im in flat]).reshape(d, d)
        for flat in data["kraus_operators"]
    )
    return QuantumChannel(ops, n)
