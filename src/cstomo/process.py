"""Channels, the Jamiolkowski state, and ancilla-free compressed process tomography.

A channel with Kraus rank r is encoded by the rank-r state
rho_E = (1/d) sum_K vec(K) vec(K)^dagger (row-major vec, output system first),
so channel estimation reduces to low-rank state estimation on d^2 dimensions.
The key identity is

    Tr((P_A (x) P_B) rho_E) = (1/d) Tr(P_A E(conj(P_B)))

which lets a 2n-qubit Pauli expectation of rho_E be measured without an
ancilla: prepare a random eigenvector of conj(P_B), send it through the
channel, measure P_A, and reweight by the input eigenvalue.  Averaged over
the uniform input, the reweighted outcome has exactly the statistics of
measuring P_A (x) P_B on rho_E, so process data are simulated in that closed
form by the state sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measurement import MeasurementPlan, MeasurementRecord, adjoint_sampling_operator, simulate_measurements
from .pauli import SINGLE_QUBIT_MATRICES, PauliString, pauli_expectation, pauli_matrix
from .solvers import SolverConfig, run_estimator
from .states import DensityMatrix, eigh_descending, fidelity

COMPLETENESS_TOL = 1e-9
#: eigenvalues of a reconstructed Jamiolkowski state below this are dropped
KRAUS_CUTOFF = 1e-8


class ZeroEstimateError(ValueError):
    """The estimate is the zero matrix, from which no channel can be extracted."""


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


def unitary_channel(u: np.ndarray) -> QuantumChannel:
    u = np.asarray(u, dtype=complex)
    n = u.shape[0].bit_length() - 1
    return QuantumChannel((u,), n)


def local_depolarizing_channel(n: int, gamma: float) -> QuantumChannel:
    """Tensor power of the single-qubit depolarizing map with strength gamma."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    identity, *xyz = SINGLE_QUBIT_MATRICES
    single = np.stack([np.sqrt(1.0 - 0.75 * gamma) * identity] + [0.5 * np.sqrt(gamma) * p for p in xyz])
    # one broadcast product per further qubit: op (a, b) is the Kronecker product of a and b
    ops = single
    for _ in range(n - 1):
        size = 2 * ops.shape[-1]
        ops = (ops[:, None, :, None, :, None] * single[None, :, None, :, None, :]).reshape(
            4 * len(ops), size, size)
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


def channel_from_jamiolkowski(rho_e: DensityMatrix) -> QuantumChannel:
    """Kraus operators sqrt(d lambda_i) unvec(v_i) from the eigenpairs above KRAUS_CUTOFF."""
    d2 = rho_e.d
    d = 1 << (d2.bit_length() - 1 >> 1)
    if d * d != d2:
        raise ValueError(f"dimension {d2} is not a square")
    w, v = eigh_descending(rho_e.mat)
    ops = [np.sqrt(d * w[i]) * v[:, i].reshape(d, d) for i in range(d2) if w[i] > KRAUS_CUTOFF]
    if not ops:
        raise ValueError("state has no eigenvalue above the Kraus cutoff")
    return QuantumChannel(tuple(ops), d.bit_length() - 1)


def split_pauli(p: PauliString) -> tuple[PauliString, PauliString]:
    """Split a 2n-qubit word into its output-system and input-system halves."""
    if p.n % 2:
        raise ValueError("process-tomography Paulis act on an even qubit count")
    n = p.n // 2
    return PauliString(n, p.codes[:n]), PauliString(n, p.codes[n:])


def channel_pauli_expectation(channel: QuantumChannel, p_a: PauliString,
                              p_b: PauliString) -> float:
    """(1/d) Tr(P_A E(conj(P_B))), the ancilla-free side of the encoding identity."""
    if p_a.n != channel.n or p_b.n != channel.n:
        raise ValueError("Pauli qubit counts must match the channel")
    return pauli_expectation(p_a, channel.apply(pauli_matrix(p_b).conj())) / channel.d


def simulate_process_measurements(channel: QuantumChannel, plan: MeasurementPlan,
                                  t, rng=None) -> MeasurementRecord:
    """Ancilla-free shot-noise simulation of 2n-qubit Pauli data on rho_E.

    Per setting (P_A, P_B), each shot draws an eigenvector phi_j of conj(P_B)
    uniformly, sends it through the channel, measures the two-outcome P_A
    observable with mean q_j, and records the outcome reweighted by the input
    eigenvalue lambda_j.  Inputs are independent across shots, so a reweighted
    outcome is one +-1 draw with Pr(+1) = mean_j (1 + lambda_j q_j) / 2, which
    the encoding identity turns into (1 + Tr((P_A (x) P_B) rho_E)) / 2: the
    record is direct state measurement of rho_E, same counts layout, and
    t = EXACT returns the noiseless identity values.
    """
    if plan.n != 2 * channel.n:
        raise ValueError("plan must act on twice the channel's qubit count")
    return simulate_measurements(plan, jamiolkowski_state(channel), t, rng)


def reconstruct_channel(record: MeasurementRecord, plan: MeasurementPlan,
                        solver_choice: str = "lasso", regularization: float = None,
                        config: SolverConfig = None):
    """Estimate a channel from process-measurement data.

    Runs the chosen state estimator through `solvers.run_estimator` on the
    d^2-dimensional encoded-state data (the Lasso and the Dantzig selector
    need an explicit weight, e.g. `solvers.default_weight`; config None keeps
    each estimator's own default), and extracts Kraus operators from the
    eigendecomposition.
    Returns (channel_estimate, diagnostics); trace preservation is reported,
    not enforced; a zero estimate raises ZeroEstimateError.
    """
    result = run_estimator(solver_choice, plan, record, regularization, config)
    if result.rho_hat.trace <= 0:
        w = np.linalg.eigvalsh(adjoint_sampling_operator(plan, record.y))
        level = (f"||A*y|| = {np.abs(w).max():.4g}" if solver_choice == "dantzig"
                 else f"lambda_max(A*y) = {w[-1]:.4g}")
        raise ZeroEstimateError(f"the {solver_choice} estimate is the zero matrix: its weight "
                                f"{regularization:.4g} is at or above {level}, where zero is optimal")
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
