"""Direct fidelity estimation for rank-r state estimates.

Fidelity against a rank-r estimate reduces to the r(r+1)/2 matrix elements
<phi_j|rho|phi_k> in the estimate's eigenbasis.  Each element is estimated by
importance-sampling Pauli words with probability proportional to
|<phi_j|P|phi_k>|^2 and measuring single-copy +-1 outcomes of the sampled
Paulis on the true state; the overlap matrix G is then assembled, clipped to
its positive part, and F_hat = [Tr sqrt(G+)]^2.

Budget constants (Chebyshev for the importance sampler, Hoeffding for the
shot noise, each error/failure budget split in half) are explicit below; the
unspecified leading constants of the source analysis are all set to 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import PauliString, pauli_expectation, pauli_tables
from .states import DensityMatrix

#: eigenvalues of the estimate below this do not count toward its rank
RANK_CUTOFF = 1e-10
#: sample budgets beyond this raise instead of silently losing integer precision
BUDGET_LIMIT = 2**62


@dataclass(frozen=True)
class StateOracle:
    """Measurement access to a fixed true state: exact expectations or shot counts."""

    rho: DensityMatrix
    exact: bool = False

    @property
    def d(self) -> int:
        return self.rho.d

    def expectation(self, p: PauliString) -> float:
        return pauli_expectation(p, self.rho)

    def sample_plus(self, p: PauliString, shots: int, rng) -> int:
        """Number of +1 outcomes among `shots` single-copy measurements of p."""
        prob = np.clip((1.0 + self.expectation(p)) / 2.0, 0.0, 1.0)
        return int(rng.binomial(shots, prob))


@dataclass(frozen=True)
class DfeSample:
    pauli_index: int
    importance_weight: complex
    outcome_estimate: float

    def __post_init__(self):
        if self.importance_weight == 0:
            raise ValueError("sampled Pauli has zero importance weight")


@dataclass(frozen=True)
class FidelityEstimate:
    value: float
    epsilon: float
    delta: float
    copies_used: int
    matrix_element_errors: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"fidelity estimate {self.value} outside [0, 1]")
        if self.copies_used < 0:
            raise ValueError("negative copy count")


def _pauli_overlaps(phi_j: np.ndarray, phi_k: np.ndarray) -> np.ndarray:
    """<phi_j|P_i|phi_k> for all d^2 words i in canonical order."""
    d = phi_j.size
    perms, phases = pauli_tables(d.bit_length() - 1, np.arange(d * d))
    return (phases * phi_k[perms]) @ phi_j.conj()


def dfe_distribution(phi_j: np.ndarray, phi_k: np.ndarray) -> np.ndarray:
    """Importance distribution Pr(i) = |<phi_j|P_i|phi_k>|^2 / d over all d^2 Paulis."""
    phi_j = np.asarray(phi_j, dtype=complex)
    phi_k = np.asarray(phi_k, dtype=complex)
    d = phi_j.size
    if phi_k.size != d:
        raise ValueError("dimension mismatch")
    for name, v in (("phi_j", phi_j), ("phi_k", phi_k)):
        if abs(np.linalg.norm(v) - 1.0) > 1e-9:
            raise ValueError(f"{name} is not normalized")
    probs = np.abs(_pauli_overlaps(phi_j, phi_k)) ** 2 / d
    total = probs.sum()
    if abs(total - 1.0) > 1e-10:
        raise AssertionError(f"importance weights sum to {total}, not 1")
    return probs / total


@dataclass(frozen=True)
class ElementEstimate:
    value: complex
    copies_used: int
    samples: tuple[DfeSample, ...]


def dfe_budget(eps0: float, delta_jk: float) -> int:
    """Importance-sample count l = ceil(8 / (delta * eps0^2)).

    Chebyshev with Var(X) <= 1 puts the sampling error below eps0/2 except
    with probability delta/2; the other halves are spent on shot noise.
    """
    if eps0 <= 0 or not 0 < delta_jk < 1:
        raise ValueError("need eps0 > 0 and delta in (0, 1)")
    budget = np.ceil(8.0 / (delta_jk * eps0 * eps0))
    if not budget < BUDGET_LIMIT:
        raise OverflowError(f"sample budget {budget:.3g} exceeds integer precision")
    return int(budget)


def dfe_matrix_element(state_oracle: StateOracle, phi_j, phi_k,
                       eps0: float, delta_jk: float, rng) -> ElementEstimate:
    """Estimate <phi_j|rho|phi_k> to additive error eps0 with failure probability delta_jk.

    X = Tr(P_i rho) / <phi_k|P_i|phi_j> under the importance distribution has
    mean <phi_j|rho|phi_k> and variance at most one.  Samples landing on the
    same Pauli index are aggregated: their shots merge into one binomial draw
    per index, which is statistically identical to per-sample simulation.
    """
    phi_j = np.asarray(phi_j, dtype=complex)
    phi_k = np.asarray(phi_k, dtype=complex)
    d = phi_j.size
    n = d.bit_length() - 1
    probs = dfe_distribution(phi_j, phi_k)
    support = np.flatnonzero(probs > 0)
    weights = _pauli_overlaps(phi_k, phi_j)[support]

    if state_oracle.exact:
        # no sampling: the exact importance-weighted mean, zero copies consumed
        total = 0.0 + 0.0j
        samples = []
        for i, w in zip(support, weights):
            value = state_oracle.expectation(PauliString.from_index(n, int(i)))
            total += probs[i] * value / w
            samples.append(DfeSample(int(i), complex(w), float(value)))
        return ElementEstimate(complex(total), 0, tuple(samples))

    num_samples = dfe_budget(eps0, delta_jk)
    # multinomial split of the samples over the support, drawn as a chain of
    # conditional binomials so counts stay exact at int64 scale
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
    samples = []
    for idx, (i, w) in enumerate(zip(support, weights)):
        c = int(counts[idx])
        if c == 0:
            continue
        per_sample_shots = int(np.ceil(shot_factor / abs(w) ** 2))
        shots = c * per_sample_shots
        if shots >= BUDGET_LIMIT:
            raise OverflowError("per-index shot budget exceeds integer precision")
        p = PauliString.from_index(n, int(i))
        plus = state_oracle.sample_plus(p, shots, rng)
        mean_outcome = 2.0 * plus / shots - 1.0
        total += c * mean_outcome / w
        copies += shots
        samples.append(DfeSample(int(i), complex(w), float(mean_outcome)))
    return ElementEstimate(complex(total / num_samples), copies, tuple(samples))


def positive_part(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    return (v * np.maximum(w, 0.0)) @ v.conj().T


def trace_sqrt(mat: np.ndarray) -> float:
    """Tr of the square root of the positive part."""
    w = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
    return float(np.sum(np.sqrt(np.maximum(w, 0.0))))


def perturbation_shift(g: np.ndarray, e: np.ndarray) -> float:
    """|Tr sqrt([G+E]+) - Tr sqrt(G+)| for a Hermitian perturbation E."""
    return abs(trace_sqrt(g + e) - trace_sqrt(g))


def worst_case_shift(r: int, eps0: float) -> float:
    """Largest Tr-sqrt shift an eps0-bounded diagonal perturbation can cause at G = 1/r^2."""
    return float(np.sqrt(1.0 + r * eps0) - 1.0)


def element_error_budget(eps: float, r: int) -> float:
    """Per-element error eps0 such that 2 r^(3/4) sqrt(2 eps0) = eps."""
    if eps <= 0 or r < 1:
        raise ValueError("need eps > 0 and r >= 1")
    return (eps / (2.0 * r**0.75)) ** 2 / 2.0


def certify_fidelity(state_oracle: StateOracle, rho_hat: DensityMatrix,
                     eps: float, delta: float, rng) -> FidelityEstimate:
    """Estimate F(rho, rho_hat) to within +-eps, failing with probability <= delta.

    The estimate's eigendecomposition fixes the basis {phi_j} and weights
    lambda_j; the r(r+1)/2 independent elements g_jk = <phi_j|rho|phi_k> are
    estimated with per-element error eps0 = (eps / 2r^(3/4))^2 / 2 and failure
    probability 2 delta / (r^2 + r); then
    G = sum sqrt(lambda_j lambda_k) g_jk |phi_j><phi_k| and
    F_hat = [Tr sqrt(G+)]^2, truncated to at most 1.
    """
    if not rho_hat.is_psd():
        raise ValueError("estimate must be positive semidefinite")
    if rho_hat.trace > 1.0 + 1e-9:
        raise ValueError(f"estimate trace {rho_hat.trace} exceeds 1")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    w, v = np.linalg.eigh(rho_hat.mat)
    keep = w > RANK_CUTOFF
    lam = w[keep][::-1]
    basis = v[:, keep][:, ::-1]
    r = lam.size
    if r == 0:
        raise ValueError("estimate has numerical rank zero")

    eps0 = element_error_budget(eps, r)
    delta_jk = 2.0 * delta / (r * r + r)
    g = np.zeros((r, r), dtype=complex)
    copies = 0
    for j in range(r):
        for k in range(j, r):
            est = dfe_matrix_element(state_oracle, basis[:, j], basis[:, k],
                                     eps0, delta_jk, rng)
            copies += est.copies_used
            g[j, k] = est.value
            g[k, j] = np.conj(est.value)
    g *= np.sqrt(np.outer(lam, lam))
    f_hat = min(trace_sqrt(g) ** 2, 1.0)
    return FidelityEstimate(float(f_hat), eps, delta, copies, eps0)
