"""Direct fidelity estimation for rank-r state estimates.

Fidelity against a rank-r estimate reduces to the r(r+1)/2 matrix elements
<phi_j|rho|phi_k> in the estimate's eigenbasis.  Each element is estimated by
importance-sampling Pauli words with probability proportional to
|<phi_j|P|phi_k>|^2 and measuring single-copy +-1 outcomes of the sampled
Paulis on the true state.  The overlaps of all d^2 words, and the true
state's expectations, each come from one all-Pauli transform
(`pauli.pauli_traces`); the overlap matrix G is then assembled and
F_hat = [Tr sqrt(G+)]^2, the square root taken on its positive part.

Budget constants (Chebyshev for the importance sampler, Hoeffding for the
shot noise, each error/failure budget split in half) are explicit below; the
unspecified leading constants of the source analysis are all set to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .pauli import pauli_traces
from .states import DensityMatrix, eig_reduce, hermitize

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

    @cached_property
    def pauli_expectations(self) -> np.ndarray:
        """Tr(P_i rho) for all d^2 words in canonical order, one transform per oracle."""
        return pauli_traces(self.rho.mat).real.copy()

    def sample_plus(self, words: np.ndarray, shots: np.ndarray, rng) -> np.ndarray:
        """Numbers of +1 outcomes among shots[i] single-copy measurements of word words[i]."""
        prob = np.clip((1.0 + self.pauli_expectations[words]) / 2.0, 0.0, 1.0)
        return rng.binomial(shots, prob)


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


def _importance(phi_j: np.ndarray, phi_k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The overlaps <phi_j|P_i|phi_k> and the importance distribution they give."""
    d = phi_j.size
    if phi_k.size != d:
        raise ValueError("dimension mismatch")
    if d < 2 or d & (d - 1):
        raise ValueError(f"vector length {d} is not a power of two")
    for name, v in (("phi_j", phi_j), ("phi_k", phi_k)):
        if abs(np.linalg.norm(v) - 1.0) > 1e-9:
            raise ValueError(f"{name} is not normalized")
    # <phi_j|P_i|phi_k> = Tr(P_i |phi_k><phi_j|)
    overlaps = pauli_traces(np.outer(phi_k, phi_j.conj()))
    probs = np.abs(overlaps) ** 2 / d
    total = probs.sum()
    if abs(total - 1.0) > 1e-10:
        raise AssertionError(f"importance weights sum to {total}, not 1")
    return overlaps, probs / total


def dfe_distribution(phi_j: np.ndarray, phi_k: np.ndarray) -> np.ndarray:
    """Importance distribution Pr(i) = |<phi_j|P_i|phi_k>|^2 / d over all d^2 Paulis."""
    return _importance(np.asarray(phi_j, dtype=complex), np.asarray(phi_k, dtype=complex))[1]


@dataclass(frozen=True)
class ElementEstimate:
    value: complex
    copies_used: int


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


def _running_sum(terms: np.ndarray) -> complex:
    """Sum in index order, so the rounding does not depend on numpy's pairwise blocks."""
    return np.cumsum(terms)[-1]


def dfe_matrix_element(state_oracle: StateOracle, phi_j, phi_k,
                       eps0: float, delta_jk: float, rng) -> ElementEstimate:
    """Estimate <phi_j|rho|phi_k> to additive error eps0 with failure probability delta_jk.

    X = Tr(P_i rho) / <phi_k|P_i|phi_j> under the importance distribution has
    mean <phi_j|rho|phi_k> and variance at most one.  The exact mode takes
    the importance-weighted mean over the whole support.  The sampled mode
    splits the samples over the support multinomially, then measures each
    sampled word once: samples landing on the same word merge their shots
    into one binomial draw, which is statistically identical to per-sample
    simulation.
    """
    phi_j = np.asarray(phi_j, dtype=complex)
    phi_k = np.asarray(phi_k, dtype=complex)
    if phi_j.size != state_oracle.d:
        raise ValueError(f"dimension mismatch: state d={state_oracle.d}, vectors {phi_j.size}")
    overlaps, probs = _importance(phi_j, phi_k)
    support = np.flatnonzero(probs > 0)

    if state_oracle.exact:
        # no sampling: the exact importance-weighted mean, zero copies consumed;
        # Paulis are Hermitian, so <phi_k|P_i|phi_j> is the conjugate overlap
        values = state_oracle.pauli_expectations[support]
        terms = probs[support] * values / overlaps[support].conj()
        return ElementEstimate(complex(_running_sum(terms)), 0)

    num_samples = dfe_budget(eps0, delta_jk)
    # numpy draws the multinomial as a chain of conditional binomials, so the
    # counts stay exact at int64 scale
    counts = rng.multinomial(num_samples, probs[support])
    sampled = counts > 0
    counts = counts[sampled]
    words = support[sampled]
    weights = overlaps[words].conj()
    shot_factor = 2.0 * np.log(2.0 / delta_jk) / (num_samples * (eps0 / 2.0) ** 2)
    per_sample_shots = np.ceil(shot_factor / np.abs(weights) ** 2)
    # tested in float64: the int64 product can wrap before it reaches the limit
    if np.any(counts * per_sample_shots >= BUDGET_LIMIT):
        raise OverflowError("per-index shot budget exceeds integer precision")
    shots = counts * per_sample_shots.astype(np.int64)
    plus = state_oracle.sample_plus(words, shots, rng)
    mean_outcomes = 2.0 * plus / shots - 1.0
    total = _running_sum(counts * mean_outcomes / weights)
    # copies in Python ints: each word's shots are below 2^62, their total need not be
    return ElementEstimate(complex(total / num_samples), sum(shots.tolist()))


def trace_sqrt(mat: np.ndarray) -> float:
    """Tr of the square root of the positive part."""
    return eig_reduce(hermitize(mat), lambda w: np.sqrt(np.maximum(w, 0.0)))


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
