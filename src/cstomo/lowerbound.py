"""Packing sets of rank-r projections and the minimax copy-count bound.

A packing is a family of normalized rank-r projections that are pairwise far
in trace distance yet have nearly unbiased Pauli statistics; any estimator
that distinguishes its members from Pauli data needs many copies.  The bound
is used in inverted form: given a packing of size s with Pauli bias alpha,
t* = ((1 - delta) ln s - 1) / (4 alpha^2) copies are provably insufficient
to keep the worst-case failure probability below delta.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .pauli import SINGLE_QUBIT_MATRICES, pauli_traces
from .states import DensityMatrix, random_rank_r_projection, trace_distance

SPECTRUM_TOL = 1e-9


class VacuousBoundError(ValueError):
    """The inverted minimax bound gives no information at these parameters."""


@dataclass(frozen=True)
class PackingSet:
    states: tuple[DensityMatrix, ...]
    epsilon: float
    alpha: float
    rejections: int
    complete: bool = True

    @property
    def size(self) -> int:
        return len(self.states)

    @property
    def d(self) -> int:
        return self.states[0].d


def alpha_bound(d: int, r: int) -> float:
    """Pauli-bias level sqrt(4 ln(d^4 pi / 8) / (r d)) achievable by random projections."""
    if d < 2 or not 1 <= r <= d:
        raise ValueError(f"need d >= 2 and 1 <= r <= d, got d={d}, r={r}")
    return float(np.sqrt(4.0 * np.log(d**4 * np.pi / 8.0) / (r * d)))


def packing_rate_c(d: int, r: int, epsilon: float) -> float:
    """Exponential rate c with packings of size e^(c r d) existing w.h.p."""
    if not 0.0 < epsilon < 1.0 - r / d:
        raise ValueError(f"epsilon must lie in (0, 1 - r/d), got {epsilon}")
    return float(np.log(8.0 / np.pi) / (2.0 * r * d)
                 + ((1.0 - r / d) - epsilon) ** 2 / 32.0)


def _pauli_bias_ok(rho: DensityMatrix, alpha: float) -> bool:
    exps = pauli_traces(rho.mat)[1:].real
    return bool(np.max(np.abs(exps)) <= 2.0 * alpha)


def generate_packing(d: int, r: int, epsilon: float, target_size: int,
                     max_attempts: int, rng, group: str = "special_orthogonal") -> PackingSet:
    """Rejection-sample a packing of normalized rank-r projections.

    A candidate is accepted when every non-identity Pauli expectation is at
    most 2 alpha in magnitude (alpha = alpha_bound(d, r)) and its trace
    distance to every accepted member is at least epsilon.  Stops at
    target_size members or max_attempts candidates; a short set is returned
    flagged incomplete rather than raising.
    """
    if not 0.0 < epsilon < 1.0 - r / d:
        raise ValueError(f"epsilon must lie in (0, 1 - r/d), got {epsilon}")
    if target_size < 1:
        raise ValueError("target size must be positive")
    n = d.bit_length() - 1
    if 1 << n != d:
        raise ValueError("dimension must be a power of two")
    alpha = alpha_bound(d, r)
    accepted: list[DensityMatrix] = []
    rejections = 0
    for _ in range(max_attempts):
        rho = random_rank_r_projection(n, r, rng, group=group)
        if not _pauli_bias_ok(rho, alpha):
            rejections += 1
            continue
        if any(trace_distance(rho, other) < epsilon for other in accepted):
            rejections += 1
            continue
        accepted.append(rho)
        if len(accepted) == target_size:
            return PackingSet(tuple(accepted), epsilon, alpha, rejections)
    return PackingSet(tuple(accepted), epsilon, alpha, rejections, complete=False)


def verify_packing(packing: PackingSet) -> bool:
    """Independent re-check of both defining inequalities and the spectra.

    Deliberately avoids the fast permutation-phase Pauli path: expectations
    go through dense Kronecker products, and trace distances through the
    singular values of the dense difference.
    """
    d = packing.d
    n = d.bit_length() - 1
    words = [np.array([[1.0]], dtype=complex)]
    for _ in range(n):
        words = [np.kron(w, s) for w in words for s in SINGLE_QUBIT_MATRICES]
    for rho in packing.states:
        w = np.linalg.eigvalsh(rho.mat)[::-1]
        r = int(round(1.0 / w[0])) if w[0] > 0 else 0
        if r < 1 or np.max(np.abs(w[:r] - 1.0 / r)) > SPECTRUM_TOL:
            return False
        if r < d and np.max(np.abs(w[r:])) > SPECTRUM_TOL:
            return False
        for p in words[1:]:
            if abs(np.trace(p @ rho.mat).real) > 2.0 * packing.alpha + 1e-12:
                return False
    for a, b in itertools.combinations(packing.states, 2):
        svals = np.linalg.svd(a.mat - b.mat, compute_uv=False)
        if 0.5 * float(svals.sum()) < packing.epsilon - 1e-12:
            return False
    return True


def minimax_copies_bound(s: float, alpha: float, delta: float) -> float:
    """Copies t* below which any estimator fails with probability above delta.

    Inverts M*(epsilon) > 1 - (4 alpha^2 t + 1) / ln s to
    t* = ((1 - delta) ln s - 1) / (4 alpha^2); natural logarithm throughout.

    A non-finite s, s < 1, alpha <= 0 or delta outside [0, 1) is an invalid
    input and raises ValueError.  Valid parameters with (1 - delta) ln s < 1
    raise VacuousBoundError (a ValueError subclass); this covers every
    s in [1, e), since ln s < 1 there for any delta.
    """
    if not np.isfinite(s) or s < 1:
        raise ValueError(f"packing size must be finite and at least 1, got {s}")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0, 1)")
    numerator = (1.0 - delta) * np.log(s) - 1.0
    if abs(numerator) < 1e-12:
        return 0.0  # exact boundary, e.g. delta = 0 with s = e
    if numerator < 0:
        raise VacuousBoundError(
            f"(1 - delta) ln s = {(1.0 - delta) * np.log(s):.4g} <= 1: "
            "the packing is too small to certify any copy count")
    return float(numerator / (4.0 * alpha * alpha))
