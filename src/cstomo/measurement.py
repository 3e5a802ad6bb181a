"""The Pauli sampling operator, its adjoint, and shot-noise simulation.

The sampling operator maps a Hermitian X to the vector with entries
sqrt(d/m) * Tr(P_i X) over the m Paulis of a plan; the normalization makes
the expected composition of adjoint and operator the identity when Paulis
are drawn uniformly with replacement.  Operator and adjoint each take one
all-Pauli transform (`pauli.pauli_grid`), O(d^3) flops whatever m is.
A plan is held as its words' canonical indices, so drawing or reading one
builds no per-word objects; its `PauliString` words are decoded only when
`MeasurementPlan.paulis` is first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .pauli import (
    PauliString,
    grid_slots,
    pauli_grid,
    pauli_grid_adjoint,
    paulis_from_indices,
    word_indices,
)
from .states import DensityMatrix

#: sentinel copy count for noiseless records
EXACT = None


@dataclass(frozen=True, init=False, eq=False)
class MeasurementPlan:
    """An ordered list of sampled Pauli settings on a fixed qubit count.

    The plan holds its words' canonical indices; `paulis` builds the
    `PauliString` words when first read.  Two plans are equal when they
    measure the same words in the same order.
    """

    n: int
    indices: np.ndarray

    def __init__(self, paulis):
        paulis = tuple(paulis)
        if not paulis:
            raise ValueError("a plan needs at least one Pauli")
        n = paulis[0].n
        if any(p.n != n for p in paulis):
            raise ValueError("all Paulis in a plan must act on the same qubit count")
        self._hold(n, np.array([p.index for p in paulis], dtype=np.int64))
        object.__setattr__(self, "paulis", paulis)

    @classmethod
    def from_indices(cls, n: int, indices) -> "MeasurementPlan":
        """The plan of the n-qubit words with these canonical indices, in order."""
        plan = cls.__new__(cls)
        plan._hold(n, indices)
        return plan

    def _hold(self, n: int, indices):
        """Every plan is made here: n and the checked, read-only int64 indices."""
        indices = word_indices(n, indices)
        if not indices.size:
            raise ValueError("a plan needs at least one Pauli")
        indices.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "indices", indices)

    def __eq__(self, other):
        if not isinstance(other, MeasurementPlan):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.indices, other.indices)

    def __hash__(self):
        return hash((self.n, self.indices.tobytes()))

    @cached_property
    def paulis(self) -> tuple[PauliString, ...]:
        return tuple(paulis_from_indices(self.n, self.indices))

    @property
    def m(self) -> int:
        return self.indices.size

    @cached_property
    def d(self) -> int:
        return 1 << self.n

    @cached_property
    def normalization(self) -> float:
        return float(np.sqrt(self.d / self.m))

    @cached_property
    def _slots(self) -> tuple[np.ndarray, np.ndarray]:
        return grid_slots(self.n, self.indices)

    @cached_property
    def gain(self) -> np.ndarray:
        """B = A*A on the float64 view of the grid: pauli_grid(B(M)) = gain * pauli_grid(M).

        The P_i / sqrt(d) are orthonormal, so B is diagonal on the grid: (d^2/m)
        times the word's count in the plan on each word's float slot (repeated
        words add), zero elsewhere.  A read-only d x 2d array.
        """
        slots, _ = self._slots
        gain = np.bincount(slots, minlength=2 * self.d * self.d) * self.d**2 / self.m
        gain = gain.reshape(self.d, 2 * self.d)
        gain.setflags(write=False)
        return gain

    def expectations(self, mat) -> np.ndarray:
        """Vector of Re Tr(P_i X), which is Tr(P_i X) for a Hermitian X: one `pauli_grid`."""
        mat = np.ascontiguousarray(getattr(mat, "mat", mat), dtype=complex)
        if mat.shape != (self.d, self.d):
            raise ValueError(f"dimension mismatch: plan d={self.d}, matrix {mat.shape}")
        slots, weights = self._slots
        return pauli_grid(mat).view(np.float64).reshape(-1).take(slots) * weights

    def pauli_sum(self, coeffs) -> np.ndarray:
        """sum_i c_i P_i for real c, the adjoint of `expectations`: one bincount of the
        signed c_i into the grid (repeated words add), then one `pauli_grid_adjoint`."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.m,):
            raise ValueError(f"expected a length-{self.m} vector, got shape {coeffs.shape}")
        slots, weights = self._slots
        grid = np.bincount(slots, coeffs * weights, 2 * self.d * self.d)
        return pauli_grid_adjoint(grid.view(complex).reshape(self.d, self.d))


@dataclass(frozen=True)
class MeasurementRecord:
    """Noisy Pauli data: normalized estimates y with the shot counts behind them.

    y_i = normalization * (2 * plus_counts_i / shots_i - 1) for sampled data;
    exact records carry y only and mark shots as zero.
    """

    y: np.ndarray
    shots: np.ndarray
    plus_counts: np.ndarray
    normalization: float
    exact: bool = False

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        shots = np.asarray(self.shots, dtype=np.int64)
        plus = np.asarray(self.plus_counts, dtype=np.int64)
        if not (y.shape == shots.shape == plus.shape) or y.ndim != 1:
            raise ValueError("y, shots, and plus_counts must be equal-length vectors")
        # the consistency test below is False for NaN, and exact records have no counts to test
        if not np.all(np.isfinite(y)):
            raise ValueError("y must be finite")
        if np.any(plus < 0) or np.any(plus > shots):
            raise ValueError("plus counts must lie in [0, shots]")
        if not self.exact:
            if np.any(shots <= 0):
                raise ValueError("sampled records need at least one shot per setting")
            expected = self.normalization * (2.0 * plus / shots - 1.0)
            if np.max(np.abs(y - expected)) > 1e-12:
                raise ValueError("y is inconsistent with the recorded counts")
        for arr in (y, shots, plus):
            arr.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "shots", shots)
        object.__setattr__(self, "plus_counts", plus)

    @property
    def m(self) -> int:
        return self.y.size

    def plus_frequencies(self) -> np.ndarray:
        """Empirical Pr(+1) per setting; derived from y for exact records."""
        if self.exact:
            return (1.0 + self.y / self.normalization) / 2.0
        return self.plus_counts / self.shots


def apply_sampling_operator(plan: MeasurementPlan, X) -> np.ndarray:
    """A(X): entries sqrt(d/m) * Tr(P_i X)."""
    return plan.normalization * plan.expectations(X)


def adjoint_sampling_operator(plan: MeasurementPlan, v: np.ndarray) -> np.ndarray:
    """A*(v) = sqrt(d/m) * sum_i v_i P_i."""
    return plan.normalization * plan.pauli_sum(v)


def simulate_measurements(plan: MeasurementPlan, rho: DensityMatrix, t, rng=None) -> MeasurementRecord:
    """Binomial shot-noise simulation: floor(t/m) two-outcome measurements per setting.

    Leftover copies t - m*floor(t/m) are discarded.  Passing t=EXACT (None)
    returns the noiseless record y = A(rho); any other t needs a generator rng.
    """
    exps = plan.expectations(rho.mat)
    norm = plan.normalization
    if t is EXACT or t == np.inf:
        zeros = np.zeros(plan.m, dtype=np.int64)
        return MeasurementRecord(norm * exps, zeros, zeros, norm, exact=True)
    if rng is None:
        raise ValueError(f"sampling t={t} copies needs a random generator")
    t = int(t)
    if t < plan.m:
        raise ValueError(f"t={t} cannot allocate one shot to each of {plan.m} settings")
    shots = t // plan.m
    p_plus = np.clip((1.0 + exps) / 2.0, 0.0, 1.0)
    plus = rng.binomial(shots, p_plus)
    shots_vec = np.full(plan.m, shots, dtype=np.int64)
    y = norm * (2.0 * plus / shots - 1.0)
    return MeasurementRecord(y, shots_vec, plus, norm)


@dataclass(frozen=True)
class RipStats:
    """Empirical min/max/mean of ||A(X)||_2 / ||X||_F over random rank-r probes."""

    minimum: float
    maximum: float
    mean: float
    ratios: np.ndarray


def random_rank_r_hermitian(d: int, r: int, rng) -> np.ndarray:
    """Random rank-r Hermitian matrix with unit Frobenius norm."""
    g = (rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))) / np.sqrt(2)
    q, _ = np.linalg.qr(g)
    lam = rng.standard_normal(r)
    mat = (q * lam) @ q.conj().T
    return mat / np.linalg.norm(mat)


def empirical_rip_constant(plan: MeasurementPlan, r: int, trials: int, rng) -> RipStats:
    """Probe the restricted-isometry behaviour of a plan; a statistic, not a certificate."""
    if trials < 1:
        raise ValueError("need at least one trial")
    ratios = np.empty(trials)
    for i in range(trials):
        x = random_rank_r_hermitian(plan.d, r, rng)
        ratios[i] = np.linalg.norm(apply_sampling_operator(plan, x))
    return RipStats(float(ratios.min()), float(ratios.max()), float(ratios.mean()), ratios)
