"""The Pauli sampling operator, its adjoint, shot-noise simulation, and the time budget.

The sampling operator maps a Hermitian X to the vector with entries
sqrt(d/m) * Tr(P_i X) over the m Paulis of a plan; the normalization makes
the expected composition of adjoint and operator the identity when Paulis
are drawn uniformly with replacement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .pauli import PauliString, pauli_tables
from .states import DensityMatrix

#: sentinel copy count for noiseless records
EXACT = None


@dataclass(frozen=True)
class MeasurementPlan:
    """An ordered list of sampled Pauli settings on a fixed qubit count."""

    paulis: tuple[PauliString, ...]

    def __post_init__(self):
        paulis = tuple(self.paulis)
        if not paulis:
            raise ValueError("a plan needs at least one Pauli")
        n = paulis[0].n
        if any(p.n != n for p in paulis):
            raise ValueError("all Paulis in a plan must act on the same qubit count")
        object.__setattr__(self, "paulis", paulis)

    @property
    def m(self) -> int:
        return len(self.paulis)

    @property
    def n(self) -> int:
        return self.paulis[0].n

    @property
    def d(self) -> int:
        return 1 << self.n

    @property
    def normalization(self) -> float:
        return float(np.sqrt(self.d / self.m))

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        return pauli_tables(self.n, [p.index for p in self.paulis])

    @cached_property
    def _flat_index(self) -> np.ndarray:
        """Row-major position of each table entry in a d x d matrix."""
        return (self._tables[0] + self.d * np.arange(self.d)).ravel()

    def expectations(self, mat) -> np.ndarray:
        """Vector of Tr(P_i X) for a Hermitian X, O(m d)."""
        mat = np.asarray(getattr(mat, "mat", mat))
        if mat.shape != (self.d, self.d):
            raise ValueError(f"dimension mismatch: plan d={self.d}, matrix {mat.shape}")
        perms, phases = self._tables
        values = np.sum(phases * mat[perms, np.arange(self.d)], axis=1)
        return values.real

    def pauli_sum(self, coeffs) -> np.ndarray:
        """The dense matrix sum_i c_i P_i for real c, one scatter in O(m d)."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.m,):
            raise ValueError(f"expected a length-{self.m} vector, got shape {coeffs.shape}")
        phases = self._tables[1]
        size = self.d * self.d
        real = np.bincount(self._flat_index, (coeffs[:, None] * phases.real).ravel(), size)
        imag = np.bincount(self._flat_index, (coeffs[:, None] * phases.imag).ravel(), size)
        return (real + 1j * imag).reshape(self.d, self.d)


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


@dataclass(frozen=True)
class TimeBudget:
    """Fixed experiment duration T with per-setting switching cost c."""

    T: float
    c: float
    m: int


def budget_split(budget: TimeBudget) -> int:
    """Copies left after paying the switching cost: t = T - c*m."""
    t = budget.T - budget.c * budget.m
    if t <= 0:
        raise ValueError(
            f"infeasible plan: T={budget.T} leaves t={t} after switching {budget.m} settings at cost {budget.c}"
        )
    return int(t)


def apply_sampling_operator(plan: MeasurementPlan, X) -> np.ndarray:
    """A(X): entries sqrt(d/m) * Tr(P_i X)."""
    return plan.normalization * plan.expectations(X)


def adjoint_sampling_operator(plan: MeasurementPlan, v: np.ndarray) -> np.ndarray:
    """A*(v) = sqrt(d/m) * sum_i v_i P_i."""
    return plan.normalization * plan.pauli_sum(v)


def simulate_measurements(plan: MeasurementPlan, rho: DensityMatrix, t, rng=None) -> MeasurementRecord:
    """Binomial shot-noise simulation: floor(t/m) two-outcome measurements per setting.

    Leftover copies t - m*floor(t/m) are discarded.  Passing t=EXACT (None)
    returns the noiseless record y = A(rho).
    """
    exps = plan.expectations(rho.mat)
    norm = plan.normalization
    if t is EXACT or t == np.inf:
        zeros = np.zeros(plan.m, dtype=np.int64)
        return MeasurementRecord(norm * exps, zeros, zeros, norm, exact=True)
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


# --- serialization -----------------------------------------------------------

def plan_to_dict(plan: MeasurementPlan, seed=None) -> dict:
    data = {
        "kind": "measurement_plan",
        "n": plan.n,
        "paulis": [p.label for p in plan.paulis],
        "indices": [p.index for p in plan.paulis],
    }
    if seed is not None:
        data["seed"] = seed
    return data


def plan_from_dict(data: dict) -> MeasurementPlan:
    n = int(data["n"])
    return MeasurementPlan(tuple(PauliString.from_index(n, int(i)) for i in data["indices"]))
