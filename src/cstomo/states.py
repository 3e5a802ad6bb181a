"""Density matrices, random-state ensembles, local noise, distance metrics, eigen-helpers."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-9
#: fidelity accepts traces up to 1 + TRACE_TOL; above that its value can exceed 1
TRACE_TOL = 1e-9
#: eigenvalues below this are clamped to zero before square roots
EIG_CLAMP = 1e-12


@dataclass(frozen=True)
class DensityMatrix:
    """A dense d x d Hermitian matrix on n = log2(d) qubits.

    Hermiticity is enforced at construction.  Unit trace and positivity are
    *not* enforced: estimators legitimately produce subnormalized output, so
    trace and PSD checks are separate queries.
    """

    mat: np.ndarray

    def __post_init__(self):
        mat = np.array(self.mat, dtype=complex)
        d = mat.shape[0] if mat.ndim == 2 else 0
        if mat.shape != (d, d) or d & (d - 1) or d < 2:
            raise ValueError(f"expected a square matrix with power-of-two size, got {mat.shape}")
        if np.linalg.norm(mat - mat.conj().T) > HERMITICITY_TOL * d:
            raise ValueError("matrix is not Hermitian within tolerance")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def d(self) -> int:
        return self.mat.shape[0]

    @property
    def n(self) -> int:
        return self.d.bit_length() - 1

    @property
    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in descending order."""
        return np.linalg.eigvalsh(self.mat)[::-1]

    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[-1])

    def is_psd(self) -> bool:
        return self.min_eigenvalue() >= -PSD_TOL

    def purity(self) -> float:
        return float(np.sum(np.abs(self.mat) ** 2))

    def numerical_rank(self) -> int:
        return int(np.sum(self.eigenvalues > 1e-10))


def pure_state(vec: np.ndarray) -> DensityMatrix:
    """Projector |psi><psi| for a (normalized) state vector."""
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return DensityMatrix(np.outer(vec, vec.conj()))


def maximally_mixed(n: int) -> DensityMatrix:
    d = 1 << n
    return DensityMatrix(np.eye(d) / d)


def haar_random_pure(n: int, rng) -> DensityMatrix:
    """Rank-1 projector onto a Haar-random vector (normalized complex Gaussian)."""
    d = 1 << n
    vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return pure_state(vec)


def haar_random_unitary(d: int, rng) -> np.ndarray:
    """Haar-distributed U(d) element via QR with phase-corrected diagonal."""
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def haar_random_orthogonal(d: int, rng) -> np.ndarray:
    """Haar-distributed SO(d) element: a Haar O(d) element with its determinant made +1."""
    g = rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def depolarize_local(rho: DensityMatrix, gamma: float) -> DensityMatrix:
    """Apply the single-qubit depolarizing channel with strength gamma to every qubit.

    D_gamma(rho) = gamma * (1/2) + (1 - gamma) * rho per qubit, composed over
    all n qubits by index arithmetic (O(n d^2), no Kraus enumeration).
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    mat = np.array(rho.mat)
    n, d = rho.n, rho.d
    for q in range(n):
        dl = 1 << q
        dr = d >> (q + 1)
        m6 = mat.reshape(dl, 2, dr, dl, 2, dr)
        traced = np.einsum("asbAsB->abAB", m6)
        out = (1.0 - gamma) * m6
        out[:, 0, :, :, 0, :] += (gamma / 2.0) * traced
        out[:, 1, :, :, 1, :] += (gamma / 2.0) * traced
        mat = out.reshape(d, d)
    return DensityMatrix(mat)


# --- eigen-helpers: they take the matrix as given; callers hermitize as needed

def hermitize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.conj().T)


def eig_apply(mat: np.ndarray, f) -> np.ndarray:
    """V f(w) V^dagger for the eigendecomposition V w V^dagger of a Hermitian matrix."""
    w, v = np.linalg.eigh(mat)
    return (v * f(w)) @ v.conj().T


def eig_reduce(mat: np.ndarray, f, reduce=np.sum) -> float:
    """reduce(f(w)) over the eigenvalues w of a Hermitian matrix."""
    return float(reduce(f(np.linalg.eigvalsh(mat))))


def eigh_descending(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues in descending order, with their eigenvectors as columns."""
    w, v = np.linalg.eigh(mat)
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def project_simplex(w: np.ndarray) -> np.ndarray:
    """Euclidean projection of real eigenvalues onto {x >= 0, sum x = 1}.

    Through `eig_apply` it maps a Hermitian matrix to the nearest density
    matrix in Frobenius norm (Smolin, Gambetta, Smith, PRL 108, 070502 (2012)).
    """
    u = np.sort(w)[::-1]
    excess = np.cumsum(u) - 1.0
    k = np.flatnonzero(u * np.arange(1, w.size + 1) > excess)[-1]
    return np.maximum(w - excess[k] / (k + 1), 0.0)


def _clamped_sqrt(w: np.ndarray) -> np.ndarray:
    return np.sqrt(np.where(w < EIG_CLAMP, 0.0, w))


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Squared fidelity [Tr sqrt(sqrt(sigma) rho sqrt(sigma))]^2.

    Both arguments must be PSD with trace at most one; subnormalized
    estimates are accepted and score below their normalized versions.
    """
    if rho.d != sigma.d:
        raise ValueError("dimension mismatch")
    for name, state in (("rho", rho), ("sigma", sigma)):
        if state.trace > 1.0 + TRACE_TOL:
            raise ValueError(f"{name} has trace {state.trace:.12g} > 1")
        if not state.is_psd():
            raise ValueError(f"{name} is not positive semidefinite "
                             f"(min eigenvalue {state.min_eigenvalue():.3g})")
    root = eig_apply(sigma.mat, _clamped_sqrt)
    # the square rounds above 1 on states that agree to rounding
    return min(eig_reduce(root @ rho.mat @ root, _clamped_sqrt) ** 2, 1.0)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the trace norm of rho - sigma."""
    if rho.d != sigma.d:
        raise ValueError("dimension mismatch")
    return 0.5 * eig_reduce(rho.mat - sigma.mat, np.abs)


def truncate_rank(rho: DensityMatrix, r: int) -> tuple[DensityMatrix, float]:
    """Best rank-r approximation (largest r eigenpairs) and the trace norm of the rest.

    Eigenvalues are sorted descending; ties are broken by the eigenvector
    order returned by the underlying symmetric eigensolver.
    """
    if not 1 <= r <= rho.d:
        raise ValueError(f"rank {r} out of range for d={rho.d}")
    w, v = eigh_descending(rho.mat)
    kept = (v[:, :r] * w[:r]) @ v[:, :r].conj().T
    residual = float(np.sum(np.abs(w[r:])))
    return DensityMatrix(kept), residual


def random_rank_r_projection(n: int, r: int, rng, group: str = "special_orthogonal") -> DensityMatrix:
    """(1/r) x (rank-r projector), conjugated by a Haar-random SO(d) or U(d) element."""
    d = 1 << n
    if not 1 <= r <= d:
        raise ValueError(f"rank {r} out of range for d={d}")
    if group == "special_orthogonal":
        basis = haar_random_orthogonal(d, rng)
    elif group == "unitary":
        basis = haar_random_unitary(d, rng)
    else:
        raise ValueError(f"unknown group {group!r}")
    cols = basis[:, :r]
    return DensityMatrix((cols @ cols.conj().T) / r)


def renormalized(rho: DensityMatrix) -> DensityMatrix:
    tr = rho.trace
    if tr <= 0:
        raise ValueError(f"cannot renormalize trace {tr:.3g}")
    return DensityMatrix(rho.mat / tr)
