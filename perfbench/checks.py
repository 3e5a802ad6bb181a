"""Correctness checks for the benchmark, computed apart from the program.

Nothing here calls into `cstomo`: Pauli matrices are built from Kronecker
products of the 2x2 Pauli matrices, fidelities go through singular values
rather than the nested square root of `cstomo.states.fidelity`, and the
Lasso optimality certificate uses a dense design matrix.  Each check raises
`CheckFailed` with the reason when an output breaks it.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

_SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

#: tolerance on the Fuchs-van de Graaf bounds, for rounding in the means
FVDG_TOL = 1e-9
#: eigenvalues below this are rounding noise, not weight of the state
EIG_FLOOR = 1e-12
#: per-setting false-alarm probability of the binomial band
BAND_ALPHA = 1e-9


class CheckFailed(Exception):
    """An output of the program broke a property it must have."""


def dense_pauli(codes) -> np.ndarray:
    """Kronecker product of single-qubit Paulis, codes I=0, X=1, Y=2, Z=3, qubit 0 first."""
    return reduce(np.kron, (_SIGMA[c] for c in codes))


def design_matrix(words, d: int) -> np.ndarray:
    """Rows sqrt(d/m) vec(P_i^T), so that A(X) = Re(D @ vec(X)) for Hermitian X."""
    m = len(words)
    paulis = np.stack([dense_pauli(codes) for codes in words])
    return np.sqrt(d / m) * paulis.transpose(0, 2, 1).reshape(m, d * d)


def forward(design: np.ndarray, mat: np.ndarray) -> np.ndarray:
    return (design @ mat.reshape(-1)).real


def adjoint(design: np.ndarray, v: np.ndarray) -> np.ndarray:
    d = int(round(np.sqrt(design.shape[1])))
    return (design.T @ v).reshape(d, d).T


def _psd_root(mat: np.ndarray) -> np.ndarray:
    """Square root of the PSD part; eigenvalues at rounding level count as zero,
    since their square roots (~1e-8) would otherwise swamp a 1e-10 comparison."""
    w, v = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    w = np.where(w < EIG_FLOOR, 0.0, w)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Squared fidelity as (sum of singular values of sqrt(rho) sqrt(sigma))^2."""
    s = np.linalg.svd(_psd_root(rho) @ _psd_root(sigma), compute_uv=False)
    return float(np.sum(s) ** 2)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    diff = rho - sigma
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T)))))


def check_fvdg(mean_fidelity: float, mean_trace_distance: float, label: str = "") -> None:
    """1 - sqrt(F) <= D <= sqrt(1 - F); by Jensen's inequality this holds for means too."""
    if not 0.0 <= mean_fidelity <= 1.0:
        raise CheckFailed(f"{label}: mean fidelity {mean_fidelity!r} outside [0, 1]")
    low = 1.0 - np.sqrt(mean_fidelity)
    high = np.sqrt(1.0 - mean_fidelity)
    if not low - FVDG_TOL <= mean_trace_distance <= high + FVDG_TOL:
        raise CheckFailed(f"{label}: mean trace distance {mean_trace_distance:.6g} outside "
                          f"the Fuchs-van de Graaf interval [{low:.6g}, {high:.6g}]")


def check_lasso_kkt(design: np.ndarray, y: np.ndarray, mat: np.ndarray, mu: float,
                    tol: float) -> tuple[float, float]:
    """Optimality of min (1/2)||A(X) - y||^2 + mu Tr X over X >= 0.

    With G = A*(A(X) - y) + mu I the conditions are G >= 0 and <X, G> = 0;
    returns (lambda_min(G), <X, G>) and raises when either misses `tol`.
    """
    d = mat.shape[0]
    g = adjoint(design, forward(design, mat) - y) + mu * np.eye(d)
    lam_min = float(np.linalg.eigvalsh(0.5 * (g + g.conj().T))[0])
    slack = float(np.real(np.vdot(mat, g)))
    if lam_min < -tol or abs(slack) > tol:
        raise CheckFailed(f"Lasso KKT certificate fails: lambda_min(G) = {lam_min:.3g}, "
                          f"<X, G> = {slack:.3g} (tol {tol:.1g})")
    return lam_min, slack


def jamiolkowski(kraus_operators, d: int) -> np.ndarray:
    """(1/d) sum_K vec(K) vec(K)^dagger with row-major vec (output index first)."""
    vecs = np.stack([np.asarray(k).reshape(-1) for k in kraus_operators])
    return vecs.T @ vecs.conj() / d


def binomial_band(p: np.ndarray, shots: int, alpha: float = BAND_ALPHA) -> np.ndarray:
    """Bernstein half-width for a binomial frequency: exceeded with probability <= alpha."""
    log_term = np.log(2.0 / alpha)
    return np.sqrt(2.0 * p * (1.0 - p) * log_term / shots) + 2.0 * log_term / (3.0 * shots)


def check_binomial_band(y: np.ndarray, exact: np.ndarray, normalization: float,
                        shots: int) -> float:
    """Each noisy y must lie in the band around its exact value; returns the worst band ratio."""
    p = np.clip((1.0 + exact) / 2.0, 0.0, 1.0)
    freq = (1.0 + np.asarray(y) / normalization) / 2.0
    ratio = np.abs(freq - p) / binomial_band(p, shots)
    worst = int(np.argmax(ratio))
    if ratio[worst] > 1.0:
        raise CheckFailed(f"setting {worst}: plus frequency {freq[worst]:.6g} outside the "
                          f"binomial band around {p[worst]:.6g} ({shots} shots)")
    return float(ratio[worst])


def check_unit_trace_psd(mat: np.ndarray, tol: float = 1e-9) -> None:
    trace = float(np.trace(mat).real)
    lam_min = float(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))[0])
    if abs(trace - 1.0) > tol or lam_min < -tol:
        raise CheckFailed(f"state has trace {trace:.12g} and least eigenvalue {lam_min:.3g}; "
                          "need unit trace and PSD")
