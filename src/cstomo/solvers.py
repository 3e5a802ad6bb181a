"""Estimators for low-rank state reconstruction.

Three estimators share the sampling-operator machinery:

* matrix Lasso -- least squares with a trace penalty, solved by accelerated
  proximal gradient (FISTA with adaptive restart); the proximal map is
  eigenvalue soft-thresholding, clamped to the PSD cone when positivity is on;
* matrix Dantzig selector -- trace minimization under an operator-norm bound
  on the correlated residual, solved by linearized ADMM whose consensus step
  projects onto the operator-norm ball (eigenvalue clipping);
* iterative MLE -- the R*rho*R fixed point for the two-outcome Pauli
  likelihood, started from the maximally mixed state.

The first-order methods replace interior-point solving; accuracy is guarded
by the feasibility / stationarity certificates reported in the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .measurement import (
    MeasurementPlan,
    MeasurementRecord,
    adjoint_sampling_operator,
    apply_sampling_operator,
)
from .states import DensityMatrix, renormalized

#: probability floor before divisions in the MLE iteration
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-9
    max_iterations: int = 5000
    positivity: bool = True

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")


@dataclass(frozen=True)
class ReconstructionResult:
    rho_hat: DensityMatrix
    objective_history: tuple[float, ...]
    feasibility_residual: float
    iterations_used: int
    converged: bool
    renormalized: bool = False


def default_lambda(d: int, t: float) -> float:
    """Dantzig residual bound heuristic, 3d/sqrt(t)."""
    if t < 1:
        raise ValueError("need at least one copy")
    return 3.0 * d / np.sqrt(t)


def default_mu(m: int, t: float) -> float:
    """Lasso regularization heuristic, 4m/sqrt(t)."""
    if t < 1:
        raise ValueError("need at least one copy")
    return 4.0 * m / np.sqrt(t)


def _check_plan(plan: MeasurementPlan):
    if all(p.is_identity for p in plan.paulis):
        raise ValueError("plan contains only identity Paulis; nothing to reconstruct")


def _hermitize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.conj().T)


def operator_norm(mat: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(_hermitize(mat)))))


def sampling_lipschitz(plan: MeasurementPlan) -> float:
    """Spectral norm of A*A on Hermitian matrices, in closed form.

    The P_i / sqrt(d) are orthonormal, so A*A is diagonal in them with
    eigenvalue (d^2/m) times the number of times word i occurs in the plan.
    """
    _, counts = np.unique([p.index for p in plan.paulis], return_counts=True)
    return plan.d**2 * int(counts.max()) / plan.m


def _prox_trace(mat: np.ndarray, thresh: float, positivity: bool) -> np.ndarray:
    w, v = np.linalg.eigh(_hermitize(mat))
    if positivity:
        w = np.maximum(w - thresh, 0.0)
    else:
        w = np.sign(w) * np.maximum(np.abs(w) - thresh, 0.0)
    return (v * w) @ v.conj().T


def _project_opnorm_ball(mat: np.ndarray, radius: float) -> np.ndarray:
    w, v = np.linalg.eigh(_hermitize(mat))
    return (v * np.clip(w, -radius, radius)) @ v.conj().T


def _trace_norm(mat: np.ndarray) -> float:
    return float(np.sum(np.abs(np.linalg.eigvalsh(_hermitize(mat)))))


def _fista_stage(plan, y, mu, X, step, positivity, max_iter, tol):
    """FISTA with adaptive restart from warm start X; returns (X, history, converged, iters)."""

    def objective(mat):
        resid = apply_sampling_operator(plan, mat) - y
        reg = float(np.trace(mat).real) if positivity else _trace_norm(mat)
        return 0.5 * float(resid @ resid) + mu * reg

    V = X
    theta = 1.0
    history = [objective(X)]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        grad = adjoint_sampling_operator(plan, apply_sampling_operator(plan, V) - y)
        X_new = _prox_trace(V - step * grad, mu * step, positivity)
        obj = objective(X_new)
        if obj > history[-1]:
            # adaptive restart: drop momentum when the objective backtracks
            theta = 1.0
            V = X
            grad = adjoint_sampling_operator(plan, apply_sampling_operator(plan, V) - y)
            X_new = _prox_trace(V - step * grad, mu * step, positivity)
            obj = objective(X_new)
        theta_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta**2))
        V = X_new + ((theta - 1.0) / theta_new) * (X_new - X)
        change = np.linalg.norm(X_new - X)
        X = X_new
        theta = theta_new
        history.append(obj)
        if change < tol * max(1.0, np.linalg.norm(X)):
            converged = True
            break
    return X, history, converged, iterations


def matrix_lasso(plan: MeasurementPlan, y: np.ndarray, mu: float,
                 config: SolverConfig = SolverConfig()) -> ReconstructionResult:
    """Minimize (1/2)||A(X) - y||^2 + mu Tr(X) over X >= 0 (or +mu||X||_tr over Hermitian).

    Solved by accelerated proximal gradient.  For mu far below the data scale
    a cold start crawls, so a continuation schedule first solves with a large
    penalty and warm-starts down a geometric ladder to the requested mu; only
    the final stage decides convergence and the reported history.
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    _check_plan(plan)
    y = np.asarray(y, dtype=float)
    d = plan.d
    L = sampling_lipschitz(plan)
    step = 1.0 / L

    data_scale = operator_norm(adjoint_sampling_operator(plan, y))
    X = np.zeros((d, d), dtype=complex)
    stage_mu = 0.2 * data_scale
    ladder_floor = max(mu, 1e-9 * data_scale)
    while stage_mu > 4.0 * ladder_floor:
        X, _, _, _ = _fista_stage(plan, y, stage_mu, X, step, config.positivity,
                                  min(400, config.max_iterations), config.tolerance)
        stage_mu /= 4.0
    X, history, converged, iterations = _fista_stage(
        plan, y, mu, X, step, config.positivity, config.max_iterations, config.tolerance)
    feas = operator_norm(adjoint_sampling_operator(plan, apply_sampling_operator(plan, X) - y))
    return ReconstructionResult(DensityMatrix(_hermitize(X)), tuple(history), feas,
                                iterations, converged)


def dantzig_selector(plan: MeasurementPlan, y: np.ndarray, lam: float,
                     config: SolverConfig = SolverConfig()) -> ReconstructionResult:
    """Minimize Tr(X) over X >= 0 subject to ||A*(A(X) - y)|| <= lam.

    Linearized ADMM on the split Z = A*(A(X)) - A*(y): the Z step projects
    onto the operator-norm ball of radius lam, the X step is a proximal
    gradient step on the trace over the PSD cone.  The penalty parameter is
    rescaled by residual balancing.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    _check_plan(plan)
    y = np.asarray(y, dtype=float)
    d = plan.d

    def B(mat):
        return adjoint_sampling_operator(plan, apply_sampling_operator(plan, mat))

    c = adjoint_sampling_operator(plan, y)
    if operator_norm(c) <= lam:
        # X = 0 is feasible and has minimal trace
        zero = DensityMatrix(np.zeros((d, d), dtype=complex))
        return ReconstructionResult(zero, (0.0,), operator_norm(c), 0, True)

    L = sampling_lipschitz(plan)
    rho = 1.0
    eta = 0.9 / (rho * L * L)
    X = np.zeros((d, d), dtype=complex)
    BX = np.zeros((d, d), dtype=complex)
    Z = _project_opnorm_ball(-c, lam)
    U = np.zeros((d, d), dtype=complex)
    history = [0.0]
    converged = False
    iterations = 0
    scale = max(1.0, np.linalg.norm(c))
    for iterations in range(1, config.max_iterations + 1):
        X_prev = X
        X = _prox_trace(X - eta * rho * B(BX - c - Z + U), eta, True)
        BX = B(X)
        Z_prev = Z
        Z = _project_opnorm_ball(BX - c + U, lam)
        U = U + BX - c - Z
        primal = np.linalg.norm(BX - c - Z)
        dual = rho * np.linalg.norm(B(Z - Z_prev))
        history.append(float(np.trace(X).real))
        if iterations % 20 == 0:
            if primal > 10.0 * dual:
                rho *= 2.0
                U /= 2.0
            elif dual > 10.0 * primal:
                rho /= 2.0
                U *= 2.0
            eta = 0.9 / (rho * L * L)
        if (primal < config.tolerance * scale
                and np.linalg.norm(X - X_prev) < config.tolerance * max(1.0, np.linalg.norm(X))):
            converged = True
            break
    feas = operator_norm(BX - c)
    if feas > lam * (1.0 + 1e-6) and converged:
        converged = False
    return ReconstructionResult(DensityMatrix(_hermitize(X)), tuple(history), feas,
                                iterations, converged)


def _mle_likelihood(weights, f_plus, f_minus, p_plus, p_minus):
    terms = np.where(f_plus > 0, f_plus * np.log(p_plus), 0.0)
    terms = terms + np.where(f_minus > 0, f_minus * np.log(p_minus), 0.0)
    return float(np.sum(weights * terms))


def mle(plan: MeasurementPlan, record: MeasurementRecord,
        config: SolverConfig = SolverConfig(tolerance=1e-10, max_iterations=2000)) -> ReconstructionResult:
    """Iterative R*rho*R maximum-likelihood estimate for two-outcome Pauli data.

    R(rho) = sum_i sum_{s=+,-} (f_i^s / p_i^s) Pi_i^s with Pi_i^± = (1 ± P_i)/2,
    iterated as rho <- N[R rho R] from the maximally mixed state.  Stops when
    the per-iteration log-likelihood gain drops below the tolerance.
    """
    _check_plan(plan)
    if record.m != plan.m:
        raise ValueError("record and plan lengths differ")
    d = plan.d
    f_plus = record.plus_frequencies()
    f_minus = 1.0 - f_plus
    weights = np.ones(plan.m) if record.exact else record.shots.astype(float)

    rho = np.eye(d, dtype=complex) / d
    history = []
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        exps = plan.expectations(rho)
        p_plus = np.maximum((1.0 + exps) / 2.0, PROB_FLOOR)
        p_minus = np.maximum((1.0 - exps) / 2.0, PROB_FLOOR)
        ll = _mle_likelihood(weights, f_plus, f_minus, p_plus, p_minus)
        history.append(ll)
        if len(history) > 1 and ll - history[-2] < config.tolerance * max(1.0, abs(ll)):
            converged = True
            break
        ratio_plus = np.where(f_plus > 0, weights * f_plus / p_plus, 0.0)
        ratio_minus = np.where(f_minus > 0, weights * f_minus / p_minus, 0.0)
        ident_coeff = 0.5 * np.sum(ratio_plus + ratio_minus)
        pauli_coeff = 0.5 * (ratio_plus - ratio_minus)
        r_op = ident_coeff * np.eye(d) + plan.pauli_sum(pauli_coeff)
        rho = _hermitize(r_op @ rho @ r_op)
        rho /= np.trace(rho).real
    feas = operator_norm(adjoint_sampling_operator(
        plan, apply_sampling_operator(plan, rho) - record.y))
    return ReconstructionResult(DensityMatrix(rho), tuple(history), feas, iterations, converged)


def renormalize(result: ReconstructionResult) -> ReconstructionResult:
    """Divide the estimate by its trace, which must be positive."""
    return replace(result, rho_hat=renormalized(result.rho_hat), renormalized=True)
