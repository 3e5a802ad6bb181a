"""Estimators for low-rank state reconstruction.

Three estimators share the sampling-operator machinery:

* matrix Lasso -- least squares with a trace penalty, solved by accelerated
  proximal gradient (FISTA with adaptive restart); the proximal map is
  eigenvalue soft-thresholding, clamped to the PSD cone when positivity is on;
* matrix Dantzig selector -- trace minimization under an operator-norm bound
  on the correlated residual, solved by linearized ADMM whose consensus step
  projects onto the operator-norm ball (eigenvalue clipping);
* MLE -- the two-outcome Pauli likelihood maximized over density matrices
  by accelerated projected gradient ascent (Shang, Zhang, Ng, PRA 95,
  062336 (2017)) from the maximally mixed state; the projection maps the
  eigenvalues onto the simplex, and it stops on the optimality certificate
  lambda_max(R(rho))/N - 1 <= tolerance.

The first-order methods replace interior-point solving; accuracy is guarded
by the feasibility / stationarity certificates reported in the result.
`run_estimator` runs one by name, with the weight `default_weight` picks.

Operator budget per iteration, in forward maps A (one `expectations`) and
adjoints A* (one `pauli_sum`), besides the eigendecompositions:

* Lasso: 1 A + 1 A*, since A(X) and A(V) are carried forward; an adaptive
  restart adds 1 A + 1 A*, and each continuation stage starts with 1 A;
* Dantzig: 3 A + 3 A* (B = A*A three times) and two eigendecompositions;
* MLE: 1 A and one eigendecomposition per trial step (the projection, then
  the likelihood; an Armijo backtrack or a momentum restart adds a trial
  step), 1 A* for R at the accepted iterate with one eigvalsh for its
  certificate, and 1 A* for the gradient at the momentum point; 1 A* after
  the loop for the reported feasibility residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .measurement import (
    EXACT,
    MeasurementPlan,
    MeasurementRecord,
    adjoint_sampling_operator,
    apply_sampling_operator,
)
from .states import DensityMatrix, eig_apply, eig_reduce, hermitize, project_simplex, renormalized

#: probability floor before divisions in the MLE iteration
PROB_FLOOR = 1e-12
#: MLE step: halvings allowed per Armijo search, and growth after an accepted iterate
MAX_BACKTRACKS = 60
STEP_GROWTH = 1.1
#: the estimators `run_estimator` runs by name
ESTIMATORS = ("dantzig", "lasso", "mle")


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


def operator_norm(mat: np.ndarray) -> float:
    return eig_reduce(hermitize(mat), np.abs, np.max)


def sampling_lipschitz(plan: MeasurementPlan) -> float:
    """Spectral norm of A*A on Hermitian matrices, in closed form.

    The P_i / sqrt(d) are orthonormal, so A*A is diagonal in them with
    eigenvalue (d^2/m) times the number of times word i occurs in the plan.
    """
    _, counts = np.unique([p.index for p in plan.paulis], return_counts=True)
    return plan.d**2 * int(counts.max()) / plan.m


def _prox_trace(mat: np.ndarray, thresh: float, positivity: bool) -> np.ndarray:
    if positivity:
        return eig_apply(hermitize(mat), lambda w: np.maximum(w - thresh, 0.0))
    return eig_apply(hermitize(mat), lambda w: np.sign(w) * np.maximum(np.abs(w) - thresh, 0.0))


def _project_opnorm_ball(mat: np.ndarray, radius: float) -> np.ndarray:
    return eig_apply(hermitize(mat), lambda w: np.clip(w, -radius, radius))


def _trace_norm(mat: np.ndarray) -> float:
    return eig_reduce(hermitize(mat), np.abs)


def _fista_stage(plan, y, mu, X, step, positivity, max_iter, tol):
    """FISTA with adaptive restart from warm start X; returns (X, A(X), history, converged, iters).

    A is linear, so A(X) and A(V) are carried forward with the iterates
    instead of being recomputed for the objective and the gradient.
    """

    def objective(mat, a_mat):
        resid = a_mat - y
        reg = float(np.trace(mat).real) if positivity else _trace_norm(mat)
        return 0.5 * float(resid @ resid) + mu * reg

    def prox_step(V, AV):
        grad = adjoint_sampling_operator(plan, AV - y)
        X_new = _prox_trace(V - step * grad, mu * step, positivity)
        AX_new = apply_sampling_operator(plan, X_new)
        return X_new, AX_new, objective(X_new, AX_new)

    AX = apply_sampling_operator(plan, X)
    V, AV = X, AX
    theta = 1.0
    history = [objective(X, AX)]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        X_new, AX_new, obj = prox_step(V, AV)
        if obj > history[-1]:
            # adaptive restart: drop momentum when the objective backtracks
            theta = 1.0
            X_new, AX_new, obj = prox_step(X, AX)
        theta_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta**2))
        beta = (theta - 1.0) / theta_new
        V = X_new + beta * (X_new - X)
        AV = AX_new + beta * (AX_new - AX)
        change = np.linalg.norm(X_new - X)
        X, AX = X_new, AX_new
        theta = theta_new
        history.append(obj)
        if change < tol * max(1.0, np.linalg.norm(X)):
            converged = True
            break
    return X, AX, history, converged, iterations


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
        X, _, _, _, _ = _fista_stage(plan, y, stage_mu, X, step, config.positivity,
                                     min(400, config.max_iterations), config.tolerance)
        stage_mu /= 4.0
    X, AX, history, converged, iterations = _fista_stage(
        plan, y, mu, X, step, config.positivity, config.max_iterations, config.tolerance)
    feas = operator_norm(adjoint_sampling_operator(plan, AX - y))
    return ReconstructionResult(DensityMatrix(hermitize(X)), tuple(history), feas,
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
    return ReconstructionResult(DensityMatrix(hermitize(X)), tuple(history), feas,
                                iterations, converged)


def mle(plan: MeasurementPlan, record: MeasurementRecord,
        config: SolverConfig = SolverConfig(tolerance=1e-7, max_iterations=2000)) -> ReconstructionResult:
    """Maximum-likelihood estimate for two-outcome Pauli data by accelerated projected gradient.

    Maximizes L(rho) = sum_i w_i^+ log p_i^+ + w_i^- log p_i^- over density
    matrices from the maximally mixed state, where p_i^± = (1 ± Tr(P_i rho))/2
    and w_i^± are the observed counts (frequencies for exact records).  Each
    step goes along the gradient at the momentum point and projects onto the
    density matrices; an Armijo test against the momentum point picks the
    step, which grows again after every accepted iterate.  The momentum
    restarts whenever the likelihood would drop, so the history of accepted
    iterates never decreases.

    Stops when lambda_max(R(rho))/N - 1 <= tolerance, where
    R(rho) = sum_i sum_{s=+,-} (w_i^s / p_i^s) Pi_i^s with Pi_i^± = (1 ± P_i)/2
    and N = sum_i (w_i^+ + w_i^-).  L is concave and Tr(rho R(rho)) = N, so
    the certificate bounds the log-likelihood gap to the maximum by
    tolerance * N; `converged` is True exactly when it holds.
    """
    _check_plan(plan)
    if record.m != plan.m:
        raise ValueError("record and plan lengths differ")
    d = plan.d
    f_plus = record.plus_frequencies()
    f_minus = 1.0 - f_plus
    weights = np.ones(plan.m) if record.exact else record.shots.astype(float)
    # outcomes never seen contribute neither to the likelihood nor to R
    w_plus = np.where(f_plus > 0, weights * f_plus, 0.0)
    w_minus = np.where(f_minus > 0, weights * f_minus, 0.0)
    total = float(np.sum(w_plus + w_minus))

    def probabilities(exps):
        return (np.maximum((1.0 + exps) / 2.0, PROB_FLOOR),
                np.maximum((1.0 - exps) / 2.0, PROB_FLOOR))

    def log_likelihood(exps):
        p_plus, p_minus = probabilities(exps)
        return float(w_plus @ np.log(p_plus) + w_minus @ np.log(p_minus))

    def r_operator(exps):
        """R's Pauli part, which is the gradient of L on the trace-one set, and its identity term."""
        p_plus, p_minus = probabilities(exps)
        ratio_plus = w_plus / p_plus
        ratio_minus = w_minus / p_minus
        return (plan.pauli_sum(0.5 * (ratio_plus - ratio_minus)),
                0.5 * float(np.sum(ratio_plus + ratio_minus)))

    def certificate(grad, ident):
        return (eig_reduce(grad, np.asarray, np.max) + ident) / total - 1.0

    def in_domain(exps):
        """Every outcome with weight keeps a probability above the floor."""
        return (np.all(1.0 + exps > 2.0 * PROB_FLOOR, where=w_plus > 0)
                and np.all(1.0 - exps > 2.0 * PROB_FLOOR, where=w_minus > 0))

    def ascend(V, ll_V, grad_V, step):
        """Projected step from V, halved until it passes the Armijo test against V."""
        for _ in range(MAX_BACKTRACKS):
            X_new = eig_apply(V + step * grad_V, project_simplex)
            AX_new = plan.expectations(X_new)
            ll_new = log_likelihood(AX_new)
            diff = X_new - V
            model = (ll_V + float(np.vdot(grad_V, diff).real)
                     - float(np.vdot(diff, diff).real) / (2.0 * step))
            if ll_new >= model:
                break
            step *= 0.5
        return X_new, AX_new, ll_new, step

    # the curvature of -L at the maximally mixed state is at most d times the
    # largest total weight on one Pauli word; the first step is its inverse
    _, word = np.unique([p.index for p in plan.paulis], return_inverse=True)
    step = 1.0 / (d * float(np.max(np.bincount(word.ravel(), w_plus + w_minus))))

    X = np.eye(d, dtype=complex) / d
    AX = plan.expectations(X)
    ll = log_likelihood(AX)
    grad, ident = r_operator(AX)
    history = [ll]
    converged = certificate(grad, ident) <= config.tolerance
    V, ll_V, grad_V = X, ll, grad
    theta = 1.0
    iterations = 0
    while not converged and iterations < config.max_iterations:
        iterations += 1
        X_new, AX_new, ll_new, step = ascend(V, ll_V, grad_V, step)
        if ll_new < ll and V is not X:
            # restart: drop the momentum and step from the accepted iterate
            theta = 1.0
            X_new, AX_new, ll_new, step = ascend(X, ll, grad, step)
        if ll_new < ll:
            break  # no ascent from the accepted iterate: L is flat to rounding
        X_prev, AX_prev = X, AX
        X, AX, ll = X_new, AX_new, ll_new
        grad, ident = r_operator(AX)
        history.append(ll)
        converged = certificate(grad, ident) <= config.tolerance
        step *= STEP_GROWTH
        theta_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta**2))
        beta = (theta - 1.0) / theta_new
        theta = theta_new
        V, ll_V, grad_V = X, ll, grad
        if beta > 0:
            AV = AX + beta * (AX - AX_prev)
            if in_domain(AV):
                V = X + beta * (X - X_prev)
                ll_V = log_likelihood(AV)
                grad_V, _ = r_operator(AV)
            else:
                theta = 1.0  # the momentum point leaves the likelihood's domain: restart
    feas = operator_norm(adjoint_sampling_operator(plan, plan.normalization * AX - record.y))
    return ReconstructionResult(DensityMatrix(hermitize(X)), tuple(history), feas, iterations, converged)


def renormalize(result: ReconstructionResult) -> ReconstructionResult:
    """Divide the estimate by its trace, which must be positive."""
    return replace(result, rho_hat=renormalized(result.rho_hat), renormalized=True)


def default_weight(estimator: str, plan: MeasurementPlan, t):
    """Default trace weight on t copies: 1e-6 when exact; the Lasso's default_mu
    (unnormalized units) times d/m, i.e. 4d/sqrt(t); the Dantzig default_lambda."""
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown solver {estimator!r}")
    if estimator == "mle":
        return None
    if t is EXACT:
        return 1e-6
    if estimator == "lasso":
        return default_mu(plan.m, t) * plan.d / plan.m
    return default_lambda(plan.d, t)


def run_estimator(estimator: str, plan: MeasurementPlan, record: MeasurementRecord,
                  weight: float = None, config: SolverConfig = None) -> ReconstructionResult:
    """Run the named estimator (config None: its own default); a Lasso or Dantzig
    estimate is renormalized unless fully shrunk to trace zero."""
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown solver {estimator!r}")
    settings = () if config is None else (config,)
    if estimator == "mle":
        return mle(plan, record, *settings)
    if weight is None:
        raise ValueError("lasso/dantzig need an explicit regularization weight")
    solve = matrix_lasso if estimator == "lasso" else dantzig_selector
    result = solve(plan, record.y, weight, *settings)
    return result if result.rho_hat.trace <= 0 else renormalize(result)
