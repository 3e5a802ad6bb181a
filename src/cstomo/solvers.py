"""Estimators for low-rank state reconstruction.

Three estimators share the sampling-operator machinery:

* matrix Lasso -- least squares with a trace penalty, solved by accelerated
  proximal gradient (FISTA with adaptive restart) down a continuation ladder;
  the proximal map is eigenvalue soft-thresholding clamped to the PSD cone;
  every stage stops on the KKT conditions of G = A*(A(X) - y) + mu I;
* matrix Dantzig selector -- trace minimization under an operator-norm bound
  on the correlated residual, solved by exact two-block ADMM on the split
  X = Y, Z = A*A(Y) - A*(y): the X and Z steps are one eigendecomposition
  of a stacked pair (the trace prox over the PSD cone, and the projection
  onto the operator-norm ball), and the Y step is one division on the Pauli
  grid, where A*A is diagonal; written as a fixed-point map and sped up by
  safeguarded type-II Anderson acceleration, it stops on a duality-gap
  certificate from the Dantzig dual;
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
  restart adds 1 A + 1 A*, and each continuation stage starts with 1 A; the
  KKT check after every iteration reads the complementarity in O(m) from the
  carried A(X), and only when that holds pays 1 A* and one eigvalsh for
  lambda_min(G);
* Dantzig: no A or A* inside the loop (1 A* for A*(y) before it); per map
  evaluation one eigh of a (2, d, d) stack, one forward `pauli_grid` and one
  `pauli_grid_adjoint` of a stack of two (B(Y) is carried with Y, and the
  Anderson extrapolation combines it with the same coefficients); every
  CHECK_EVERY maps a certificate of one forward and one adjoint transform of
  a stack of two and one eigvalsh of a stack of three;
* MLE: 1 A and one eigendecomposition per trial step (the projection, then
  the likelihood; an Armijo backtrack or a momentum restart adds a trial
  step), 1 A* for R at the accepted iterate with one eigvalsh for its
  certificate, and 1 A* for the gradient at the momentum point; 1 A* after
  the loop for the reported feasibility residual.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .measurement import (
    EXACT,
    MeasurementPlan,
    MeasurementRecord,
    adjoint_sampling_operator,
    apply_sampling_operator,
)
from .pauli import pauli_grid, pauli_grid_adjoint
from .states import DensityMatrix, eig_apply, eig_reduce, hermitize, project_simplex, renormalized

#: probability floor before divisions in the MLE iteration
PROB_FLOOR = 1e-12
#: MLE step: halvings allowed per Armijo search, and growth after an accepted iterate
MAX_BACKTRACKS = 60
STEP_GROWTH = 1.1
#: Dantzig ADMM: maps kept for Anderson extrapolation, and maps between certificates;
#: on criterion-5-style cells a memory of 24 took 6% fewer maps than 16, and 32 only 3% fewer than 24
ANDERSON_MEMORY = 24
CHECK_EVERY = 10
#: Dantzig ADMM: the fixed penalty; over 144 criterion-5-style cells rho = 4 took 8800 maps,
#: against 10050 / 10320 / 13980 at rho = 2 / 8 / 16, and 10460 / 10520 / 15480 for the
#: gain-scaled rho = 4 (d^2/m)^p at p = -1/2 / 1/2 / 1
RHO = 4.0
#: Lasso continuation: a warm-up stage at penalty mu stops at the KKT tolerance WARM_START_KKT mu
WARM_START_KKT = 0.01
#: FISTA restarts on an objective rise above this relative margin, not on rounding noise
RESTART_MARGIN = 4 * np.finfo(float).eps
#: the estimators `run_estimator` runs by name
ESTIMATORS = ("dantzig", "lasso", "mle")


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-9
    max_iterations: int = 5000

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
    if not plan.indices.any():
        raise ValueError("plan contains only identity Paulis; nothing to reconstruct")


def operator_norm(mat: np.ndarray) -> float:
    return eig_reduce(hermitize(mat), np.abs, np.max)


def sampling_lipschitz(plan: MeasurementPlan) -> float:
    """Spectral norm of A*A on Hermitian matrices, in closed form: the largest entry of
    `MeasurementPlan.gain`, (d^2/m) times the most times a word occurs in the plan."""
    return float(plan.gain.max())


def _prox_trace(mat: np.ndarray, thresh: float) -> np.ndarray:
    """Eigenvalue soft-thresholding clamped to the PSD cone: the prox of thresh Tr over X >= 0."""
    return eig_apply(hermitize(mat), lambda w: np.maximum(w - thresh, 0.0))


def _complementarity(X, AX, y, mu) -> float:
    """<X, G> for G = A*(A(X) - y) + mu I, as <A(X), A(X) - y> + mu Tr X: O(m) from A(X)."""
    return float(AX @ (AX - y)) + mu * float(np.trace(X).real)


def _fista_stage(plan, y, mu, X, step, max_iter, kkt_tol):
    """FISTA with adaptive restart from warm start X; returns (X, A(X), history, converged, iters).

    A is linear, so A(X) and A(V) are carried forward with the iterates
    instead of being recomputed for the objective and the gradient.  After
    every iteration the stage checks the KKT conditions at X of
    G = A*(A(X) - y) + mu I, and stops, converged, when |<X, G>| <= kkt_tol,
    read in O(m) from A(X), and then lambda_min(G) >= -kkt_tol, which costs
    1 A* and one eigvalsh.
    """

    def objective(mat, a_mat):
        resid = a_mat - y
        return 0.5 * float(resid @ resid) + mu * float(np.trace(mat).real)

    def prox_step(V, AV):
        grad = adjoint_sampling_operator(plan, AV - y)
        X_new = _prox_trace(V - step * grad, mu * step)
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
        if obj > history[-1] + RESTART_MARGIN * abs(history[-1]):
            # adaptive restart: drop momentum when the objective backtracks
            theta = 1.0
            X_new, AX_new, obj = prox_step(X, AX)
        theta_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta**2))
        beta = (theta - 1.0) / theta_new
        V = X_new + beta * (X_new - X)
        AV = AX_new + beta * (AX_new - AX)
        X, AX = X_new, AX_new
        theta = theta_new
        history.append(obj)
        if abs(_complementarity(X, AX, y, mu)) <= kkt_tol:
            G = adjoint_sampling_operator(plan, AX - y) + mu * np.eye(plan.d)
            if np.linalg.eigvalsh(G)[0] >= -kkt_tol:
                converged = True
                break
    return X, AX, history, converged, iterations


def matrix_lasso(plan: MeasurementPlan, y: np.ndarray, mu: float,
                 config: SolverConfig = SolverConfig()) -> ReconstructionResult:
    """Minimize (1/2)||A(X) - y||^2 + mu Tr(X) over X >= 0.

    Solved by accelerated proximal gradient.  For mu far below the data scale
    a cold start crawls, so a continuation schedule first solves with a large
    penalty and warm-starts down a geometric ladder to the requested mu; only
    the final stage decides convergence and the reported history and
    iterations.  Every stage checks its KKT conditions after every iteration.
    A warm-up stage at penalty mu' is only a warm start, so it stops once they
    hold to WARM_START_KKT mu'; the final stage stops once they hold to the
    configured tolerance, and `converged` means they do.
    """
    if not mu >= 0:
        raise ValueError(f"mu must be nonnegative, got {mu!r}")
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
        X, _, _, _, _ = _fista_stage(plan, y, stage_mu, X, step, min(400, config.max_iterations),
                                     WARM_START_KKT * stage_mu)
        stage_mu /= 4.0
    X, AX, history, converged, iterations = _fista_stage(
        plan, y, mu, X, step, config.max_iterations, config.tolerance)
    feas = operator_norm(adjoint_sampling_operator(plan, AX - y))
    return ReconstructionResult(DensityMatrix(hermitize(X)), tuple(history), feas,
                                iterations, converged)


def _gram(plan: MeasurementPlan, mats: np.ndarray) -> np.ndarray:
    """B = A*A on a stack of matrices: B is diagonal on the Pauli grid (`MeasurementPlan.gain`)."""
    grids = pauli_grid(mats).view(np.float64) * (plan.gain / plan.d)
    return pauli_grid_adjoint(grids.view(complex))


def _y_solver(plan: MeasurementPlan):
    """The Y step for this plan: the stack ab = (a, b) goes to the stack (Y, B(Y)),
    where Y solves (I + B^2) Y = a + B(b).

    On the grid B is the gain, so Y is one division there: one forward
    transform of (a, b) and one adjoint of (Y, B(Y)).
    """
    gain = plan.gain
    coef = np.stack((np.ones_like(gain), gain)) / (plan.d * (1.0 + gain * gain))

    def solve(ab):
        grid_a, grid_b = pauli_grid(ab).view(np.float64)
        return pauli_grid_adjoint((coef * (grid_a + gain * grid_b)).view(complex))

    return solve


def dantzig_selector(plan: MeasurementPlan, y: np.ndarray, lam: float,
                     config: SolverConfig = SolverConfig()) -> ReconstructionResult:
    """Minimize Tr(X) over X >= 0 subject to ||A*(A(X) - y)|| <= lam.

    Two-block ADMM (Boyd et al., Found. Trends Mach. Learn. 3, 1 (2011)) with
    penalty RHO on the split X = Y, Z = B(Y) - c, with B = A*A and c = A*(y),
    scaled duals U1 and U2, written as a fixed-point map on (Y, B(Y), U1, U2).
    One map takes X = prox(Y - U1), the trace prox with threshold 1/RHO over
    the PSD cone, and Z = P(B(Y) - c - U2), the projection onto the
    operator-norm ball of radius lam, both from one eigendecomposition of the
    stacked pair.  With a = X + U1 and b = Z + c + U2, the Y step solves
    (I + B^2) Y = a + B(b) in closed form (`_y_solver`), and U1 = a - Y,
    U2 = b - B(Y).  Type-II Anderson acceleration (Zhang, O'Donoghue, Boyd,
    SIAM J. Optim. 30, 3170 (2020)) combines the states of the last
    ANDERSON_MEMORY maps with coefficients fitted to the residuals of
    (a, b) = (Y + U1, B(Y) + U2), the variable of the equivalent
    Douglas-Rachford iteration.  An extrapolated point whose fixed-point
    residual exceeds the residual after the last plain (not extrapolated) map
    is dropped: the iteration goes on from the output of the map that
    preceded it, and the memory is cleared.  Every map evaluation counts as
    an iteration.

    Every CHECK_EVERY maps, and at the cap, the latest map's X (a prox
    output, hence PSD; it is the estimate returned) is certified.  The dual
    point W = -RHO U2 is shrunk into I + B(W) >= 0; its Dantzig dual value
    D(W) = -<W, c> - lam ||W||_tr (Candes and Plan, IEEE Trans. Inf. Theory
    57, 2342 (2011)) bounds the optimal trace from below.  `converged` is
    True exactly when ||B(X) - c|| <= lam (1 + tolerance) and the relative
    duality gap (Tr X - D(W)) / Tr X <= tolerance: X is feasible at radius
    lam (1 + tolerance), and its trace exceeds the optimum at radius lam by
    at most tolerance * Tr X.
    """
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam!r}")
    _check_plan(plan)
    y = np.asarray(y, dtype=float)
    d = plan.d

    c = adjoint_sampling_operator(plan, y)
    if operator_norm(c) <= lam:
        # X = 0 is feasible and has minimal trace
        zero = DensityMatrix(np.zeros((d, d), dtype=complex))
        return ReconstructionResult(zero, (0.0,), operator_norm(c), 0, True)

    y_step = _y_solver(plan)
    # the eigenvalue maps of the X and Z steps: shift by (1/RHO, 0), then clip to (lower, upper)
    lower = np.array([[0.0], [-lam]])
    upper = np.array([[np.inf], [lam]])
    history = [0.0]  # Tr X after every map evaluation, so that it counts them

    def step(point):
        """The map's output state and X at the state (Y, B(Y), U1, U2), and the
        fixed-point residual of (a, b)."""
        prox_in = point[:2] - point[2:]
        prox_in[1] -= c
        w, v = np.linalg.eigh(prox_in)
        w = np.minimum(np.maximum(w - [[1.0 / RHO], [0.0]], lower), upper)
        xz = (v * w[:, None, :]) @ v.conj().swapaxes(1, 2)
        ab = xz + point[2:]
        ab[1] += c
        history.append(float(w[0].sum()))
        res = (ab - point[:2] - point[2:]).view(np.float64).ravel()
        y_by = y_step(ab)
        return np.concatenate((y_by, ab - y_by)), res, xz[0]

    def certificate(X, U2):
        """The relative duality gap and ||B(X) - c|| at a map's X and output U2."""
        W = hermitize(-RHO * U2)
        BX, BW = _gram(plan, np.stack((X, W)))
        feas_ev, dual_ev, w_ev = np.linalg.eigvalsh(np.stack((BX - c, BW, W)))
        shrink = max(1.0, -dual_ev[0])
        dual = (-float(np.vdot(W, c).real) - lam * float(np.sum(np.abs(w_ev)))) / shrink
        trace = float(np.trace(X).real)
        gap = (trace - dual) / trace if trace > 0 else np.inf
        return gap, float(np.max(np.abs(feas_ev)))

    out, res, X = step(np.zeros((4, d, d), dtype=complex))
    plain = np.linalg.norm(res)  # the residual after the last plain map
    # differences of successive map outputs and of their residuals, and the residuals' Gram matrix
    d_out = np.zeros((ANDERSON_MEMORY,) + out.shape, dtype=complex)
    d_res = np.zeros((ANDERSON_MEMORY, res.size))
    gram = np.zeros((ANDERSON_MEMORY, ANDERSON_MEMORY))
    written = 0
    previous = None
    next_check = CHECK_EVERY
    converged = False
    while True:
        iterations = len(history) - 1
        if iterations >= min(next_check, config.max_iterations):
            gap, feas = certificate(X, out[3])
            converged = bool(gap <= config.tolerance and feas <= lam * (1.0 + config.tolerance))
            if converged or iterations >= config.max_iterations:
                break
            next_check = iterations + CHECK_EVERY
        if previous is not None:
            slot = written % ANDERSON_MEMORY
            d_out[slot] = out - previous[0]
            d_res[slot] = res - previous[1]
            written += 1
            k = min(written, ANDERSON_MEMORY)
            gram[slot, :k] = gram[:k, slot] = d_res[:k] @ d_res[slot]
        previous = out, res
        k = min(written, ANDERSON_MEMORY)
        scale = gram[:k, :k].trace()
        if scale > 0:
            gamma = np.linalg.solve(gram[:k, :k] + 1e-12 * scale * np.eye(k), d_res[:k] @ res)
            trial = step(out - (gamma @ d_out[:k].reshape(k, -1)).reshape(out.shape))
            if np.linalg.norm(trial[1]) <= plain:
                out, res, X = trial
                continue
            written = 0  # safeguard: fall back on the plain map's output
            if len(history) - 1 >= config.max_iterations:
                continue
        out, res, X = step(out)
        plain = np.linalg.norm(res)
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
    _, word = np.unique(plan.indices, return_inverse=True)
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
