"""Estimators for low-rank state reconstruction.

Three estimators share the sampling-operator machinery:

* matrix Lasso -- least squares with a trace penalty down a continuation
  ladder; the projection is eigenvalue soft-thresholding clamped to the PSD
  cone, and every stage stops on the KKT conditions of G = A*(A(X) - y) + mu I;
* matrix Dantzig selector -- trace minimization under an operator-norm bound
  on the correlated residual, solved by exact two-block ADMM on the split
  X = Y, Z = A*A(Y) - A*(y): the X and Z steps are one eigendecomposition
  of a stacked pair (the trace prox over the PSD cone, and the projection
  onto the operator-norm ball), and the Y step is one division on the Pauli
  grid, where A*A is diagonal; written as a fixed-point map and sped up by
  safeguarded type-II Anderson acceleration, it stops on a duality-gap
  certificate from the Dantzig dual;
* MLE -- the two-outcome Pauli likelihood maximized over density matrices
  (Shang, Zhang, Ng, PRA 95, 062336 (2017)) from the maximally mixed state;
  the projection maps the eigenvalues onto the simplex, and it stops on the
  optimality certificate lambda_max(R(rho))/N - 1 <= tolerance.

The Lasso (at the fixed step 1/L) and the MLE (by an Armijo search) run on
one accelerated projected-gradient loop, `_accelerated`.  Accuracy is guarded
by the certificates reported in the result.  `run_estimator` runs one by
name, with the weight `default_weight` picks.

Operator budget, in forward maps A (one `expectations`) and adjoints A* (one
`pauli_sum`), besides the eigendecompositions:

* the shared loop: 1 A and one eigendecomposition per trial step (an Armijo
  backtrack or a momentum restart adds one); 1 A* for the gradient at a
  momentum point, and none for a step from X once its certificate paid it;
  per certificate (at the start and after every accepted iterate) 1 A* and
  one eigvalsh for the MLE, and for the Lasso an O(m) complementarity test
  from the carried A(X) that pays them only when it passes; 1 A at each
  start, and 1 A* after the loop for the reported residual;
* Dantzig: no A or A* inside the loop (1 A* for A*(y) before it); per map
  evaluation one eigh of a (2, d, d) stack, one forward `pauli_grid` and one
  `pauli_grid_adjoint` of a stack of two (B(Y) is carried with Y, and the
  Anderson extrapolation combines it with the same coefficients); every
  CHECK_EVERY maps a certificate of one forward and one adjoint transform of
  a stack of two and one eigvalsh of a stack of three.
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
#: the Lasso restarts on an objective rise above this relative margin, not on rounding noise
RESTART_MARGIN = 4 * np.finfo(float).eps
#: the estimators `run_estimator` runs by name
ESTIMATORS = ("dantzig", "lasso", "mle")


def _count(field: str, value) -> int:
    """`value` as an int if it is a whole number >= 1 (8 or 8.0); else a ValueError naming `field`."""
    if isinstance(value, bool) or not np.isfinite(value) or value != int(value) or value < 1:
        raise ValueError(f"{field} must be a whole number >= 1, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-9
    max_iterations: int = 5000

    def __post_init__(self):
        # NaN fails every comparison, so this also rejects it
        if not 0 < self.tolerance < np.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance!r}")
        object.__setattr__(self, "max_iterations", _count("max_iterations", self.max_iterations))


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


def _check_data(plan: MeasurementPlan, y) -> np.ndarray:
    """y as a float vector; a plan of identity words only raises, and so does a y
    that is not one finite value per word (NaN would reach the eigensolver)."""
    if not plan.indices.any():
        raise ValueError("plan contains only identity Paulis; nothing to reconstruct")
    y = np.asarray(y, dtype=float)
    if y.shape != (plan.m,) or not np.all(np.isfinite(y)):
        raise ValueError(f"y must hold {plan.m} finite values, got shape {y.shape} with "
                         f"{np.count_nonzero(~np.isfinite(y))} not finite")
    return y


def operator_norm(mat: np.ndarray) -> float:
    return eig_reduce(hermitize(mat), np.abs, np.max)


def sampling_lipschitz(plan: MeasurementPlan) -> float:
    """Spectral norm of A*A on Hermitian matrices, in closed form: the largest entry of
    `MeasurementPlan.gain`, (d^2/m) times the most times a word occurs in the plan."""
    return float(plan.gain.max())


def _prox_trace(mat: np.ndarray, thresh: float) -> np.ndarray:
    """Eigenvalue soft-thresholding clamped to the PSD cone: the prox of thresh Tr over X >= 0."""
    return eig_apply(hermitize(mat), lambda w: np.maximum(w - thresh, 0.0))


def _accelerated(X, forward, objective, gradient, project, step, certify, max_iter, margin,
                 growth=None, admissible=None):
    """Minimize objective(X, A(X)) by projected gradient steps with momentum and
    adaptive restart (Beck, Teboulle, SIAM J. Imaging Sci. 2, 183 (2009);
    O'Donoghue, Candes, Found. Comput. Math. 15, 715 (2015)) from X.

    A step from V is project(V - step gradient(V, A(V)), step); A is linear,
    so A(X) and A(V) are carried with the iterates.  A step from the momentum
    point whose objective rises more than margin |f(X)| above f(X) is retaken
    from X without momentum, and a rise from X ends the loop.  With `growth`,
    each step is halved until the quadratic model at V bounds its objective,
    and grows by `growth` after every accepted iterate; without, it is fixed.
    A momentum point whose A(V) fails `admissible` is not taken.  certify(X,
    A(X)) returns (holds, the gradient at X or None if it did not compute it)
    at the start and after every accepted iterate; the loop stops once it
    holds, and a step from X reuses that gradient.
    Returns (X, A(X), objective history, converged, iterations).
    """

    def descend(V, AV, grad, step):
        grad = gradient(V, AV) if grad is None else grad
        f_V = objective(V, AV) if growth else None
        for _ in range(MAX_BACKTRACKS):
            X_new = project(V - step * grad, step)
            AX_new = forward(X_new)
            f_new = objective(X_new, AX_new)
            if not growth or f_new <= (f_V + float(np.vdot(grad, diff := X_new - V).real)
                                       + float(np.vdot(diff, diff).real) / (2.0 * step)):
                break
            step *= 0.5
        return X_new, AX_new, f_new, step

    AX = forward(X)
    history = [objective(X, AX)]
    converged, grad = certify(X, AX)
    V, AV, grad_V = X, AX, grad
    theta = 1.0
    iterations = 0
    while not converged and iterations < max_iter:
        iterations += 1
        X_new, AX_new, f_new, step = descend(V, AV, grad_V, step)
        ceiling = history[-1] + margin * abs(history[-1])
        if f_new > ceiling and V is not X:
            theta = 1.0
            X_new, AX_new, f_new, step = descend(X, AX, grad, step)
        if f_new > ceiling:
            break  # no descent from X either: the objective is flat to rounding
        history.append(f_new)
        converged, grad = certify(X_new, AX_new)
        if growth:
            step *= growth
        theta_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta**2))
        beta = (theta - 1.0) / theta_new
        theta = theta_new
        V, AV, grad_V = X_new, AX_new, grad
        AV_momentum = AX_new + beta * (AX_new - AX)
        if beta > 0 and (admissible is None or admissible(AV_momentum)):
            V, AV, grad_V = X_new + beta * (X_new - X), AV_momentum, None
        elif beta > 0:
            theta = 1.0  # an inadmissible momentum point restarts the momentum
        X, AX = X_new, AX_new
    return X, AX, history, converged, iterations


def _lasso_stage(plan, y, mu, X, step, max_iter, kkt_tol):
    """One Lasso stage at penalty mu from X on `_accelerated` at the fixed step 1/L.

    It stops on the KKT conditions of G = A*(A(X) - y) + mu I:
    |<X, G>| <= kkt_tol, read in O(m) as <A(X), A(X) - y> + mu Tr X, and
    only then lambda_min(G) >= -kkt_tol, which costs 1 A* and one eigvalsh.
    """

    def objective(mat, a_mat):
        resid = a_mat - y
        return 0.5 * float(resid @ resid) + mu * float(np.trace(mat).real)

    def gradient(mat, a_mat):
        return adjoint_sampling_operator(plan, a_mat - y)

    def certify(mat, a_mat):
        if not abs(float(a_mat @ (a_mat - y)) + mu * float(np.trace(mat).real)) <= kkt_tol:
            return False, None
        grad = gradient(mat, a_mat)
        return bool(np.linalg.eigvalsh(grad + mu * np.eye(plan.d))[0] >= -kkt_tol), grad

    return _accelerated(X, lambda mat: apply_sampling_operator(plan, mat), objective, gradient,
                        lambda mat, s: _prox_trace(mat, mu * s), step, certify, max_iter,
                        RESTART_MARGIN)


def matrix_lasso(plan: MeasurementPlan, y: np.ndarray, mu: float,
                 config: SolverConfig = SolverConfig()) -> ReconstructionResult:
    """Minimize (1/2)||A(X) - y||^2 + mu Tr(X) over X >= 0.

    For mu far below the data scale a cold start crawls, so a continuation
    schedule first solves with a large penalty and warm-starts down a
    geometric ladder to the requested mu; only the final stage decides
    convergence and the reported history and iterations.  A warm-up stage at
    penalty mu' is only a warm start, so it stops once its KKT conditions
    hold to WARM_START_KKT mu'; the final stage stops once they hold to the
    configured tolerance, and `converged` means they do.
    """
    if not mu >= 0:
        raise ValueError(f"mu must be nonnegative, got {mu!r}")
    y = _check_data(plan, y)
    step = 1.0 / sampling_lipschitz(plan)
    data_scale = operator_norm(adjoint_sampling_operator(plan, y))
    X = np.zeros((plan.d, plan.d), dtype=complex)
    stage_mu = 0.2 * data_scale
    ladder_floor = max(mu, 1e-9 * data_scale)
    while stage_mu > 4.0 * ladder_floor:
        X = _lasso_stage(plan, y, stage_mu, X, step, min(400, config.max_iterations),
                         WARM_START_KKT * stage_mu)[0]
        stage_mu /= 4.0
    X, AX, history, converged, iterations = _lasso_stage(
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
    y = _check_data(plan, y)
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
    and w_i^± are the observed counts (frequencies for exact records), by
    `_accelerated` on -L with an Armijo step that grows by STEP_GROWTH after
    every accepted iterate.  The margin is 0: the momentum restarts whenever the
    likelihood would drop, so the history never decreases.  A momentum point
    outside the likelihood's domain is not taken.

    Stops when lambda_max(R(rho))/N - 1 <= tolerance, where
    R(rho) = sum_i sum_{s=+,-} (w_i^s / p_i^s) Pi_i^s with Pi_i^± = (1 ± P_i)/2
    and N = sum_i (w_i^+ + w_i^-).  L is concave and Tr(rho R(rho)) = N, so
    the certificate bounds the log-likelihood gap to the maximum by
    tolerance * N; `converged` is True exactly when it holds.
    """
    _check_data(plan, record.y)
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

    def certify(mat, exps):
        """The certificate at rho, and the gradient of -L there."""
        grad, ident = r_operator(exps)
        return (eig_reduce(grad, np.asarray, np.max) + ident) / total - 1.0 <= config.tolerance, -grad

    def in_domain(exps):
        """Every outcome with weight keeps a probability above the floor."""
        return (np.all(1.0 + exps > 2.0 * PROB_FLOOR, where=w_plus > 0)
                and np.all(1.0 - exps > 2.0 * PROB_FLOOR, where=w_minus > 0))

    # the curvature of -L at the maximally mixed state is at most d times the
    # largest total weight on one Pauli word; the first step is its inverse
    _, word = np.unique(plan.indices, return_inverse=True)
    step = 1.0 / (plan.d * float(np.max(np.bincount(word.ravel(), w_plus + w_minus))))
    X, AX, history, converged, iterations = _accelerated(
        np.eye(plan.d, dtype=complex) / plan.d, plan.expectations, lambda mat, exps: -log_likelihood(exps),
        lambda mat, exps: -r_operator(exps)[0], lambda mat, s: eig_apply(mat, project_simplex),
        step, certify, config.max_iterations, 0.0, STEP_GROWTH, in_domain)
    feas = operator_norm(adjoint_sampling_operator(plan, plan.normalization * AX - record.y))
    return ReconstructionResult(DensityMatrix(hermitize(X)), tuple(-f for f in history), feas,
                                iterations, bool(converged))


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
