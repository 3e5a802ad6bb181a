import itertools
import re

import numpy as np
import pytest

from conftest import solve_sweep_cells

from cstomo import solvers
from cstomo.experiment import BENCH_SOLVER, ExperimentConfig
from cstomo.measurement import (
    EXACT,
    MeasurementPlan,
    adjoint_sampling_operator,
    apply_sampling_operator,
    simulate_measurements,
)
from cstomo.pauli import SINGLE_QUBIT_MATRICES, PauliString, all_paulis, pauli_matrix, sample_paulis
from cstomo.solvers import (
    CHECK_EVERY,
    PROB_FLOOR,
    SolverConfig,
    _lasso_stage,
    _prox_trace,
    dantzig_selector,
    default_lambda,
    default_mu,
    default_weight,
    matrix_lasso,
    mle,
    operator_norm,
    renormalize,
    run_estimator,
    sampling_lipschitz,
)
from cstomo.states import (
    DensityMatrix,
    depolarize_local,
    eig_apply,
    fidelity,
    haar_random_pure,
    random_rank_r_projection,
    trace_distance,
)
from cstomo.states import hermitize as _hermitize


def noisy_instance(seed, n=2, m=10, t=4000):
    rng = np.random.default_rng(seed)
    truth = haar_random_pure(n, rng)
    plan = MeasurementPlan(tuple(sample_paulis(n, m, rng=rng)))
    record = simulate_measurements(plan, truth, t, rng)
    return truth, plan, record


def plan_matrices(plan):
    return [pauli_matrix(p) for p in plan.paulis]


def test_default_weights():
    assert default_lambda(16, 400) == pytest.approx(3 * 16 / 20)
    assert default_mu(96, 10000) == pytest.approx(4 * 96 / 100)
    with pytest.raises(ValueError):
        default_lambda(4, 0)


@pytest.mark.parametrize("estimator", ["dantzig", "lasso", "mle"])
def test_default_weight_rule(estimator):
    _, plan, _ = noisy_instance(0, n=3, m=40)
    t = 4000
    sampled = {"dantzig": 3 * plan.d / np.sqrt(t), "lasso": 4 * plan.d / np.sqrt(t)}
    if estimator == "mle":
        assert default_weight(estimator, plan, EXACT) is None
        assert default_weight(estimator, plan, t) is None
    else:
        assert default_weight(estimator, plan, EXACT) == 1e-6
        assert default_weight(estimator, plan, t) == pytest.approx(sampled[estimator])
    with pytest.raises(ValueError, match="unknown solver"):
        default_weight("sdp", plan, t)


def test_run_estimator_dispatch():
    _, plan, record = noisy_instance(5)
    for name in ("dantzig", "lasso"):
        result = run_estimator(name, plan, record, default_weight(name, plan, 4000))
        assert result.renormalized and result.rho_hat.trace == pytest.approx(1.0)
    # a fully shrunk estimate passes through unrenormalized
    big = 100 * operator_norm(adjoint_sampling_operator(plan, record.y))
    zero = run_estimator("dantzig", plan, record, big)
    assert zero.rho_hat.trace == 0.0 and not zero.renormalized
    mle_default = run_estimator("mle", plan, record)
    assert np.array_equal(mle_default.rho_hat.mat, mle(plan, record).rho_hat.mat)
    config = SolverConfig(tolerance=1e-6, max_iterations=50)
    assert run_estimator("mle", plan, record, None, config).iterations_used == \
        mle(plan, record, config).iterations_used
    with pytest.raises(ValueError, match="regularization"):
        run_estimator("lasso", plan, record)
    with pytest.raises(ValueError, match="unknown solver"):
        run_estimator("sdp", plan, record, 1.0)


def test_lasso_matches_convex_reference():
    """Interior-point reference for the same objective at d=4."""
    cvxpy = pytest.importorskip("cvxpy")
    truth, plan, record = noisy_instance(0)
    mu = 0.3
    result = matrix_lasso(plan, record.y, mu)

    x = cvxpy.Variable((4, 4), hermitian=True)
    norm = plan.normalization
    ax = cvxpy.hstack([norm * cvxpy.real(cvxpy.trace(p @ x)) for p in plan_matrices(plan)])
    objective = 0.5 * cvxpy.sum_squares(ax - record.y) + mu * cvxpy.real(cvxpy.trace(x))
    prob = cvxpy.Problem(cvxpy.Minimize(objective), [x >> 0])
    prob.solve()

    ours = result.objective_history[-1]
    assert ours <= prob.value + 1e-3
    assert abs(ours - prob.value) <= 1e-3
    assert np.linalg.norm(result.rho_hat.mat - x.value) < 0.05


def test_lasso_meets_dense_kkt_certificate():
    """Offline counterpart of the cvxpy reference: on the same d = 4 instance the
    Lasso estimate meets the KKT conditions, G built from Kronecker-product Paulis."""
    _, plan, record = noisy_instance(0)
    mu = 0.3
    tol = SolverConfig().tolerance
    result = matrix_lasso(plan, record.y, mu)
    assert result.converged and result.rho_hat.trace > 0
    lowest, slack = dense_lasso_kkt(plan, record.y, result.rho_hat.mat, mu)
    assert lowest >= -tol and abs(slack) <= tol


def test_dantzig_matches_convex_reference():
    cvxpy = pytest.importorskip("cvxpy")
    truth, plan, record = noisy_instance(1)
    lam = 0.4
    result = dantzig_selector(plan, record.y, lam)

    x = cvxpy.Variable((4, 4), hermitian=True)
    norm = plan.normalization
    mats = plan_matrices(plan)
    ax = cvxpy.hstack([norm * cvxpy.real(cvxpy.trace(p @ x)) for p in mats])
    resid = sum((norm * (ax[i] - record.y[i])) * mats[i] for i in range(plan.m))
    prob = cvxpy.Problem(
        cvxpy.Minimize(cvxpy.real(cvxpy.trace(x))),
        [x >> 0, resid << lam * np.eye(4), resid >> -lam * np.eye(4)])
    prob.solve()

    ours = float(np.trace(result.rho_hat.mat).real)
    assert result.feasibility_residual <= lam * (1 + 1e-4)
    assert abs(ours - prob.value) <= 1e-3


def test_lasso_exact_recovery_complete_set():
    rng = np.random.default_rng(2)
    truth = haar_random_pure(2, rng)
    plan = MeasurementPlan(tuple(all_paulis(2)))
    record = simulate_measurements(plan, truth, EXACT)
    result = matrix_lasso(plan, record.y, 1e-6)
    assert trace_distance(result.rho_hat, truth) < 1e-4
    assert result.rho_hat.is_psd()


def test_dantzig_returns_zero_when_feasible_at_origin():
    _, plan, record = noisy_instance(3)
    big = operator_norm(np.eye(4)) * 100
    result = dantzig_selector(plan, record.y, big)
    assert np.allclose(result.rho_hat.mat, 0)
    assert result.converged and result.iterations_used == 0


def test_degenerate_plans_rejected():
    identity_plan = MeasurementPlan((PauliString.from_label("II"),))
    with pytest.raises(ValueError, match="identity"):
        matrix_lasso(identity_plan, np.array([1.0]), 0.1)
    with pytest.raises(ValueError):
        matrix_lasso(identity_plan, np.array([1.0]), -0.1)
    # weights outside the contract name the value, NaN included
    _, plan, record = noisy_instance(0)
    for lam in (0.0, np.float64(0.0), -0.1, np.nan):
        with pytest.raises(ValueError, match=re.escape(f"lambda must be positive, got {lam!r}")):
            dantzig_selector(plan, record.y, lam)
    for mu in (-0.1, np.nan):
        with pytest.raises(ValueError, match=re.escape(f"mu must be nonnegative, got {mu!r}")):
            matrix_lasso(plan, record.y, mu)
    # non-finite data raise before they reach the eigensolver, and so does data of
    # another length, the record of another plan included
    for y in (np.where(np.arange(10) == 3, np.nan, record.y), np.full(10, np.inf), record.y[:9]):
        with pytest.raises(ValueError, match="y must hold 10 finite values"):
            matrix_lasso(plan, y, 0.1)
        with pytest.raises(ValueError, match="y must hold 10 finite values"):
            dantzig_selector(plan, y, 0.1)
    _, _, other = noisy_instance(0, m=12)
    with pytest.raises(ValueError, match="y must hold 10 finite values"):
        mle(plan, other)


def test_mle_log_likelihood_monotone():
    for seed in range(10):
        _, plan, record = noisy_instance(seed, m=16, t=8000)
        result = mle(plan, record)
        diffs = np.diff(result.objective_history)
        assert np.all(diffs >= -1e-9)
        assert result.rho_hat.trace == pytest.approx(1.0, abs=1e-9)


def test_mle_exact_mode():
    rng = np.random.default_rng(4)
    truth = haar_random_pure(2, rng)
    plan = MeasurementPlan(tuple(all_paulis(2)))
    record = simulate_measurements(plan, truth, EXACT)
    result = mle(plan, record)
    assert trace_distance(result.rho_hat, truth) < 1e-3


def test_renormalize():
    sub = DensityMatrix(np.diag([0.4, 0.4, 0, 0]).astype(complex))
    _, plan, record = noisy_instance(5)
    from cstomo.solvers import ReconstructionResult
    res = ReconstructionResult(sub, (0.0,), 0.0, 1, True)
    out = renormalize(res)
    assert out.rho_hat.trace == pytest.approx(1.0)
    assert out.renormalized
    over = ReconstructionResult(DensityMatrix(np.diag([0.8, 0.4, 0, 0]).astype(complex)),
                                (0.0,), 0.0, 1, True)
    out = renormalize(over)
    assert out.rho_hat.trace == pytest.approx(1.0)
    assert out.renormalized
    zero = ReconstructionResult(DensityMatrix(np.zeros((4, 4))), (0.0,), 0.0, 1, True)
    with pytest.raises(ValueError):
        renormalize(zero)


def test_renormalized_lasso_estimates_are_states():
    # at this noise level the Lasso trace exceeds 1 on every draw (up to 2.4)
    for seed in range(40):
        truth, plan, record = noisy_instance(seed, n=3, m=40, t=400)
        result = matrix_lasso(plan, record.y, 1e-4)
        assert result.rho_hat.trace > 1.0
        out = renormalize(result)
        assert out.rho_hat.trace == pytest.approx(1.0, abs=1e-12)
        assert fidelity(out.rho_hat, truth) <= 1.0


def dense_paulis(plan):
    """The plan's Pauli matrices as Kronecker products of single-qubit matrices."""
    mats = []
    for p in plan.paulis:
        mat = np.array([[1.0]], dtype=complex)
        for c in p.codes:
            mat = np.kron(mat, SINGLE_QUBIT_MATRICES[c])
        mats.append(mat)
    return mats


def dense_gram_lambda_max(plan):
    """Largest eigenvalue of A*A from Kronecker-product Pauli matrices."""
    vecs = np.array([mat.reshape(-1) for mat in dense_paulis(plan)])
    gram = (plan.d / plan.m) * vecs.T @ vecs.conj()
    return float(np.linalg.eigvalsh(gram)[-1])


def test_sampling_lipschitz_is_the_gram_norm():
    rng = np.random.default_rng(8)
    for n in (2, 3):
        plans = [MeasurementPlan(tuple(all_paulis(n)))]
        for m in (5, 12, 4**n + 3):
            plans.append(MeasurementPlan(tuple(sample_paulis(n, m, rng=rng))))
        assert any(len({p.index for p in plan.paulis}) < plan.m for plan in plans)
        for plan in plans:
            assert sampling_lipschitz(plan) == pytest.approx(
                dense_gram_lambda_max(plan), rel=1e-12)


def test_solver_config_validation():
    """A NaN tolerance would run every solve to its cap; a fractional or boolean cap
    is not an iteration count.  A whole-valued float cap is read as its int."""
    for field, value in (("tolerance", 0.0), ("tolerance", -1e-9), ("tolerance", np.nan),
                         ("tolerance", np.inf), ("max_iterations", 0), ("max_iterations", 2.5),
                         ("max_iterations", True), ("max_iterations", np.nan)):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})
    assert SolverConfig(max_iterations=2000.0).max_iterations == 2000


def test_noise_level_sets_error_scale():
    # the estimate error tracks 1/sqrt(t) on a fixed instance layout
    errs = []
    for t in (10**3, 10**5):
        rng = np.random.default_rng(6)
        truth = haar_random_pure(3, rng)
        plan = MeasurementPlan(tuple(all_paulis(3)))
        record = simulate_measurements(plan, truth, t, rng)
        res = renormalize(matrix_lasso(plan, record.y, 8 / np.sqrt(t)))
        errs.append(trace_distance(res.rho_hat, truth))
    assert errs[1] < errs[0] / 3


# --- reference loops ----------------------------------------------------------
# The loops below are the straightforward forms the solvers replace.  FISTA
# recomputing A(X) for every objective and gradient: the Lasso stage must follow
# the same iterates, with equal iteration counts and estimates within
# REFERENCE_TOL in Frobenius norm (only the order of floating-point sums
# differs).  The R*rho*R fixed point: the MLE must reach at least its likelihood.
# Plain linearized ADMM at 3 A + 3 A* per iteration: run long, the Dantzig
# selector must reach its trace.

REFERENCE_TOL = 1e-9


def reference_fista_stage(plan, y, mu, X, step, max_iter, tol):
    def objective(mat):
        resid = apply_sampling_operator(plan, mat) - y
        return 0.5 * float(resid @ resid) + mu * float(np.trace(mat).real)

    V = X
    theta = 1.0
    history = [objective(X)]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        grad = adjoint_sampling_operator(plan, apply_sampling_operator(plan, V) - y)
        X_new = _prox_trace(V - step * grad, mu * step)
        obj = objective(X_new)
        if obj > history[-1]:
            theta = 1.0
            V = X
            grad = adjoint_sampling_operator(plan, apply_sampling_operator(plan, V) - y)
            X_new = _prox_trace(V - step * grad, mu * step)
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


def reference_mle(plan, record, config):
    d = plan.d
    f_plus = record.plus_frequencies()
    f_minus = 1.0 - f_plus
    weights = np.ones(plan.m) if record.exact else record.shots.astype(float)
    rho = np.eye(d, dtype=complex) / d
    history = []
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        exps = plan.expectations(rho)
        p_plus = np.maximum((1.0 + exps) / 2.0, PROB_FLOOR)
        p_minus = np.maximum((1.0 - exps) / 2.0, PROB_FLOOR)
        terms = np.where(f_plus > 0, f_plus * np.log(p_plus), 0.0)
        terms = terms + np.where(f_minus > 0, f_minus * np.log(p_minus), 0.0)
        ll = float(np.sum(weights * terms))
        history.append(ll)
        if len(history) > 1 and ll - history[-2] < config.tolerance * max(1.0, abs(ll)):
            break
        ratio_plus = np.where(f_plus > 0, weights * f_plus / p_plus, 0.0)
        ratio_minus = np.where(f_minus > 0, weights * f_minus / p_minus, 0.0)
        ident_coeff = 0.5 * np.sum(ratio_plus + ratio_minus)
        pauli_coeff = 0.5 * (ratio_plus - ratio_minus)
        r_op = ident_coeff * np.eye(d) + plan.pauli_sum(pauli_coeff)
        rho = _hermitize(r_op @ rho @ r_op)
        rho /= np.trace(rho).real
    return rho, history, iterations


def reference_dantzig(plan, y, lam, config):
    """Linearized ADMM on Z = B(X) - c with residual balancing every 20 iterations;
    stops when the primal residual and the step are both below tolerance."""
    d = plan.d

    def B(mat):
        return adjoint_sampling_operator(plan, apply_sampling_operator(plan, mat))

    def project_ball(mat):
        return eig_apply(_hermitize(mat), lambda w: np.clip(w, -lam, lam))

    c = adjoint_sampling_operator(plan, y)
    L = sampling_lipschitz(plan)
    rho = 1.0
    eta = 0.9 / (rho * L * L)
    X = np.zeros((d, d), dtype=complex)
    BX = np.zeros((d, d), dtype=complex)
    Z = project_ball(-c)
    U = np.zeros((d, d), dtype=complex)
    scale = max(1.0, np.linalg.norm(c))
    for iterations in range(1, config.max_iterations + 1):
        X_prev = X
        X = _prox_trace(X - eta * rho * B(BX - c - Z + U), eta)
        BX = B(X)
        Z_prev = Z
        Z = project_ball(BX - c + U)
        U = U + BX - c - Z
        primal = np.linalg.norm(BX - c - Z)
        dual = rho * np.linalg.norm(B(Z - Z_prev))
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
            break
    return X


def fista_instance(seed):
    truth, plan, record = noisy_instance(seed, n=3, m=40, t=4000)
    return plan, record.y, 1.0 / sampling_lipschitz(plan)


#: the sweep's stopping tolerance; at tighter KKT tolerances (about 1e-9 here) the
#: stage runs on to where the objective changes less than its rounding, where the
#: reference's restart test `obj > previous` is decided by rounding noise while the
#: stage's ignores rises within RESTART_MARGIN, so the two loops may restart on
#: different steps
FISTA_TOL = 1e-7


def test_fista_stage_follows_reference_iterates():
    plan, y, step = fista_instance(20)
    starts = [np.zeros((8, 8), dtype=complex), np.eye(8, dtype=complex) / 8]
    for mu, X0 in zip((0.05, 0.5), starts):
        X, AX, history, converged, iters = _lasso_stage(plan, y, mu, X0, step, 3000, FISTA_TOL)
        assert converged and iters > 10
        # a zero step tolerance never stops the reference: it runs the stage's iterations
        X_ref, history_ref, _, iters_ref = reference_fista_stage(
            plan, y, mu, X0, step, iters, 0.0)
        assert iters == iters_ref
        assert np.linalg.norm(X - X_ref) <= REFERENCE_TOL
        assert np.allclose(history, history_ref, rtol=1e-12, atol=1e-12)
        assert np.linalg.norm(AX - apply_sampling_operator(plan, X)) <= REFERENCE_TOL
        lowest, slack = dense_lasso_kkt(plan, y, X, mu)
        assert lowest >= -FISTA_TOL and abs(slack) <= FISTA_TOL


def boundary_record():
    """Counts on |01>: ZI always reads +1, IZ and ZZ never do, the rest are coin flips."""
    truth = DensityMatrix(np.diag([0, 1, 0, 0]).astype(complex))
    words = ("ZI", "IZ", "ZZ", "XX", "XY", "YZ", "ZI", "IY", "XI", "YY")
    plan = MeasurementPlan(tuple(PauliString.from_label(w) for w in words))
    record = simulate_measurements(plan, truth, 200 * plan.m, np.random.default_rng(21))
    return plan, record


def mle_cases():
    """Complete exact data, the |01> boundary record, and a noisy compressed record."""
    rng = np.random.default_rng(22)
    truth = haar_random_pure(2, rng)
    complete = MeasurementPlan(tuple(all_paulis(2)))
    cases = [(complete, simulate_measurements(complete, truth, EXACT)), boundary_record()]
    _, record = cases[1]
    assert np.any(record.plus_counts == 0) and np.any(record.plus_counts == record.shots)
    cases.append(noisy_instance(23, m=16, t=8000)[1:])
    return cases


def mle_weights(record):
    """(w+, w-): the counts (frequencies when exact) of outcomes that occurred."""
    f_plus = record.plus_frequencies()
    f_minus = 1.0 - f_plus
    weights = np.ones(record.m) if record.exact else record.shots.astype(float)
    return (np.where(f_plus > 0, weights * f_plus, 0.0),
            np.where(f_minus > 0, weights * f_minus, 0.0))


def dense_probabilities(plan, rho):
    exps = np.array([np.trace(p @ rho).real for p in dense_paulis(plan)])
    return np.maximum((1 + exps) / 2, PROB_FLOOR), np.maximum((1 - exps) / 2, PROB_FLOOR)


def dense_log_likelihood(plan, record, rho):
    w_plus, w_minus = mle_weights(record)
    p_plus, p_minus = dense_probabilities(plan, rho)
    return float(w_plus @ np.log(p_plus) + w_minus @ np.log(p_minus))


def dense_certificate(plan, record, rho):
    """lambda_max(R(rho))/N - 1 with R = sum_i (w_i+/p_i+) (1 + P_i)/2 + (w_i-/p_i-) (1 - P_i)/2."""
    w_plus, w_minus = mle_weights(record)
    p_plus, p_minus = dense_probabilities(plan, rho)
    eye = np.eye(plan.d)
    r_op = sum(a * (eye + p) / 2 + b * (eye - p) / 2
               for a, b, p in zip(w_plus / p_plus, w_minus / p_minus, dense_paulis(plan)))
    return float(np.linalg.eigvalsh(r_op)[-1]) / float(np.sum(w_plus + w_minus)) - 1.0


#: a certificate tolerance whose likelihood gap bound, tol * N, lies below 1e-9 |L| here
MLE_TOL = 1e-10


def test_mle_reaches_reference_likelihood():
    config = SolverConfig(tolerance=MLE_TOL, max_iterations=2000)
    for plan, record in mle_cases():
        result = mle(plan, record, config)
        rho_ref, _, _ = reference_mle(plan, record, config)
        ll = dense_log_likelihood(plan, record, result.rho_hat.mat)
        ll_ref = dense_log_likelihood(plan, record, rho_ref)
        assert ll >= ll_ref - 1e-9 * abs(ll_ref)
        assert result.objective_history[-1] == pytest.approx(ll, rel=1e-12)
        assert result.converged
        assert result.rho_hat.is_psd() and result.rho_hat.trace == pytest.approx(1.0, abs=1e-12)


def test_mle_converged_means_certificate_below_tolerance():
    for tol in (1e-7, MLE_TOL, 1e-13):
        for plan, record in mle_cases():
            result = mle(plan, record, SolverConfig(tolerance=tol, max_iterations=2000))
            assert result.converged == (dense_certificate(plan, record, result.rho_hat.mat) <= tol)


def test_mle_single_iteration_reports_its_certificate():
    complete_case, *sampled = mle_cases()
    config = SolverConfig(tolerance=MLE_TOL, max_iterations=1)
    for plan, record in sampled:
        result = mle(plan, record, config)
        assert result.iterations_used == 1 and not result.converged
        assert dense_certificate(plan, record, result.rho_hat.mat) > MLE_TOL
    # on complete noiseless data the first step, 1/d along the gradient from the
    # maximally mixed state, lands on the pure truth: converged after one iteration
    plan, record = complete_case
    result = mle(plan, record, config)
    assert result.iterations_used == 1 and result.converged
    assert dense_certificate(plan, record, result.rho_hat.mat) <= MLE_TOL


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def count_forward_maps(monkeypatch):
    return count_calls(monkeypatch, MeasurementPlan, "expectations")


def test_fista_stage_makes_one_forward_map_per_iteration(monkeypatch):
    plan, y, step = fista_instance(24)
    X0 = np.zeros((8, 8), dtype=complex)
    calls = count_forward_maps(monkeypatch)
    *_, converged, iters = _lasso_stage(plan, y, 0.05, X0, step, 3000, FISTA_TOL)
    assert converged and iters > 10
    assert len(calls) <= 1.5 * iters + 1
    # the reference recomputes A(X) for every objective: two forward maps per iteration
    calls.clear()
    *_, iters_ref = reference_fista_stage(plan, y, 0.05, X0, step, iters, 0.0)
    assert iters_ref == iters and len(calls) >= 2 * iters_ref + 1


def test_mle_forward_map_budget(monkeypatch):
    """One forward map and one projection per trial step, backtracks and restarts
    included; one more forward map for the start; at most two trial steps per iteration.
    One adjoint for the certificate at the start and at every accepted iterate, one for
    the gradient at each momentum point (the first two iterations step from X, whose
    gradient the certificate computed) and one for the reported residual."""
    calls = count_forward_maps(monkeypatch)
    adjoints = count_calls(monkeypatch, MeasurementPlan, "pauli_sum")
    projections = []
    eigh = np.linalg.eigh

    def counting_eigh(mat):
        projections.append(1)
        return eigh(mat)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    for tol in (1e-7, MLE_TOL):
        for plan, record in mle_cases():
            for counted in (calls, projections, adjoints):
                counted.clear()
            result = mle(plan, record, SolverConfig(tolerance=tol, max_iterations=2000))
            iters = result.iterations_used
            assert len(calls) == len(projections) + 1
            assert iters <= len(projections) <= 2 * iters
            # paying for the gradient at X again would add one per iteration
            assert iters + 1 <= len(adjoints) <= 2 + iters + max(iters - 2, 0), (len(adjoints), iters)


def test_mle_converges_on_criterion_5_trials(monkeypatch):
    """Every MLE solve of two criterion-5 trials stops on its certificate, not at its cap,
    under the sweep's solver settings, which are the MLE's defaults."""
    assert mle.__defaults__ == (BENCH_SOLVER,)
    results = []

    def recording(*args, **kwargs):
        results.append(mle(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(solvers, "mle", recording)
    config = ExperimentConfig(n=4, T=1e4, c=20.0, m_grid=(32, 64, 96, 128, 192, 256),
                              estimators=("mle",), trials=2, gamma=0.01, seed=5)
    solve_sweep_cells(config)
    assert len(results) == 12
    assert all(r.converged for r in results), [r.iterations_used for r in results]


def dense_gradient(plan, y, X):
    """A*(A(X) - y) from Kronecker-product Pauli matrices."""
    norm = plan.normalization
    return sum(norm * (norm * np.trace(p @ X).real - y_i) * p
               for p, y_i in zip(dense_paulis(plan), y))


def dense_dantzig_residual(plan, y, X):
    """||A*(A(X) - y)|| from Kronecker-product Pauli matrices."""
    return float(np.max(np.abs(np.linalg.eigvalsh(dense_gradient(plan, y, X)))))


def dense_lasso_kkt(plan, y, X, mu):
    """(lambda_min(G), <X, G>) for G = A*(A(X) - y) + mu I from Kronecker-product Paulis."""
    G = dense_gradient(plan, y, X) + mu * np.eye(plan.d)
    return float(np.linalg.eigvalsh(G)[0]), float(np.vdot(X, G).real)


def dantzig_cases():
    """Noisy n = 2 and n = 3 instances at the default weight, where X = 0 is infeasible."""
    cases = []
    for n, m in ((2, 10), (3, 40)):
        for seed in (30, 31, 32):
            _, plan, record = noisy_instance(seed, n=n, m=m, t=4000)
            lam = default_lambda(plan.d, 4000)
            assert operator_norm(adjoint_sampling_operator(plan, record.y)) > lam
            cases.append((plan, record.y, lam))
    return cases


def test_dantzig_feasible_and_matches_reference_trace():
    config = SolverConfig()
    for plan, y, lam in dantzig_cases():
        result = dantzig_selector(plan, y, lam, config)
        assert result.converged and result.rho_hat.is_psd()
        assert dense_dantzig_residual(plan, y, result.rho_hat.mat) <= lam * (1 + config.tolerance)
        X_ref = reference_dantzig(plan, y, lam, SolverConfig(tolerance=1e-12, max_iterations=20000))
        assert result.rho_hat.trace == pytest.approx(np.trace(X_ref).real, rel=1e-6)


def test_dantzig_closed_form_on_complete_data():
    """Complete exact data on the maximally mixed state make B the identity and
    c = I/d, so the optimum is (1/d - lam) I; the iterates reach it exactly, where
    every Anderson difference is zero."""
    plan = MeasurementPlan(tuple(all_paulis(2)))
    record = simulate_measurements(plan, DensityMatrix(np.eye(4, dtype=complex) / 4), EXACT)
    lam = 0.01
    result = dantzig_selector(plan, record.y, lam)
    assert result.converged
    assert np.allclose(result.rho_hat.mat, (0.25 - lam) * np.eye(4), atol=1e-12)
    # noisy records of depolarized rank-1 and rank-2 truths: the gain is g = d^2/m on every
    # word, and X = (c - lam I)_+ / g is the optimum whenever lambda_min(c) >= -lam
    t = 20000
    for n, rank, seed in itertools.product((2, 3), (1, 2), range(3)):
        rng = np.random.default_rng(seed)
        truth = depolarize_local(random_rank_r_projection(n, rank, rng, "unitary"), 0.1)
        plan = MeasurementPlan(tuple(all_paulis(n)))
        record = simulate_measurements(plan, truth, t, rng)
        d = plan.d
        lam = default_lambda(d, t)
        c = adjoint_sampling_operator(plan, record.y)
        assert np.linalg.eigvalsh(c)[0] >= -lam
        optimum = eig_apply(c, lambda w: np.maximum(w - lam, 0.0)) / (d * d / plan.m)
        result = dantzig_selector(plan, record.y, lam)
        assert result.converged
        assert np.linalg.norm(result.rho_hat.mat - optimum) <= 1e-12 * np.linalg.norm(optimum)


def test_dantzig_single_iteration_is_unconverged():
    for plan, y, lam in dantzig_cases():
        result = dantzig_selector(plan, y, lam, SolverConfig(max_iterations=1))
        assert result.iterations_used == 1 and not result.converged


def record_shapes(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records the shape of its first argument."""
    shapes = []
    original = getattr(owner, name)

    def recording(arg, *args, **kwargs):
        shapes.append(np.shape(arg))
        return original(arg, *args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return shapes


def test_dantzig_operator_budget(monkeypatch):
    """Per map: one eigh of a (2, d, d) stack, one forward transform and one adjoint
    transform, each of a stack of two.  Per certificate: one forward transform and one
    adjoint of a stack of two, and one eigvalsh of a (3, d, d) stack.  Besides these,
    one A* for A*(y) and one eigvalsh for its norm; no A or A* inside the loop."""
    forward_maps = count_forward_maps(monkeypatch)
    adjoints = count_calls(monkeypatch, MeasurementPlan, "pauli_sum")
    forward = record_shapes(monkeypatch, solvers, "pauli_grid")
    adjoint = record_shapes(monkeypatch, solvers, "pauli_grid_adjoint")
    decompositions = record_shapes(monkeypatch, np.linalg, "eigh")
    spectra = record_shapes(monkeypatch, np.linalg, "eigvalsh")
    for plan, y, lam in dantzig_cases():
        for calls in (forward_maps, adjoints, forward, adjoint, decompositions, spectra):
            calls.clear()
        result = dantzig_selector(plan, y, lam)
        iters = result.iterations_used
        d = plan.d
        certificates = spectra.count((3, d, d))
        assert iters > CHECK_EVERY and 1 <= certificates <= iters // CHECK_EVERY + 1
        assert decompositions == [(2, d, d)] * iters
        assert forward == [(2, d, d)] * (iters + certificates)
        assert adjoint == [(2, d, d)] * (iters + certificates)
        assert spectra == [(d, d)] + [(3, d, d)] * certificates
        assert len(forward_maps) == 0 and len(adjoints) == 1
        # the reference applies B = A*A three times per iteration
        forward_maps.clear()
        reference_dantzig(plan, y, lam, SolverConfig(max_iterations=iters))
        assert len(forward_maps) == 3 * iters


def with_replacement_plans():
    """Plans drawn with replacement, with a repeated word and the identity word added."""
    rng = np.random.default_rng(19)
    plans = []
    for n, m in ((2, 9), (3, 30)):
        indices = rng.integers(0, 4**n, size=m)
        plans.append(MeasurementPlan.from_indices(n, np.concatenate((indices, indices[:3], [0, 0]))))
    return plans


def random_hermitian(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g + g.conj().T


def test_dantzig_y_step_is_exact_on_the_grid():
    """B through the grid gain is A*A from Kronecker-product Paulis, and the Y step
    solves (I + B^2) Y = a + B(b), on plans with repeated words and the identity word."""
    rng = np.random.default_rng(20)
    for plan in with_replacement_plans():
        assert len(np.unique(plan.indices)) < plan.m and 0 in plan.indices
        paulis = dense_paulis(plan)

        def dense_B(mat):
            return (plan.d / plan.m) * sum(np.trace(p @ mat).real * p for p in paulis)

        a, b = (random_hermitian(plan.d, rng) for _ in range(2))
        for mat, B_mat in zip((a, b), solvers._gram(plan, np.stack((a, b)))):
            assert np.max(np.abs(B_mat - dense_B(mat))) <= 1e-13
        Y, BY = solvers._y_solver(plan)(np.stack((a, b)))
        assert np.max(np.abs(BY - dense_B(Y))) <= 1e-12
        assert np.max(np.abs(Y + dense_B(dense_B(Y)) - a - dense_B(b))) <= 1e-12


def test_dantzig_converges_on_sweep_cells(monkeypatch):
    """Every Dantzig solve of two criterion-5-style trials at T = 1e5 stops on its
    certificate under the sweep's solver settings, m = 32 included, within half the
    cap, and its estimate is feasible by dense Kronecker-product Paulis."""
    solves = []

    def recording(plan, y, lam, config):
        solves.append((plan, y, lam, dantzig_selector(plan, y, lam, config)))
        return solves[-1][-1]

    monkeypatch.setattr(solvers, "dantzig_selector", recording)
    config = ExperimentConfig(n=4, T=1e5, c=20.0, m_grid=(32, 64, 96, 128, 192, 256),
                              estimators=("dantzig",), trials=2, gamma=0.01, seed=5)
    solve_sweep_cells(config)
    assert len(solves) == 12
    maps = [r.iterations_used for *_, r in solves]
    assert all(r.converged for *_, r in solves), maps
    # the hardest of these cells (m = 32) took 790 maps with the linearized map and 290 with
    # a balanced penalty; at the fixed penalty it takes 380, and the 12 cells 1040 (960 balanced)
    assert max(maps) <= BENCH_SOLVER.max_iterations // 2, maps
    for plan, y, lam, result in solves:
        residual = dense_dantzig_residual(plan, y, result.rho_hat.mat)
        assert residual <= lam * (1 + BENCH_SOLVER.tolerance)


def criterion_3_instance(seed):
    """Criterion 3's noiseless compressed instance: d = 16, m = 6d, a Haar-random pure truth."""
    rng = np.random.default_rng(300 + seed)
    truth = haar_random_pure(4, rng)
    plan = MeasurementPlan(tuple(sample_paulis(4, 96, rng=rng)))
    return truth, plan, simulate_measurements(plan, truth, EXACT).y


def assert_lasso_certified(plan, y, mu, config, result):
    lowest, slack = dense_lasso_kkt(plan, y, result.rho_hat.mat, mu)
    assert result.converged, result.iterations_used
    assert lowest >= -config.tolerance and abs(slack) <= config.tolerance, (lowest, slack)


def test_lasso_converges_on_sweep_cells(monkeypatch):
    """Every Lasso solve of two criterion-5-style trials at T = 1e5 stops on its KKT
    certificate under the sweep's solver settings, checked with dense Paulis."""
    solves = []

    def recording(plan, y, mu, config):
        solves.append((plan, y, mu, config, matrix_lasso(plan, y, mu, config)))
        return solves[-1][-1]

    monkeypatch.setattr(solvers, "matrix_lasso", recording)
    config = ExperimentConfig(n=4, T=1e5, c=20.0, m_grid=(32, 64, 96, 128, 192, 256),
                              estimators=("lasso",), trials=2, gamma=0.01, seed=5)
    solve_sweep_cells(config)
    assert len(solves) == 12
    for plan, y, mu, settings, result in solves:
        assert settings == BENCH_SOLVER
        assert_lasso_certified(plan, y, mu, settings, result)


def test_lasso_converges_on_criterion_3_instances():
    config = SolverConfig()
    for seed in range(10):
        truth, plan, y = criterion_3_instance(seed)
        result = matrix_lasso(plan, y, 1e-6, config)
        assert_lasso_certified(plan, y, 1e-6, config, result)
        assert trace_distance(result.rho_hat, truth) < 1e-4


def test_lasso_kkt_gate_on_criterion_3_instances(monkeypatch):
    """The Lasso reads the complementarity <X, G> of its KKT check in O(m) as
    <A(X), A(X) - y> + mu Tr X from the carried A(X), and forms G only when that gate
    passes.  On criterion-3 instances the O(m) value matches the dense np.vdot(X, G)
    to rounding, and the gate passes exactly where it is within the stage's tolerance.
    A solve's adjoints are one per loop gradient, one per passed gate and two outside
    the stages (A*(y) for the data scale and the reported residual); a step from X
    after a passed gate reuses its A*, so the loop's gradients are fewer than its prox
    steps (iterations and restarts, one forward map each besides each stage's first).
    Every eigvalsh besides the two operator norms is a passed gate."""
    stages = []  # (mu, KKT tolerance) of each stage, then its iterations
    iterations = []
    lasso_stage = solvers._lasso_stage

    def recording_stage(plan, y, mu, X, step, max_iter, kkt_tol):
        stages.append((mu, kkt_tol))
        out = lasso_stage(plan, y, mu, X, step, max_iter, kkt_tol)
        iterations.append(out[-1])
        return out

    points = []  # (X, A(X), mu, tolerance, whether the gate passed) at every certificate
    gradients = []
    accelerated = solvers._accelerated

    def recording_loop(X, forward, objective, gradient, project, step, certify, *rest):
        mu, tol = stages[-1]

        def recording_certify(mat, a_mat):
            holds, grad = certify(mat, a_mat)
            points.append((mat, a_mat, mu, tol, grad is not None))
            return holds, grad

        def counting_gradient(mat, a_mat):
            gradients.append(1)
            return gradient(mat, a_mat)

        return accelerated(X, forward, objective, counting_gradient, project, step,
                           recording_certify, *rest)

    monkeypatch.setattr(solvers, "_lasso_stage", recording_stage)
    monkeypatch.setattr(solvers, "_accelerated", recording_loop)
    forward = count_forward_maps(monkeypatch)
    adjoints = count_calls(monkeypatch, MeasurementPlan, "pauli_sum")
    spectra = count_calls(monkeypatch, np.linalg, "eigvalsh")
    for seed in range(3):
        truth, plan, y = criterion_3_instance(seed)
        for calls in (stages, iterations, points, gradients, forward, adjoints, spectra):
            calls.clear()
        result = matrix_lasso(plan, y, 1e-6)
        assert result.converged
        values = [float(AX @ (AX - y)) + mu * float(np.trace(X).real) for X, AX, mu, *_ in points]
        assert [passed for *_, passed in points] == [
            abs(value) <= tol for value, (*_, tol, _) in zip(values, points)]
        for value, (X, _, mu, _, _) in (list(zip(values, points))[::25] + [(values[-1], points[-1])]):
            G = dense_gradient(plan, y, X) + mu * np.eye(plan.d)
            scale = max(1.0, np.linalg.norm(X) * np.linalg.norm(G))
            assert abs(value - np.vdot(X, G).real) <= 1e-13 * scale
        total = sum(iterations)
        prox_steps = len(forward) - len(stages)
        passed = sum(passed for *_, passed in points)
        # one certificate at each stage's start and one after every iteration
        assert len(points) == total + len(stages) and prox_steps >= total
        assert len(spectra) == passed + 2
        assert len(adjoints) == len(gradients) + passed + 2
        # the first step reuses the A* of the gate at X = 0, which always passes
        assert points[0][-1] and len(gradients) < prox_steps <= len(gradients) + passed
        # the parent paid an A* and an eigvalsh on every warm-up iteration
        assert passed <= total // 10, (passed, total)


def test_lasso_continuation_iteration_count(monkeypatch):
    """Warm-up stages stop once they are warm starts: over all continuation stages the
    Lasso takes at most half the FISTA iterations of solving every stage to the final
    tolerance, which took 1403 on this instance (115, 124, 186, 161, 169, 173, 154, 145
    in the warm-up stages and 176 in the final one)."""
    stages = []

    def counting(*args, **kwargs):
        out = _lasso_stage(*args, **kwargs)
        stages.append(out[-1])
        return out

    monkeypatch.setattr(solvers, "_lasso_stage", counting)
    truth, plan, y = criterion_3_instance(0)
    result = matrix_lasso(plan, y, 1e-6)
    assert result.converged and len(stages) == 9
    assert result.iterations_used == stages[-1]
    assert sum(stages) <= 1403 // 2, stages


def test_lasso_returns_zero_when_optimal_at_origin():
    """X = 0 is optimal exactly when lambda_max(A*y) <= mu, since G = mu I - A*y >= 0
    there and <X, G> = 0: every stage certifies its start, and the solve returns the
    zero matrix, converged, after 0 final-stage iterations.  With mu at lambda_max of
    a noisy record there are no warm-up stages.  Negated complete data of a pure state
    give A*y = -(d^2/m) rho, whose top eigenvalue 0 lies far below the data scale, so
    at mu = 1e-3 every warm-up stage certifies 0 as well."""
    _, plan, record = noisy_instance(3, n=3, m=40)
    complete = MeasurementPlan(tuple(all_paulis(2)))
    pure = haar_random_pure(2, np.random.default_rng(5))
    negated = -simulate_measurements(complete, pure, EXACT).y
    top = float(np.linalg.eigvalsh(adjoint_sampling_operator(plan, record.y))[-1])
    for plan, y, mu, warm_ups in ((plan, record.y, top, 0), (complete, negated, 1e-3, 3)):
        stage_mu = 0.2 * operator_norm(adjoint_sampling_operator(plan, y))
        assert sum(stage_mu / 4**k > 4 * mu for k in range(20)) == warm_ups
        result = matrix_lasso(plan, y, mu)
        assert np.array_equal(result.rho_hat.mat, np.zeros((plan.d, plan.d)))
        assert result.converged and result.iterations_used == 0
        assert result.objective_history == (0.5 * float(y @ y),)
