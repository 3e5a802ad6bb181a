import numpy as np
import pytest

from cstomo.measurement import (
    EXACT,
    MeasurementPlan,
    apply_sampling_operator,
    simulate_measurements,
)
from cstomo.pauli import SINGLE_QUBIT_MATRICES, PauliString, all_paulis, pauli_matrix, sample_paulis
from cstomo.solvers import (
    SolverConfig,
    dantzig_selector,
    default_lambda,
    default_mu,
    matrix_lasso,
    mle,
    operator_norm,
    renormalize,
    sampling_lipschitz,
)
from cstomo.states import DensityMatrix, fidelity, haar_random_pure, trace_distance


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


def dense_gram_lambda_max(plan):
    """Largest eigenvalue of A*A from Kronecker-product Pauli matrices."""
    vecs = []
    for p in plan.paulis:
        mat = np.array([[1.0]], dtype=complex)
        for c in p.codes:
            mat = np.kron(mat, SINGLE_QUBIT_MATRICES[c])
        vecs.append(mat.reshape(-1))
    vecs = np.array(vecs)
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
    with pytest.raises(ValueError):
        SolverConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)


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
