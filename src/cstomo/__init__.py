"""Compressed-sensing tomography of low-rank quantum states and processes."""

from .pauli import PauliString, all_paulis, pauli_expectation, pauli_matrix, sample_paulis
from .states import (
    DensityMatrix,
    depolarize_local,
    fidelity,
    haar_random_pure,
    haar_random_unitary,
    maximally_mixed,
    pure_state,
    random_rank_r_projection,
    trace_distance,
    truncate_rank,
)
from .measurement import (
    EXACT,
    MeasurementPlan,
    MeasurementRecord,
    adjoint_sampling_operator,
    apply_sampling_operator,
    empirical_rip_constant,
    simulate_measurements,
)
from .solvers import (
    ReconstructionResult,
    SolverConfig,
    dantzig_selector,
    default_lambda,
    default_mu,
    default_weight,
    matrix_lasso,
    mle,
    renormalize,
    run_estimator,
)
from .certify import FidelityEstimate, StateOracle, certify_fidelity, dfe_distribution
from .process import (
    QuantumChannel,
    ZeroEstimateError,
    channel_pauli_expectation,
    jamiolkowski_state,
    random_channel,
    reconstruct_channel,
    simulate_process_measurements,
)
from .lowerbound import (
    PackingSet,
    VacuousBoundError,
    alpha_bound,
    generate_packing,
    minimax_copies_bound,
    verify_packing,
)
from .experiment import ExperimentConfig, run_benchmark

__version__ = "0.1.0"
