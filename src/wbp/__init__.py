"""Weighted basis pursuit with prior support information.

Tools for choosing provably optimal weights in weighted l1-minimization,
predicting the exact Gaussian phase-transition threshold of the resulting
program, and verifying the prediction empirically with seeded Monte Carlo
experiments.
"""

from wbp.kernels import phi, phi_prime
from wbp.model import (
    AppliedStrategy,
    PartitionModel,
    Strategy,
    SupportInstance,
    Weights,
    apply_strategy,
    generate_instance,
    make_model,
    merge_blocks,
    parse_fraction,
    weights_for_strategy,
)
from wbp.optimal import OptimalWeights, optimal_weight, optimal_weights, weight_objective
from wbp.thresholds import (
    StatDimBounds,
    ThresholdResult,
    blockwise_threshold,
    l1_threshold,
    minimize_threshold,
    phase_window,
    statdim_bounds,
    threshold_objective,
)
from wbp.geometry import dist_sq_to_subdiff, mc_expected_dist_sq
from wbp.solver import (
    BPProblem,
    BPSolution,
    SolverError,
    kkt_residuals,
    load_matrix,
    load_vector,
    recovery_success,
    save_matrix,
    save_vector,
    weighted_bp,
)
from wbp.experiments import (
    CurvePoint,
    ExperimentConfig,
    PhaseCurve,
    load_experiment_config,
    run_phase_curve,
    run_trial,
)

__version__ = "0.1.0"

__all__ = [
    "AppliedStrategy",
    "BPProblem",
    "BPSolution",
    "CurvePoint",
    "ExperimentConfig",
    "OptimalWeights",
    "PartitionModel",
    "PhaseCurve",
    "SolverError",
    "StatDimBounds",
    "Strategy",
    "SupportInstance",
    "ThresholdResult",
    "Weights",
    "apply_strategy",
    "blockwise_threshold",
    "dist_sq_to_subdiff",
    "generate_instance",
    "kkt_residuals",
    "l1_threshold",
    "load_experiment_config",
    "load_matrix",
    "load_vector",
    "make_model",
    "mc_expected_dist_sq",
    "merge_blocks",
    "minimize_threshold",
    "optimal_weight",
    "optimal_weights",
    "parse_fraction",
    "phase_window",
    "phi",
    "phi_prime",
    "recovery_success",
    "run_phase_curve",
    "run_trial",
    "save_matrix",
    "save_vector",
    "statdim_bounds",
    "threshold_objective",
    "weight_objective",
    "weighted_bp",
    "weights_for_strategy",
]
