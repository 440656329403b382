"""Quantum and classical correlation measures for Werner, pseudo-pure and
isotropic bipartite states: closed formulas paired with an independent
matrix-based measurement-optimization oracle."""

from .closed_forms import (
    binary_entropy,
    pp_classical_correlations,
    pp_discord,
    pp_discord_asymptote,
    pp_gd,
    pp_joint_entropy,
    pp_marginal_entropy,
    pp_mutual_information,
    pp_negativity,
    pp_second_derivative,
    pp_separable,
    pp_separability_threshold,
    pure_gd,
    pure_negativity,
    werner_classical_correlations,
    werner_discord,
    werner_discord_asymptote,
    werner_eof,
    werner_joint_entropy,
    werner_measured_conditional_entropy,
    werner_mutual_information,
    werner_separable,
)
from .linalg import (
    hermitian_eigensystem,
    partial_trace,
    partial_transpose,
    purity,
    von_neumann_entropy,
)
from .oracle import (
    ConditionalEnsemble,
    ConjectureReport,
    OptimizerConfig,
    OptimizerResult,
    OptimalMeasurementReport,
    conditional_ensemble,
    conjecture_sweep,
    discord_numeric,
    gd_numeric,
    gd_objective,
    measured_conditional_entropy,
    minimize_conditional_entropy,
    mutual_information_numeric,
    negativity_numeric,
    optimal_measurement_check,
)
from .states import (
    DensityMatrix,
    PseudoPureParams,
    WernerParams,
    build_pseudo_pure,
    build_werner,
    flip_operator,
    isotropic_params,
    normalized_schmidt,
    random_schmidt_vector,
    random_unitary,
    schmidt_state_vector,
    symmetric_antisymmetric_projectors,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
