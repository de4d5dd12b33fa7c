"""Optimal experimental design for nonlinear regression models.

Computes local, Bayesian, and standardized maximin D-optimal designs on a
compact design interval, certifies optimality via directional-derivative
audits, and provides machine checks for the structural conditions that make
optimal-design support grow with parameter uncertainty.
"""

from .bayes import (
    ParameterPrior,
    averaged_directional_derivative,
    bayes_criterion,
    quadrature,
    solve_bayes,
)
from .design import (
    DegenerateDesignError,
    DesignMeasure,
    InfoMatrix,
    NEG_INF,
    canonical_merge,
    det_via_cauchy_binet,
    gram_determinant,
    information_matrix,
    log_det,
)
from .local import (
    EquivalenceCertificate,
    directional_derivative,
    local_design,
    solve_local,
)
from .maximin import BetaGrid, maximin_criterion, solve_maximin, support_count
from .models import (
    EXP1,
    EXP2,
    EXP3,
    LOGISTIC,
    BetaDomainError,
    Model,
    get_model,
    h_function,
    make_logistic,
    q_efficiency,
)
from .scales import (
    ScaleFunction,
    density_integral,
    identity,
    logarithm,
    step,
    truncated_exponential,
)
from .theory import (
    DecayEnvelope,
    TheoryReport,
    check_condition_2_9,
    check_uniform_decrease,
    construct_lower_bound_design,
    growth_study,
    verify_lower_bounds,
)

__all__ = [
    "BetaDomainError",
    "BetaGrid",
    "DecayEnvelope",
    "DegenerateDesignError",
    "DesignMeasure",
    "EXP1",
    "EXP2",
    "EXP3",
    "EquivalenceCertificate",
    "InfoMatrix",
    "LOGISTIC",
    "Model",
    "NEG_INF",
    "ParameterPrior",
    "ScaleFunction",
    "TheoryReport",
    "averaged_directional_derivative",
    "bayes_criterion",
    "canonical_merge",
    "check_condition_2_9",
    "check_uniform_decrease",
    "construct_lower_bound_design",
    "density_integral",
    "det_via_cauchy_binet",
    "directional_derivative",
    "get_model",
    "gram_determinant",
    "growth_study",
    "h_function",
    "identity",
    "information_matrix",
    "local_design",
    "log_det",
    "logarithm",
    "make_logistic",
    "maximin_criterion",
    "q_efficiency",
    "quadrature",
    "solve_bayes",
    "solve_local",
    "solve_maximin",
    "step",
    "support_count",
    "truncated_exponential",
]

__version__ = "0.1.0"
