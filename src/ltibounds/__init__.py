"""Estimation lower bounds for LTI state-space models.

Simulation and least squares for x_{i+1} = A x_i + B e_i, the closed-form
information matrix, Cramer-Rao-type and Bayesian (van Trees) lower bounds
with an explicit operator-ball prior, and a seeded Monte Carlo suite that
verifies the exact identities behind every bound.
"""

from .bounds import (
    BoundReport,
    NotDiagonalizableError,
    SpectralSplit,
    cr_bound,
    delta1,
    delta2,
    geom_sum,
    geom_sum_lower,
    l_ab,
    lab_upper_bound,
    phi,
    prop_bound_no_limit,
    prop_bound_with_limit,
    psi,
    spectral_split,
)
from .linalg import (
    SvdResult,
    haar_from_gaussian,
    haar_orthogonal,
    svd,
    sym_inv_sqrt,
)
from .minimax import (
    PriorSample,
    PriorSpec,
    grad_log_prior,
    minimax_regimes,
    prior_density,
    prior_fisher,
    sample_prior,
    sample_prior_batch,
    score_identity_lhs,
    van_trees_bound,
    z_const,
)
from .model import (
    PsiOverflowError,
    SystemParams,
    fisher_information,
)
from .montecarlo import (
    ConcentrationReport,
    RiskEstimate,
    bayes_risk_experiment,
    concentration_experiment,
    dominance_check,
    empirical_risk,
    multiplication_experiment,
    norm_ineq_fuzz,
)
from .rng import RNG_LAYOUT, Stream

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ConcentrationReport",
    "NotDiagonalizableError",
    "PriorSample",
    "PriorSpec",
    "PsiOverflowError",
    "RNG_LAYOUT",
    "RiskEstimate",
    "SpectralSplit",
    "Stream",
    "SvdResult",
    "SystemParams",
    "bayes_risk_experiment",
    "concentration_experiment",
    "cr_bound",
    "delta1",
    "delta2",
    "dominance_check",
    "empirical_risk",
    "fisher_information",
    "geom_sum",
    "geom_sum_lower",
    "grad_log_prior",
    "haar_from_gaussian",
    "haar_orthogonal",
    "l_ab",
    "lab_upper_bound",
    "minimax_regimes",
    "multiplication_experiment",
    "norm_ineq_fuzz",
    "phi",
    "prior_density",
    "prior_fisher",
    "prop_bound_no_limit",
    "prop_bound_with_limit",
    "psi",
    "sample_prior",
    "sample_prior_batch",
    "score_identity_lhs",
    "spectral_split",
    "svd",
    "sym_inv_sqrt",
    "van_trees_bound",
    "z_const",
]
