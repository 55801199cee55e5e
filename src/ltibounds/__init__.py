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
    explicit_bound,
    geom_sum,
    geom_sum_lower,
    l_ab,
    lab_upper_bound,
    phi,
    psi,
    spectral_split,
)
from .linalg import (
    haar_from_gaussian,
    haar_orthogonal,
    sym_inv_sqrt,
)
from .minimax import (
    PriorSample,
    PriorSpec,
    minimax_regimes,
    sample_prior,
    sample_prior_batch,
    score_identity_lhs,
    van_trees_bound,
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
    "SystemParams",
    "bayes_risk_experiment",
    "concentration_experiment",
    "cr_bound",
    "delta1",
    "delta2",
    "dominance_check",
    "empirical_risk",
    "explicit_bound",
    "fisher_information",
    "geom_sum",
    "geom_sum_lower",
    "haar_from_gaussian",
    "haar_orthogonal",
    "l_ab",
    "lab_upper_bound",
    "minimax_regimes",
    "multiplication_experiment",
    "phi",
    "psi",
    "sample_prior",
    "sample_prior_batch",
    "score_identity_lhs",
    "spectral_split",
    "sym_inv_sqrt",
    "van_trees_bound",
]
