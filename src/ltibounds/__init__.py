"""Estimation lower bounds for LTI state-space models.

Simulation and least squares for x_{i+1} = A x_i + B e_i, the closed-form
information matrix, Cramer-Rao-type and Bayesian (van Trees) lower bounds
with an explicit operator-ball prior, and a seeded Monte Carlo suite that
verifies the exact identities behind every bound.

Each function is imported from its defining module, for example
``from ltibounds.bounds import cr_bound``.
"""

from . import bounds, linalg, minimax, model, montecarlo, rng
from .rng import RNG_LAYOUT

__version__ = "0.1.0"

__all__ = ["RNG_LAYOUT", "__version__", "bounds", "linalg", "minimax", "model", "montecarlo", "rng"]
