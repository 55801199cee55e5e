"""Estimation lower bounds for LTI state-space models.

Simulation and least squares for x_{i+1} = A x_i + B e_i, the closed-form
information matrix, Cramer-Rao-type and Bayesian (van Trees) lower bounds
with an explicit operator-ball prior, and a seeded Monte Carlo suite that
verifies the exact identities behind every bound.

Each function is imported from its defining module, for example
``from ltibounds.bounds import cr_bound``. ``minimax`` and ``montecarlo``
are bound here and held in ``sys.modules`` like the others, but each runs
only on its first attribute use, so an op that never reads them (``bounds``)
never loads them.
"""

import importlib.util as _util
import sys as _sys

from . import bounds, linalg, model, rng
from .rng import RNG_LAYOUT


def _lazy(name: str):
    """Submodule ``name``, registered in ``sys.modules``; it runs on its first attribute use.

    The first use must come before any thread that might read it starts:
    the lazy module takes no lock while it loads.
    """
    spec = _util.find_spec(f"{__name__}.{name}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


minimax = _lazy("minimax")
montecarlo = _lazy("montecarlo")

__version__ = "0.1.0"

__all__ = ["RNG_LAYOUT", "__version__", "bounds", "linalg", "minimax", "model", "montecarlo", "rng"]
