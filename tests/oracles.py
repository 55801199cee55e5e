"""Oracles and helpers that only the tests read: the prior's density, its
normalizer, Fisher information and log-density gradient, the rank-one norm
inequality fuzz, the step-by-step walk of A^(k-1)B, and the systems and
bounds that several test modules share.

The package samples the operator-ball prior and uses its score; these are
the closed forms that the tests check those against. Each helper has its
one definition here, which ``tests/test_api.py`` checks.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ltibounds.bounds import cr_bound
from ltibounds.linalg import validate_square
from ltibounds.minimax import PriorSpec, _score
from ltibounds.model import SystemParams
from ltibounds.montecarlo import CHUNK, _chunk_ranges, _gather, _run_tasks
from ltibounds.rng import KIND_NOISE, Stream

BOUNDARY_MARGIN = 1e-8


def z_const(d: int, eps: float) -> float:
    """Normalizer d(d+1)(d+2) / (2 eps^{d+2}) of (eps-sigma)^2 sigma^{d-1} on [0, eps]."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    return d * (d + 1) * (d + 2) / (2.0 * eps ** (d + 2))


def prior_density(a: np.ndarray, spec: PriorSpec) -> float:
    """Density of the prior at ``a`` in the singular-value coordinates.

    Product over singular values sigma_i of A - sI of z_const * (eps - sigma_i)^2;
    zero when any sigma_i exceeds eps. The sigma^{d-1} factor belongs to the
    change of variables, not to this density.
    """
    a = validate_square(a, "a")
    if a.shape[0] != spec.d:
        raise ValueError(f"a must be {spec.d}x{spec.d}, got {a.shape}")
    sigmas = np.linalg.svd(a - spec.s * np.eye(spec.d), compute_uv=False)
    if sigmas[0] > spec.eps:
        return 0.0
    z = z_const(spec.d, spec.eps)
    return float(np.prod(z * (spec.eps - sigmas) ** 2))


def grad_log_prior(a: np.ndarray, spec: PriorSpec) -> np.ndarray:
    """Gradient of the log prior density: -2 U (eps I - Sigma)^{-1} V^T.

    Uses the SVD of a - sI. Well defined under coinciding singular values
    (only U f(Sigma) V^T enters); raises near the boundary where some
    sigma_i is within BOUNDARY_MARGIN of eps.
    """
    a = validate_square(a, "a")
    if a.shape[0] != spec.d:
        raise ValueError(f"a must be {spec.d}x{spec.d}, got {a.shape}")
    u, sigma, vt = np.linalg.svd(a - spec.s * np.eye(spec.d))
    if sigma[0] >= spec.eps - BOUNDARY_MARGIN:
        raise ValueError(
            f"largest singular value {sigma[0]:.6g} is at or near the boundary {spec.eps}"
        )
    return _score(u, sigma, vt.T, spec.eps)


def prior_fisher(d: int, eps: float) -> np.ndarray:
    """Information matrix of the prior itself: 2(d+1)(d+2)/eps^2 * I."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    return 2.0 * (d + 1) * (d + 2) / eps**2 * np.eye(d)


def _norm_ineq_chunk(d: int, rng: Stream, index: int, count: int) -> dict[str, np.ndarray]:
    vecs = rng.child(index, KIND_NOISE).generator().standard_normal((count, 4, d))
    vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
    u1, v1, u2, v2 = vecs[:, 0], vecs[:, 1], vecs[:, 2], vecs[:, 3]
    m = np.einsum("ti,tj->tij", u1, v1) - np.einsum("ti,tj->tij", u2, v2)
    lhs = np.linalg.svd(m, compute_uv=False)[:, 0]
    rhs = np.linalg.norm(u1 - u2, axis=1) + np.linalg.norm(v1 - v2, axis=1)
    return {"slack": rhs - lhs}


def norm_ineq_fuzz(d: int, trials: int, rng: Stream, *, workers: int = 1) -> float:
    """Worst slack of |u1 v1^T - u2 v2^T| <= |u1 - u2| + |v1 - v2| over random pairs.

    Chunk c of ``CHUNK`` pairs draws from ``rng.child(c, KIND_NOISE)``, so
    the result does not depend on ``workers``.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    tasks = [partial(_norm_ineq_chunk, d, rng, *chunk) for chunk in _chunk_ranges(trials, CHUNK)]
    return float(np.min(_gather(_run_tasks(tasks, workers))["slack"]))


def stepwise_walk(params: SystemParams) -> tuple[np.ndarray, float]:
    """Psi and the information scalar by one loop over k that adds each term as it goes.

    The reference for ``model.expected_gram``, which forms the same sums
    from a stack of every A^(k-1)B; both must agree bit for bit.
    """
    out = np.zeros((params.d, params.d))
    total = 0.0
    c = params.b.copy()
    for k in range(1, params.n):
        out += (params.n - k) * (c @ c.T)
        total += (params.n - k) * float((c * c).sum())
        c = params.a @ c
    return 0.5 * (out + out.T), total


def rotation(theta: float, scale: float = 1.0) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return scale * np.array([[c, -s], [s, c]])


def scalar_params(a: float, b: float = 1.0, n: int = 8) -> SystemParams:
    return SystemParams(a=np.array([[a]]), b=np.array([[b]]), n=n)


def inflated_cr_bound(*args, **kwargs):
    """``cr_bound`` with ``cr_matrix`` inflated 10x: a bound no estimator meets."""
    report = cr_bound(*args, **kwargs)
    return report._replace(cr_matrix=10.0 * report.cr_matrix)
