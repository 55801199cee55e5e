"""Operator-ball prior and minimax lower bounds.

The prior on dynamics matrices is supported where all singular values of
A - sI lie in [0, eps], with density proportional to the product of
(eps - sigma_i)^2 over those singular values. In SVD coordinates the law
factorizes: each sigma_i is an independent eps * Beta(d, 3) draw and the
singular-vector factors are Haar. The density vanishes on the boundary
sigma_max = eps, which is what makes the integration-by-parts behind the
Bayesian (van Trees) bound work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import LoggedValue, geom_sum
from .linalg import haar_from_gaussian, in_float64
from .rng import KIND_HAAR_U, KIND_HAAR_V, KIND_SIGMAS, Stream


@dataclass(frozen=True)
class PriorSpec:
    """Prior parameters: least-singular-value offset s, ball radius eps, size d."""

    s: float
    eps: float
    d: int

    def __post_init__(self) -> None:
        if self.s < 0:
            raise ValueError(f"s must be >= 0, got {self.s}")
        if self.eps <= 0:
            raise ValueError(f"eps must be > 0, got {self.eps}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")


class PriorSample(NamedTuple):
    """Draws (U, sigmas, V) with the assembled matrices a = sI + U diag V^T.

    Fields of one draw are (d, d) / (d,) arrays; a batch stacks them along a
    leading trial axis.
    """

    u: np.ndarray
    sigmas: np.ndarray
    v: np.ndarray
    a: np.ndarray


def sample_prior_batch(spec: PriorSpec, rng: Stream, count: int) -> PriorSample:
    """Draw ``count`` samples from the factorized prior law.

    sigma_i are i.i.d. eps * Beta(d, 3); U is Haar with the column-sign
    uniqueness convention and V is plain Haar (the sign flips live in V, whose
    mean must vanish for the score identities to hold at s > 0). Each factor
    comes from its own kind stream under ``rng`` with one trial-major call, so
    draw k does not depend on ``count``.
    """
    if not isinstance(rng, Stream):
        raise TypeError(f"rng must be a Stream, got {type(rng).__name__}")
    d = spec.d
    u = haar_from_gaussian(rng.child(KIND_HAAR_U).generator().standard_normal((count, d, d)))
    v = haar_from_gaussian(
        rng.child(KIND_HAAR_V).generator().standard_normal((count, d, d)),
        canonical_signs=False,
    )
    sigmas = spec.eps * rng.child(KIND_SIGMAS).generator().beta(d, 3.0, size=(count, d))
    a = spec.s * np.eye(d) + (u * sigmas[:, None, :]) @ np.swapaxes(v, -1, -2)
    return PriorSample(u=u, sigmas=sigmas, v=v, a=a)


def sample_prior(spec: PriorSpec, rng: Stream) -> PriorSample:
    """One draw from the prior: :func:`sample_prior_batch` with ``count=1``."""
    batch = sample_prior_batch(spec, rng, 1)
    return PriorSample(u=batch.u[0], sigmas=batch.sigmas[0], v=batch.v[0], a=batch.a[0])


def _score(u: np.ndarray, sigmas: np.ndarray, v: np.ndarray, eps: float) -> np.ndarray:
    """-2 U (eps I - Sigma)^{-1} V^T for one set of factors or a stack."""
    return -2.0 * (u / (eps - sigmas)[..., None, :]) @ np.swapaxes(v, -1, -2)


def van_trees_bound(d: int, n: int, s: float, eps: float) -> LoggedValue:
    """Bayesian lower bound on the minimax mean-square risk over the class.

    d^2 / (sum_{i=0}^{N-2} (N-1-i)(s+eps)^{2i} + 2(d+2)^2/eps^2), with its natural
    log as ``log_value`` only where the value is 0.0 or subnormal. The second
    denominator term follows the stated bound; the derivation supports the
    slightly smaller 2(d+1)(d+2)/eps^2. Raises ValueError where (s+eps)^2 or
    that term is past float64.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    x = in_float64(lambda: (s + eps) ** 2, f"(s + eps)^2 at s = {s!r}, eps = {eps!r}")
    prior = in_float64(lambda: 2.0 * (d + 2) ** 2 / eps**2, f"2(d+2)^2/eps^2 at eps = {eps!r}")
    ramp = geom_sum(x, n)
    log_value = 2.0 * math.log(d) - float(np.logaddexp(ramp.log_value, math.log(prior)))
    denom = ramp.value + prior
    value = math.exp(log_value) if math.isinf(denom) else d**2 / denom  # inf: sum past float64
    return LoggedValue(value, log_value if value < np.finfo(float).tiny else None)


class RegimeBound(NamedTuple):
    """One regime's rate; ``log_value`` is its natural log (unstable regime only)."""

    regime: str
    valid: bool
    value: float
    log_value: float | None = None


def minimax_regimes(d: int, n: int, s: float, alpha: float | None = None) -> RegimeBound:
    """Explicit minimax rate for the class with least singular value >= s.

    Three regimes: s < 1 decays like 1/N, s = 1 like 1/N^2, s > 1 like
    (s+1)^{-2N}. ``alpha`` in (0, 1) is required for s != 1 and trades the
    leading constant against the validity threshold on N. Raises ValueError
    where the unstable rate's leading factor is past float64.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    if s == 1.0:
        value = math.log(d + 2) ** 2 / (3.0 * n**2 * (1.0 + 2.0 / d) ** 2)
        return RegimeBound(regime="limit", valid=True, value=value)
    if alpha is None or not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1) for s != 1, got {alpha}")
    if s < 1.0:
        scale = alpha * (1.0 - s) ** 2  # 0.0 for a subnormal alpha: no N is enough
        valid = scale > 0.0 and n >= 16.0 * (d + 2) ** 2 / scale
        value = d**2 * (1.0 - (s + 1.0) ** 2 / 4.0) / ((1.0 + alpha) * n)
        return RegimeBound(regime="stable", valid=valid, value=value)
    valid = n >= math.log2((d + 2) / alpha) + 3.0
    # log space: (s+1)^{2N} overflows floats long before the value matters
    lead = in_float64(
        lambda: d**2 * ((s + 1.0) ** 2 - 1.0) ** 2 / (1.0 + alpha),
        f"d^2 ((s+1)^2 - 1)^2 / (1 + alpha) at s = {s!r}",
    )
    log_value = math.log(lead) - 2.0 * n * math.log(s + 1.0)
    value = math.exp(log_value)  # underflows to 0.0 for huge N; log_value does not
    return RegimeBound(regime="unstable", valid=valid, value=value, log_value=log_value)


def score_identity_lhs(sample: PriorSample, spec: PriorSpec) -> np.ndarray:
    """Value of -A (grad log prior)^T per draw; its prior mean is d * I.

    The gradient comes from the draw's own factors, so this works on one
    draw or a batch.
    """
    grad = _score(sample.u, sample.sigmas, sample.v, spec.eps)
    return -sample.a @ np.swapaxes(grad, -1, -2)
