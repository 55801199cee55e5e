"""Deterministic lower-bound quantities for the least-squares estimator.

Everything here is a pure function of the system (A, B, N): the expected
Gram matrix, the frequency-domain supremum that controls concentration, the
deviation rates built from it, the rate function with its three decay
regimes, the Cramer-Rao-type error bound, and the explicit bounds for
diagonalizable systems split into stable / limit-stable / unstable parts.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .linalg import in_float64
from .model import SystemParams, _frozen

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_ITERS = 60  # golden-section steps of the l_ab refinement
GRID_SLICE = 256  # l_ab grid frequencies whose products and SVDs are formed at once
# spectral_split's largest eigenvector-basis condition number and reconstruction error
SPLIT_COND_MAX = 1e8
SPLIT_RECON_RTOL = 1e-8


class NotDiagonalizableError(ValueError):
    """Eigenvector basis too ill-conditioned for a reliable spectral split."""


class BoundReport(NamedTuple):
    """All deterministic bound quantities evaluated for one system."""

    l_ab: float
    delta1: float
    delta2: float
    phi_value: float
    cr_matrix: np.ndarray
    mse_lower: float


class SpectralSplit(NamedTuple):
    """Eigen-decomposition of A split by eigenvalue modulus, with its block quantities.

    Under the diagonalizability assumption the split blocks are diagonal, so
    |A_u^{-1}| = 1/min|lam_u|, s_min(A_u^{-1}) = 1/max|lam_u|,
    |A_s| = max|lam_s|, s_min(A_s) = min|lam_s|; each is None when its block
    is absent. ``gap`` is 1 minus the larger of |A_u^{-1}| and |A_s| (1 when
    both blocks are absent), ``cond_sq`` is cond(b_tilde)^2.
    """

    s_basis: np.ndarray
    eigenvalues: np.ndarray
    stable_indices: tuple[int, ...]
    unstable_indices: tuple[int, ...]
    limit_indices: tuple[int, ...]
    b_tilde: np.ndarray
    au_inv_norm: float | None
    au_inv_smin_sq: float | None
    as_norm: float | None
    as_smin_sq: float | None
    gap: float
    cond_sq: float

    @property
    def smin_sq_terms(self) -> list[float]:
        """s_min(A_u^{-1})^2 and s_min(A_s)^2 of the blocks that are present."""
        return [x for x in (self.au_inv_smin_sq, self.as_smin_sq) if x is not None]


class LoggedValue(NamedTuple):
    """A bound-layer number and its natural log, where the log is carried."""

    value: float
    log_value: float | None = None


class LabUpperBound(NamedTuple):
    valid: bool
    value: float


class ExplicitBound(NamedTuple):
    """The explicit bound of a system's regime; ``delta_eps`` is None without a limit-stable part."""

    n_min: int
    mse_lower: float
    delta_eps: float | None = None


def psi(params: SystemParams) -> np.ndarray:
    """Expected Gram matrix: sum_{k=1}^{N-1} (N-k) A^{k-1} BB* A*^{k-1} (read-only)."""
    return params.psi_info[0]


def _matrix_powers(a: np.ndarray, count: int) -> np.ndarray:
    """Stack A^0 .. A^{count-1}."""
    d = a.shape[0]
    powers = np.empty((count, d, d))
    powers[0] = np.eye(d)
    for k in range(1, count):
        np.matmul(a, powers[k - 1], out=powers[k])
    return powers


def _freq_norm_sq(
    w: np.ndarray, powers: np.ndarray, b: np.ndarray, s_values: np.ndarray
) -> np.ndarray:
    """Squared operator norm of W (sum_k A^k e^{j 2 pi k s}) B per frequency."""
    k = np.arange(powers.shape[0])
    phases = np.exp(2j * np.pi * np.outer(s_values, k))
    f = np.tensordot(phases, powers, axes=(1, 0))
    g = np.einsum("ab,mbc,cd->mad", w, f, b)
    return np.linalg.svd(g, compute_uv=False)[:, 0] ** 2


def _grid_freq_norm_sq(
    w: np.ndarray, powers: np.ndarray, b: np.ndarray, grid_points: int
) -> np.ndarray:
    """``_freq_norm_sq`` at s = m / grid_points for every m, by one real FFT.

    e^{j 2 pi k m / M} depends on k mod M only, so each M-block of powers is
    added in order onto the first. rfft gives conj(sum_k A^k e^{+j 2 pi k m/M})
    for m <= M/2; W, A and B are real, so the matrix at M - m is the conjugate
    of the one at m, with the same singular values, and the upper half mirrors.
    """
    count = powers.shape[0]
    if count > grid_points:
        stack, powers = powers, powers[:grid_points].copy()
        for lo in range(grid_points, count, grid_points):
            powers[: count - lo] += stack[lo : lo + grid_points]
    f = np.fft.rfft(powers, n=grid_points, axis=0)
    vals = np.empty(grid_points)
    for lo in range(0, len(f), GRID_SLICE):
        g = w @ f[lo : lo + GRID_SLICE] @ b
        vals[lo : lo + len(g)] = np.linalg.svd(g, compute_uv=False)[:, 0] ** 2
    vals[len(f) :] = vals[grid_points - len(f) : 0 : -1]
    return vals


def _golden_max(fn, lo: float, hi: float) -> float:
    """Golden-section maximization in ``GOLDEN_ITERS`` steps."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(GOLDEN_ITERS):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    return max(fc, fd)


def l_ab(params: SystemParams, grid_points: int = 4096) -> float:
    """Frequency supremum sup_s |Psi^{-1/2} (sum_{k=0}^{N-2} A^k e^{j2pi ks}) B|^2.

    The uniform grid s = m / ``grid_points`` is one real FFT of the power
    sequence A^0 .. A^{N-2} (folded modulo ``grid_points``) over s <= 1/2:
    A, B and Psi^{-1/2} are real, so the matrix at 1 - s is the conjugate of
    the one at s, with the same norm. One golden-section refinement around
    the grid argmax then evaluates the direct sum at single frequencies. The
    result is a lower approximation of the true supremum; the grid-convergence
    tests guard the resolution. Psi^{-1/2} is ``params.psi_inv_sqrt``.
    """
    if grid_points < 64:
        raise ValueError(f"grid_points must be >= 64, got {grid_points}")
    w = params.psi_inv_sqrt
    powers = _matrix_powers(params.a, params.n - 1)
    vals = _grid_freq_norm_sq(w, powers, params.b, grid_points)
    # cast once, not in each of the refinement's tensordots; the real stack goes
    powers = powers.astype(complex)
    best = int(np.argmax(vals))
    step = 1.0 / grid_points

    def fn(s: float) -> float:
        return float(_freq_norm_sq(w, powers, params.b, np.array([s]))[0])

    center = best / grid_points
    refined = _golden_max(fn, center - step, center + step)
    return max(float(vals[best]), refined)


def delta1(params: SystemParams, t: float, l: float) -> float:
    """Deviation rate (d v t) L + (d v t)^{1/2} L^{1/2}."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    lead = max(float(params.d), t)
    return lead * l + math.sqrt(lead) * math.sqrt(l)


def delta2(params: SystemParams, l: float) -> float:
    """Multiplication-process rate d * L."""
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    return params.d * l


def phi(a: float, n: int) -> float:
    """Rate function with the three decay regimes.

    N/(1-a) + 1/(1-a)^2 on [0, 1); N(N-1)/2 at a = 1 (within 1e-12);
    a^N / (a-1)^2 above 1. Dominates geom_sum(a, n).value everywhere.
    """
    if a < 0:
        raise ValueError(f"a must be >= 0, got {a}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if abs(a - 1.0) <= 1e-12:
        return 0.5 * n * (n - 1)
    if a < 1.0:
        return n / (1.0 - a) + 1.0 / (1.0 - a) ** 2
    # numpy power saturates to inf instead of raising for huge a^N
    with np.errstate(over="ignore"):
        return float(np.float64(a) ** n) / (a - 1.0) ** 2


def _power_sum(x: float, weights: range) -> float:
    """sum_i w_i x^i over the integer ``weights``, by direct accumulation."""
    total = 0.0
    power = 1.0
    for w in weights:
        total += w * power
        power *= x
    return total


def geom_sum(a: float, n: int) -> LoggedValue:
    """Ramp sum sum_{i=0}^{N-2} (N-1-i) a^i by direct accumulation (inf past float64), and its log.

    For a > 1 the log is that of a^(N-2) sum_{j=0}^{N-2} (j+1) a^(-j), finite for every N.
    """
    if a < 0:
        raise ValueError(f"a must be >= 0, got {a}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    value = _power_sum(a, range(n - 1, 0, -1))
    if a <= 1.0:
        return LoggedValue(value, math.log(value))
    return LoggedValue(value, (n - 2) * math.log(a) + math.log(_power_sum(1.0 / a, range(1, n))))


def geom_sum_lower(a: float, n: int, alpha: float) -> tuple[bool, float]:
    """Lower estimate (1-alpha) N / (1-a), valid once N >= 1/(alpha (1-a))."""
    if not 0.0 <= a < 1.0:
        raise ValueError(f"a must be in [0, 1), got {a}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    valid = n >= 1.0 / (alpha * (1.0 - a))
    return valid, (1.0 - alpha) * n / (1.0 - a)


def _phi_at_norm(params: SystemParams) -> float:
    """The rate function at |A|_2^2, the denominator of every ``mse_lower``."""
    return phi(np.linalg.norm(params.a, 2) ** 2, params.n)


def cr_bound(
    params: SystemParams,
    epsilon: float,
    constant: float = 1.0,
    *,
    grid_points: int = 4096,
) -> BoundReport:
    """Cramer-Rao-type lower bound on the least-squares estimation error.

    cr_matrix = d^2 (1-eps)^2 / (1 + C Delta)^2 * BB* / information_scalar,
    and the scalar bound uses the rate function at |A|^2 operator norm:
    mse_lower = (1-eps)^2 / (1 + C Delta)^2 * d^2 / phi(|A|^2, N).

    ``constant`` is the unknown universal constant C multiplying Delta; the
    CLI rows that depend on it echo it, so no number masquerades as
    constant-free. The deviation rate is taken at t = log(L/eps), clamped to
    zero when negative; a ValueError names ``run.epsilon`` where L/eps leaves
    float64, and ``run.constant_c`` where (1 + C Delta1)^2 does. Psi,
    Psi^{-1/2} and the information scalar are cached on ``params``, so a
    system walks A^(k-1)B once however often it is bounded; Psi itself is
    ``psi(params)``.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if constant <= 0:
        raise ValueError(f"constant must be > 0, got {constant}")
    info = params.psi_info[1]
    l_val = l_ab(params, grid_points)
    ratio = in_float64(lambda: l_val / epsilon, f"l_ab / run.epsilon at run.epsilon = {epsilon!r}")
    t = max(math.log(ratio) if l_val > 0 else 0.0, 0.0)
    d1 = delta1(params, t, l_val)
    d2 = delta2(params, l_val)
    d = params.d
    inflation = in_float64(
        lambda: (1.0 + constant * d1) ** 2, f"(1 + C Delta1)^2 at run.constant_c = {constant!r}"
    )
    shrink = (1.0 - epsilon) ** 2 / inflation
    cr_matrix = (d**2) * shrink * params.noise_cov() / info
    phi_value = _phi_at_norm(params)
    mse_lower = shrink * d**2 / phi_value
    return BoundReport(
        l_ab=l_val,
        delta1=d1,
        delta2=d2,
        phi_value=phi_value,
        cr_matrix=0.5 * (cr_matrix + cr_matrix.T),
        mse_lower=mse_lower,
    )


def spectral_split(params: SystemParams) -> SpectralSplit:
    """Diagonalize A and classify eigenvalues by modulus against 1 +- 1/N.

    b_tilde = S^{-1} B, and the block quantities are computed once here; the
    readers take the split cached on ``params``, ``params.split``. Raises
    NotDiagonalizableError when the eigenvector basis has condition number
    above ``SPLIT_COND_MAX`` or reconstructs A only to a relative error above
    ``SPLIT_RECON_RTOL``.
    """
    a = params.a
    tol = 1.0 / params.n
    eigvals, basis = np.linalg.eig(a)
    sv = np.linalg.svd(basis, compute_uv=False)
    if sv[-1] <= 0 or sv[0] / sv[-1] > SPLIT_COND_MAX:
        raise NotDiagonalizableError(
            f"eigenvector basis condition number {sv[0] / max(sv[-1], 1e-300):.3e} "
            f"exceeds {SPLIT_COND_MAX:.1e}; matrix is not reliably diagonalizable"
        )
    recon = (basis * eigvals) @ np.linalg.inv(basis)
    rel = np.linalg.norm(recon - a) / (1.0 + np.linalg.norm(a))
    if rel > SPLIT_RECON_RTOL:
        raise NotDiagonalizableError(
            f"eigendecomposition reconstruction error {rel:.3e} exceeds {SPLIT_RECON_RTOL:.1e}"
        )
    moduli = np.abs(eigvals)
    stable = tuple(int(i) for i in np.flatnonzero(moduli < 1.0 - tol))
    unstable = tuple(int(i) for i in np.flatnonzero(moduli > 1.0 + tol))
    limit = tuple(
        int(i) for i in range(params.d) if i not in stable and i not in unstable
    )
    au_inv_norm = au_inv_smin_sq = as_norm = as_smin_sq = None
    if unstable:
        lam_u = moduli[list(unstable)]
        au_inv_norm = 1.0 / float(lam_u.min())
        au_inv_smin_sq = (1.0 / float(lam_u.max())) ** 2
    if stable:
        lam_s = moduli[list(stable)]
        as_norm = float(lam_s.max())
        as_smin_sq = float(lam_s.min()) ** 2
    norms = [x for x in (au_inv_norm, as_norm) if x is not None]
    b_tilde = np.linalg.solve(basis, params.b.astype(complex))
    sv_b = np.linalg.svd(b_tilde, compute_uv=False)
    if sv_b[-1] <= 0:
        raise ValueError("b_tilde is singular; condition number undefined")
    return SpectralSplit(
        s_basis=_frozen(basis),
        eigenvalues=_frozen(eigvals),
        stable_indices=stable,
        unstable_indices=unstable,
        limit_indices=limit,
        b_tilde=_frozen(b_tilde),
        au_inv_norm=au_inv_norm,
        au_inv_smin_sq=au_inv_smin_sq,
        as_norm=as_norm,
        as_smin_sq=as_smin_sq,
        gap=1.0 - max(norms) if norms else 1.0,
        cond_sq=float(sv_b[0] / sv_b[-1]) ** 2,
    )


def lab_upper_bound(params: SystemParams, alpha: float) -> LabUpperBound:
    """Closed-form upper bound on l_ab from the spectral split ``params.split``.

    value = (r_u + r_s + 1)^2 cond(b_tilde)^2 / min(per-block weight sums),
    with r_u = 1/(1 - |A_u^{-1}|), r_s = 1/(1 - |A_s|) dropped for absent
    blocks. Present-block denominators: ``geom_sum_lower`` at s_min(A_s)^2
    for the stable block, the exact ramp sum at s_min(A_u^{-1})^2 for the
    unstable block, and 1/3 for the limit block. Valid once
    N >= 1/(alpha (1 - max of the present s_min^2 terms)).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    split = params.split
    n = params.n
    reciprocal = 0.0
    denominators: list[float] = []
    if split.unstable_indices:
        reciprocal += 1.0 / (1.0 - split.au_inv_norm)
        # sum_{e=0}^{N-2} (e+1) x^e, the unstable-block weight sum
        denominators.append(_power_sum(split.au_inv_smin_sq, range(1, n)))
    if split.stable_indices:
        reciprocal += 1.0 / (1.0 - split.as_norm)
        denominators.append(geom_sum_lower(split.as_smin_sq, n, alpha)[1])
    if split.limit_indices:
        denominators.append(1.0 / 3.0)
    smin_terms = split.smin_sq_terms
    valid = n >= 1.0 / (alpha * (1.0 - max(smin_terms))) if smin_terms else True
    value = (reciprocal + 1.0) ** 2 * split.cond_sq / min(denominators)
    return LabUpperBound(valid=valid, value=value)


def explicit_bound(params: SystemParams, epsilon: float) -> ExplicitBound:
    """Explicit bound of the regime that ``params.split`` puts the system in.

    No eigenvalue near the unit circle: the sharp bound
    mse_lower = (1-eps)^2/(1+eps)^2 * d^2 / phi(|A|^2), valid once
    N >= (d v log(1/eps)) cond(b_tilde)^2 / (eps^2 gap), with no ``delta_eps``.
    A limit-stable part: the rate-optimal bound
    mse_lower = (1-eps)^2 (d / delta_eps)^2 / phi(|A|^2), with
    delta_eps = (d v log(cond(b_tilde)^2 / (eps gap))) cond(b_tilde)^2 / gap.
    Its leading constant is unknown; the value is reported with constant one
    and should be read as a rate statement only. For pure limit-stable
    systems the absent stable/unstable gap terms are taken as 1. A ValueError
    names ``run.epsilon`` where n_min or delta_eps leaves float64.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    split = params.split
    gap, cond_sq = split.gap, split.cond_sq
    phi_value = _phi_at_norm(params)
    if not split.limit_indices:
        n_min = in_float64(
            lambda: math.ceil(max(params.d, math.log(1.0 / epsilon)) * cond_sq / (epsilon**2 * gap)),
            f"n_min at run.epsilon = {epsilon!r}",
        )
        mse_lower = (1.0 - epsilon) ** 2 / (1.0 + epsilon) ** 2 * params.d**2 / phi_value
        return ExplicitBound(n_min=n_min, mse_lower=mse_lower)
    ratio = in_float64(lambda: cond_sq / (epsilon * gap), f"delta_eps at run.epsilon = {epsilon!r}")
    delta_eps = max(params.d, math.log(ratio)) * cond_sq / gap
    smin_terms = split.smin_sq_terms
    n_min = math.ceil(2.0 / (1.0 - max(smin_terms))) if smin_terms else 2
    mse_lower = (1.0 - epsilon) ** 2 * (params.d / delta_eps) ** 2 / phi_value
    return ExplicitBound(n_min=n_min, mse_lower=mse_lower, delta_eps=delta_eps)
