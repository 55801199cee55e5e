"""Linear state recursion, least squares, score, and information matrix.

Index conventions, fixed once for every sum in this package:

* a trajectory has states ``x_0 .. x_N`` (``N`` transitions) with
  ``x_0 = 0``, driven by the noise ``e_0 .. e_{N-1}``, where
  ``x_{i+1} = A x_i + B e_i``;
* data-side sums (Gram statistics, least squares, score) run over
  ``i = 1..N`` pairing ``x_i`` with ``x_{i-1}``;
* expectation-side sums (information scalar, expected Gram) run over
  ``k = 1..N-1`` with weight ``N - k`` on the ``A^(k-1) B`` term — the
  ``x_0 = 0`` start removes one term from every expectation. Both come from
  the one walk of ``expected_gram``, which ``SystemParams`` makes at most
  once per system.

Off-by-one errors between these two families of sums are the main
correctness hazard here; all other modules reuse these helpers instead of
re-deriving index ranges.

The underscored kernel (recursion, Gram sums, least squares, score) takes a
leading trial axis; it is the one simulator and estimator of the package.
Monte Carlo chunks run the recursion and the Gram sums on whole chunks, one
block of time steps at a time (see ``montecarlo.SimulatedChunk``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import sym_inv_sqrt, validate_square


class PsiOverflowError(ValueError):
    """Psi or the information scalar is beyond float64 range.

    Psi grows like rho(A)^(2N), so an unstable A overflows it at large N.
    """


def _frozen(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class SystemParams:
    """Dynamics pair (A, B) with dimension d and sample horizon N.

    ``psi_info``, ``psi_inv_sqrt`` and ``noise_cov_inv`` are computed at most
    once per object, read-only; a pickled copy carries the ones already made.
    """

    a: np.ndarray
    b: np.ndarray
    n: int

    def __post_init__(self) -> None:
        # own copies: freezing must never make the caller's arrays read-only
        a = validate_square(self.a, "a").copy()
        b = validate_square(self.b, "b").copy()
        if a.shape != b.shape:
            raise ValueError(f"a and b must have equal size, got {a.shape} vs {b.shape}")
        smin = float(np.linalg.svd(b, compute_uv=False)[-1])
        if smin <= 1e-12:
            raise ValueError(f"b must be full rank, smallest singular value {smin:.3e}")
        if self.n < a.shape[0] + 1:
            raise ValueError(f"n must be >= d + 1 = {a.shape[0] + 1}, got {self.n}")
        object.__setattr__(self, "a", _frozen(a))
        object.__setattr__(self, "b", _frozen(b))

    @property
    def d(self) -> int:
        return self.a.shape[0]

    def noise_cov(self) -> np.ndarray:
        """BB*, the one-step noise covariance."""
        return self.b @ self.b.T

    @cached_property
    def noise_cov_inv(self) -> np.ndarray:
        """(BB*)^{-1}."""
        return _frozen(np.linalg.solve(self.noise_cov(), np.eye(self.d)))

    @cached_property
    def psi_info(self) -> tuple[np.ndarray, float]:
        """Psi and the information scalar: ``expected_gram(self)``."""
        psi_m, info = expected_gram(self)
        return _frozen(psi_m), info

    @cached_property
    def psi_inv_sqrt(self) -> np.ndarray:
        """Psi^{-1/2}; ValueError when Psi is not safely positive definite."""
        return _frozen(sym_inv_sqrt(self.psi_info[0]))


def _states_batch(a: np.ndarray, b: np.ndarray, noise: np.ndarray, states: np.ndarray) -> None:
    """Fill ``states[:, 1:]`` with the m states after ``states[:, 0]``, for noise (count, m, d).

    ``states`` is (count, m+1, d); its first state is x_0 = 0 of a whole
    trajectory, or the last state of the block before. ``a`` is one (d, d)
    matrix shared by every trial, or one per trial, (count, d, d).
    """
    # shocks B e_i go straight into the state buffer: no second noise-sized array
    np.matmul(noise, b.T, out=states[:, 1:])
    if a.ndim == 2:
        for i in range(noise.shape[1]):
            states[:, i + 1] += states[:, i] @ a.T
    else:
        for i in range(noise.shape[1]):
            states[:, i + 1] += np.einsum("tij,tj->ti", a, states[:, i])


def _gram(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-trial sums over time of x_n y_n^T: (count, n, i), (count, n, j) -> (count, i, j).

    One BLAS matrix product per trial; ``x`` and ``y`` may be strided views.
    """
    return np.matmul(np.swapaxes(x, 1, 2), y)


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.swapaxes(m, 1, 2))


def _ls_error(
    gamma: np.ndarray, sigma: np.ndarray, a: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Trials rejected as singular, and the least-squares error A_hat - A of each.

    ``gamma`` and ``sigma`` (symmetric) are per-trial Gram sums and ``a`` the
    true A, shared or one per trial. A trial is rejected, with error 0, when
    ``sigma`` has an eigenvalue at most 1e-12 times its largest; the rejection
    is never papered over with a pseudo-inverse.
    """
    w = np.linalg.eigvalsh(sigma)
    ok = w[:, 0] > 1e-12 * np.maximum(w[:, -1], 0.0)
    safe = np.where(ok[:, None, None], sigma, np.eye(sigma.shape[-1]))
    a_hat = np.swapaxes(np.linalg.solve(safe, np.swapaxes(gamma, 1, 2)), 1, 2)
    return ~ok, np.where(ok[:, None, None], a_hat - a, 0.0)


def _data_score(params: SystemParams, gamma: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Per-trial score of the log-likelihood in A: (BB*)^{-1} (gamma - A sigma)."""
    residual = gamma - np.einsum("ij,tjk->tik", params.a, sigma)
    return np.einsum("ij,tjk->tik", params.noise_cov_inv, residual)


def expected_gram(params: SystemParams) -> tuple[np.ndarray, float]:
    """Psi = sum_{k=1}^{N-1} (N-k) c c^T and its trace sum (N-k) |c|_F^2, c = A^(k-1) B.

    The walk itself; readers take its cached result, ``params.psi_info``.
    Raises ``PsiOverflowError`` when either sum is beyond float64 range.
    """
    out = np.zeros((params.d, params.d))
    total = 0.0
    c = params.b.copy()
    # an overflow is reported once, below, not as numpy warnings from each step
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, params.n):
            out += (params.n - k) * (c @ c.T)
            total += (params.n - k) * float(np.sum(c * c))
            c = params.a @ c
    if not (np.all(np.isfinite(out)) and math.isfinite(total)):
        rho = float(np.max(np.abs(np.linalg.eigvals(params.a))))
        cause = f"rho(A) = {rho:.6g} > 1" if rho > 1.0 else f"rho(A) = {rho:.6g}"
        raise PsiOverflowError(f"Psi overflows float64 for {cause} at N = {params.n}")
    return 0.5 * (out + out.T), total


def information_scalar(params: SystemParams) -> float:
    """sum_{k=1}^{N-1} (N-k) |A^{k-1} B|_F^2, the scalar information weight."""
    return params.psi_info[1]


def fisher_information(params: SystemParams) -> np.ndarray:
    """Closed-form information matrix: information_scalar(params) * (BB*)^{-1}."""
    out = information_scalar(params) * params.noise_cov_inv
    return 0.5 * (out + out.T)
