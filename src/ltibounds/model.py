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

The underscored kernel (recursion, Gram sums, least squares, score) is the
one simulator and estimator of the package. The Gram sums, least squares
and score take a leading trial axis; the recursion, ``_states_batch``, takes
the trial axis last, so each time step is one contiguous pass over every
trial. Monte Carlo chunks run the recursion and the Gram sums on whole
chunks, one block of time steps at a time (see ``montecarlo.SimulatedChunk``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .linalg import sym_inv_sqrt, validate_square

if TYPE_CHECKING:
    from .bounds import SpectralSplit


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

    ``psi_info``, ``psi_inv_sqrt``, ``noise_cov_inv`` and ``split`` are
    computed at most once per object, read-only; a pickled copy carries the
    ones already made.
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

    def __setstate__(self, state: dict) -> None:
        # unpickled arrays come back writeable: freeze them again, the split's too
        split = state.get("split")
        for value in (*state.values(), *(vars(split).values() if split else ())):
            for m in value if isinstance(value, tuple) else (value,):
                if isinstance(m, np.ndarray):
                    _frozen(m)
        self.__dict__.update(state)

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

    @cached_property
    def split(self) -> SpectralSplit:
        """The spectral split at tol 1/N: ``bounds.spectral_split(self)``.

        Made on first read only, so an op that never reads it never raises
        its ``NotDiagonalizableError``.
        """
        from .bounds import spectral_split  # bounds imports this module

        return spectral_split(self)


def _states_batch(a: np.ndarray, b: np.ndarray, noise: np.ndarray, x: np.ndarray) -> None:
    """Fill ``x[1:]`` with the m states after ``x[0]``, for noise (count, m, d).

    Trials last: ``x`` is (m+1, d, count), so each step is one pass over
    every trial. ``x[0]`` is x_0 = 0 of a whole trajectory, or the last
    state of the block before. ``a`` is one (d, d) matrix shared by every
    trial, or one per trial, trials last too: (d, d, count).

    With two trials or more, a shared ``a`` gives bitwise the states of the
    trial-major step x_{i+1} += x_i A^T; one ``a`` per trial sums over j in
    index order. A single trial runs a matrix-vector product instead, whose
    last digits may differ.
    """
    # shocks B e_i go straight into the state buffer: BLAS reads the
    # trial-major noise through a transposed view, so no noise-sized copy
    np.matmul(b, noise.transpose(1, 2, 0), out=x[1:])
    if a.ndim == 2:
        for i in range(noise.shape[1]):
            x[i + 1] += a @ x[i]
    else:
        for i in range(noise.shape[1]):
            x[i + 1] += np.einsum("ijt,jt->it", a, x[i])


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
            total += (params.n - k) * float((c * c).sum())
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
