"""Linear state recursion, least squares, score, and information matrix.

Index conventions, fixed once for every sum in this package:

* a trajectory stores states ``x_0 .. x_N`` (``N`` transitions) with
  ``x_0 = 0`` and optionally the driving noise ``e_0 .. e_{N-1}``, where
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
leading trial axis. Monte Carlo chunks run the recursion and the Gram sums
on whole chunks, one block of time steps at a time (see
``montecarlo.SimulatedChunk``); the single-trajectory functions are batches
of one, in one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import sym_inv_sqrt, validate_matrix, validate_square
from .rng import as_generator


class SingularCovarianceError(ValueError):
    """Sample covariance too ill-conditioned to invert.

    For genuine Gaussian data with N >= d+1 this happens with probability
    zero, so hitting it signals a degenerate trajectory or bad inputs.
    """


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


@dataclass(frozen=True)
class Trajectory:
    """States x_0..x_N and, optionally, the noise e_0..e_{N-1} that drove them."""

    states: np.ndarray
    noise: np.ndarray | None = None

    def __post_init__(self) -> None:
        states = validate_matrix(self.states, "states").copy()
        if states.shape[0] < 2:
            raise ValueError("trajectory needs at least states x_0 and x_1")
        if np.any(states[0] != 0.0):
            raise ValueError("x_0 must be exactly zero")
        states.setflags(write=False)
        object.__setattr__(self, "states", states)
        if self.noise is not None:
            noise = validate_matrix(self.noise, "noise").copy()
            if noise.shape != (states.shape[0] - 1, states.shape[1]):
                raise ValueError(
                    f"noise must have shape {(states.shape[0] - 1, states.shape[1])}, "
                    f"got {noise.shape}"
                )
            noise.setflags(write=False)
            object.__setattr__(self, "noise", noise)

    @property
    def n(self) -> int:
        return self.states.shape[0] - 1

    @property
    def d(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True)
class GramStatistics:
    """Natural statistics: gamma = sum x_i x_{i-1}^T, sigma = sum x_{i-1} x_{i-1}^T."""

    gamma: np.ndarray
    sigma: np.ndarray


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


def _gram_sums(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial gamma = sum x_i x_{i-1}^T and symmetric sigma = sum x_{i-1} x_{i-1}^T.

    The sums run over the steps of ``states``. ``montecarlo.SimulatedChunk``
    adds up the same two products one block of steps at a time, and
    symmetrizes sigma once, after the last block.
    """
    x_prev = states[:, :-1]
    return _gram(states[:, 1:], x_prev), _sym(_gram(x_prev, x_prev))


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


def simulate_injected(params: SystemParams, noise: np.ndarray) -> Trajectory:
    """Run the recursion x_{i+1} = A x_i + B e_i with supplied noise rows e_i."""
    noise = validate_matrix(noise, "noise")
    if noise.shape != (params.n, params.d):
        raise ValueError(f"noise must have shape {(params.n, params.d)}, got {noise.shape}")
    states = np.zeros((1, params.n + 1, params.d))
    _states_batch(params.a, params.b, noise[None], states)
    return Trajectory(states=states[0], noise=noise)


def simulate(params: SystemParams, rng, keep_noise: bool = False) -> Trajectory:
    """Simulate one trajectory with i.i.d. standard normal noise from ``rng``."""
    g = as_generator(rng)
    noise = g.standard_normal((params.n, params.d))
    traj = simulate_injected(params, noise)
    if keep_noise:
        return traj
    return Trajectory(states=traj.states)


def gram_stats(traj: Trajectory) -> GramStatistics:
    gamma, sigma = _gram_sums(traj.states[None])
    return GramStatistics(gamma=gamma[0], sigma=sigma[0])


def least_squares(traj: Trajectory) -> np.ndarray:
    """Least-squares estimate gamma @ sigma^{-1} of the dynamics matrix.

    Raises SingularCovarianceError when the sample covariance has an
    eigenvalue at most 1e-12 times its largest one.
    """
    gamma, sigma = _gram_sums(traj.states[None])
    # the error against A = 0 is the estimate itself
    singular, a_hat = _ls_error(gamma, sigma, np.zeros_like(gamma))
    if singular[0]:
        w = np.linalg.eigvalsh(sigma[0])
        raise SingularCovarianceError(
            f"sample covariance is singular (eigenvalue range {w[0]:.3e}..{w[-1]:.3e})"
        )
    return a_hat[0]


def sensitivity(params: SystemParams, traj: Trajectory) -> np.ndarray:
    """Score of the log-likelihood in A: (BB*)^{-1} (gamma - A sigma).

    This form only needs states. When the trajectory was generated by
    ``params`` and carries its noise, it equals (B*)^{-1} sum e_{i-1} x_{i-1}^T
    up to roundoff.
    """
    return _data_score(params, *_gram_sums(traj.states[None]))[0]


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


def log_likelihood(params: SystemParams, traj: Trajectory) -> float:
    """Log density of the trajectory in natural-parameter form.

    <eta(A), T(x)> - log Z(x) with the standard Gaussian partition; agrees
    with the sum of Gaussian transition log-densities.
    """
    if traj.n != params.n or traj.d != params.d:
        raise ValueError("trajectory does not match params dimensions")
    stats = gram_stats(traj)
    bbt = params.noise_cov()
    bbt_inv = params.noise_cov_inv
    x = traj.states[1:]
    inner = float(np.sum((bbt_inv @ params.a) * stats.gamma)) - 0.5 * float(
        np.sum((params.a.T @ bbt_inv @ params.a) * stats.sigma)
    )
    sign, logdet = np.linalg.slogdet(bbt)
    if sign <= 0:
        raise ValueError("BB* must be positive definite")
    log_z = 0.5 * params.n * (params.d * np.log(2.0 * np.pi) + logdet) + 0.5 * float(
        np.sum(x * (x @ bbt_inv.T))
    )
    return inner - log_z
