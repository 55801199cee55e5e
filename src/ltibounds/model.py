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
  once per system: one product per step fills a stack of every
  ``A^(k-1) B``, and both weighted sums are formed from the stack in k order.

Off-by-one errors between these two families of sums are the main
correctness hazard here; all other modules reuse these helpers instead of
re-deriving index ranges.

The underscored kernel (recursion, Gram sums, least squares, score) is the
one simulator and estimator of the package. The Gram sums, least squares
and score take a leading trial axis; the recursion, ``_states_batch``, takes
the trial axis last, so each time step is one contiguous pass over every
trial, and it steps a trial by the same products in a chunk of any size.

``simulate`` is the one driver of the recursion and the Gram sums. It runs
one chunk's sets of trajectories (each a ``SimulatedChunk``) through the
same noise, ``BLOCK`` time steps at a time: it draws one block of noise,
(count, min(N, BLOCK), d), advances each set through it, and drops it
before the next block is drawn. Every set shares two buffers of BLOCK+1
states per trial, both allocated before the first block is drawn: the
recursion runs in the trials-last one, and one copy per block turns it
trial-major for the Gram sums' per-trial BLAS products. So a chunk holds
one block of noise and two blocks of states, never its whole noise or a
(count, N+1, d) state array, and its memory does not grow with N. The
blocks' partial Gram sums are added in time order: for N > BLOCK their last
digits depend on BLOCK, never on how many trials the chunk holds.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .linalg import sym_inv_sqrt, validate_square

if TYPE_CHECKING:
    from .bounds import SpectralSplit

# time steps per block: ``simulate`` draws a chunk's noise, and advances its
# trajectories, one block at a time
BLOCK = 64


class PsiOverflowError(ValueError):
    """Psi or the information scalar is beyond float64 range.

    Psi grows like rho(A)^(2N), so an unstable A overflows it at large N.
    """


class AllTrialsSingularError(RuntimeError):
    """Every trial produced a singular sample covariance."""


class TooManySingularTrialsError(RuntimeError):
    """Singular-covariance rejections exceeded the 0.1% audit threshold."""


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
        # unpickled arrays come back writeable: freeze them again, those in
        # the cached tuples (psi_info, the split) too
        for value in state.values():
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

    A shared ``a`` gives bitwise the states of the trial-major step
    x_{i+1} += x_i A^T; one ``a`` per trial sums over j in index order. A
    single trial steps as one column of two, so that it takes the same
    products, and so the same bits, as in a chunk of any other size.
    """
    if x.shape[-1] == 1:
        # a lone column would step by matrix-vector products instead
        pair = np.repeat(x, 2, axis=-1)
        a_pair = a if a.ndim == 2 else np.repeat(a, 2, axis=-1)
        _states_batch(a_pair, b, np.repeat(noise, 2, axis=0), pair)
        x[1:] = pair[1:, :, :1]
        return
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


class SimulatedChunk:
    """Per-trial Gram sums of one chunk's trajectories, as ``simulate`` forms them.

    ``a`` is shared by every trial or one per trial, (count, d, d); ``b`` is
    shared. Once ``simulate`` has run, ``gamma`` = sum x_i x_{i-1}^T and
    ``sigma`` = sum x_{i-1} x_{i-1}^T (symmetric) and, only when
    ``noise_gram`` is set, ``noise_gram`` = sum e_i x_i^T (the i = 0 term is
    zero, as x_0 = 0); otherwise ``noise_gram`` is None. ``ls_error``
    (``_ls_error``) is formed on first use.
    """

    def __init__(
        self, a: np.ndarray, b: np.ndarray, count: int, d: int, *, noise_gram: bool = False
    ) -> None:
        # one A per trial is held once, trials last as the recursion reads
        # it; ``a`` is its trial-major view
        self.a_last = a if a.ndim == 2 else np.ascontiguousarray(a.transpose(1, 2, 0))
        self.a = a if a.ndim == 2 else self.a_last.transpose(2, 0, 1)
        self.b = b
        # the last state of the block before, x_0 = 0 for the first; simulate drops it
        self.last = np.zeros((d, count))
        self.gamma, self.sigma = np.zeros((count, d, d)), np.zeros((count, d, d))
        self.noise_gram = np.zeros((count, d, d)) if noise_gram else None

    @cached_property
    def ls_error(self) -> tuple[np.ndarray, np.ndarray]:
        return _ls_error(self.gamma, self.sigma, self.a)


def simulate(
    chunks: Sequence[SimulatedChunk],
    n: int,
    noise_block: Callable[[int, tuple[int, int, int]], np.ndarray],
) -> None:
    """Run every chunk's trajectories through the same ``n`` steps of noise; form their sums.

    ``noise_block(j, shape)`` draws block j of the noise, standard normals
    of ``shape`` = (count, m, d) with m = min(BLOCK, n - j * BLOCK); blocks
    and buffers are as the module docstring sets out. At the end each
    ``sigma`` is symmetrized in place (bitwise ``_sym``) and ``last``
    dropped, so the statistics run beside the sums alone.
    """
    d, count = chunks[0].last.shape
    m = min(n, BLOCK)
    # trials last for the recursion, trial-major for the Gram sums
    x, states = np.empty((m + 1, d, count)), np.empty((count, m + 1, d))
    for j, start in enumerate(range(0, n, BLOCK)):
        steps = min(BLOCK, n - start)
        noise = noise_block(j, (count, steps, d))
        x_block, states_block = x[: steps + 1], states[:, : steps + 1]
        x_prev = states_block[:, :-1]
        for chunk in chunks:
            x_block[0] = chunk.last
            _states_batch(chunk.a_last, chunk.b, noise, x_block)
            chunk.last[...] = x_block[-1]
            states_block[...] = x_block.transpose(2, 0, 1)
            # one (count, d, d) product alive at a time
            chunk.gamma += _gram(states_block[:, 1:], x_prev)
            chunk.sigma += _gram(x_prev, x_prev)
            if chunk.noise_gram is not None:
                chunk.noise_gram += _gram(noise, x_prev)
        del noise  # the next block is drawn with this one gone
    for chunk in chunks:
        chunk.sigma += np.swapaxes(chunk.sigma, 1, 2)
        chunk.sigma *= 0.5
        del chunk.last


def expected_gram(params: SystemParams) -> tuple[np.ndarray, float]:
    """Psi = sum_{k=1}^{N-1} (N-k) c c^T and its trace sum (N-k) |c|_F^2, c = A^(k-1) B.

    The walk itself; readers take its cached result, ``params.psi_info``.
    It takes one product per step, into a stack of every c; both weighted
    sums over k are then formed from the stack by ``cumsum``, which adds in
    k order from 0, as a loop would, so the bits do not depend on how numpy
    groups a sum. Raises ``PsiOverflowError`` when either sum is beyond
    float64 range.
    """
    n, d = params.n, params.d
    weights = np.arange(n - 1, 0, -1, dtype=float)  # N - k
    c = np.empty((n - 1, d, d))
    # a leading +0 row: Psi's sum starts from +0 as a running sum does, so even a zero's sign agrees
    terms = np.empty((n, d, d))
    terms[0] = 0.0
    # an overflow is reported once, below, not as numpy warnings from each step
    with np.errstate(over="ignore", invalid="ignore"):
        c[0] = params.b
        for k in range(1, n - 1):
            np.matmul(params.a, c[k - 1], out=c[k])
        np.matmul(c, np.swapaxes(c, 1, 2), out=terms[1:])
        terms[1:] *= weights[:, None, None]
        out = np.cumsum(terms, axis=0)[-1]
        total = float(np.cumsum(weights * (c * c).sum(axis=(1, 2)))[-1])
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
