"""Seeded Monte Carlo experiments checking the identities behind the bounds.

Each experiment is a ``ChunkPlan``: a per-chunk statistic and a reducer of
the chunks' results, plus at most one ``cr_bound`` task whose report the
reducer also reads. ``run_plans`` is the one runner. It lists one task per
chunk of trials, then each distinct bound task, and runs that list: with
``workers`` > 1 in one process pool of ``min(workers, tasks)`` processes,
submitted in list order, so the long chunk tasks go first and the short
bound beside them; otherwise in this process, in order. The reducers then
run in this process, in plan order, so the first exception in task order,
then in reducer order, is the one raised whatever the worker count. The
public functions (``empirical_risk``, ``identity_checks``, ...) run one plan
each; the CLI ``verify`` command runs all of its plans in one call, so one
op opens at most one pool.

Psi, Psi^{-1/2} and (BB*)^{-1} are the values cached on ``SystemParams``.
Plans read them while they are built, in this process, so every task pickles
``params`` with them and A^(k-1)B is walked once per system.

One chunk task, ``_chunk``, serves every experiment on random draws. A
plan's statistic reads a ``SimulatedChunk`` of the fixed system, a
``SimulatedChunk`` of one prior draw of A per trial (the Bayes experiment,
B = I), or the chunk's prior draws (the prior-score identity). ``run_plans``
gives several plans one task per chunk, which draws each block of the
chunk's noise once and its prior once, simulates each set of trajectories
once, forms each Gram sum at most once per block and computes every plan's
statistic; ``verify`` runs all six of its Monte Carlo experiments so, and
the Bayes trajectories are driven by the same noise as the fixed-system
ones. Gram sums are BLAS products, so another BLAS build or CPU kernel may
change their last digits.

Determinism contract: a chunk holds ``_chunk_trials(N*d)`` trials, CHUNK or
fewer so that a chunk draws at most ``CHUNK_ELEMENTS`` noise numbers (a
chunk that draws no noise holds CHUNK). Chunk c draws each kind of prior
randomness (the two Haar Gaussian stacks, the Beta singular values; see
``rng``) from its own generator keyed by ``rng.child(c, kind)``, and block
j of its noise from ``rng.child(c, KIND_NOISE, j)``, each in one
trial-major call, so trial k's draws depend only on ``(seed, salt, k)`` and
the chunk size, which depends only on N*d (stream layout ``RNG_LAYOUT``).
Per-trial statistics are written into position-indexed arrays, and
reductions run over those arrays with numpy's pairwise summation. The
worker count only decides where tasks run, so under a fixed numpy/BLAS build
reports are bit-identical for any ``workers`` value.

A chunk task simulates all of its trials at once, ``BLOCK`` time steps at a
time: it draws one block of noise, (count, min(N, BLOCK), d), advances each
set of trajectories through it in one shared buffer of BLOCK+1 states per
trial, and drops it before the next block is drawn (``SimulatedChunk``).
So a worker holds one block of noise and one block of states, never a
chunk's noise or a (count, N+1, d) state array, and its memory does not
grow with N. The blocks' partial Gram sums are added in time order: for
N > BLOCK their last digits depend on BLOCK, never on the worker count.

Trials whose sample covariance is singular (probability zero for genuine
Gaussian data with N >= d+1) are counted and excluded; an experiment fails
outright if they exceed one per thousand.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Any, NamedTuple

import numpy as np

from .bounds import BoundReport, cr_bound, delta1, delta2
from .minimax import (
    PriorSample,
    PriorSpec,
    sample_prior_batch,
    score_identity_lhs,
    van_trees_bound,
)
from .model import (
    SystemParams,
    _data_score,
    _gram,
    _ls_error,
    _states_batch,
    _sym,
    fisher_information,
)
from .rng import KIND_NOISE, Stream

# most trials of one chunk; a chunk of trajectories also draws at most
# CHUNK_ELEMENTS noise numbers in all (see _chunk_trials). That bounds a
# chunk's work and sets how an op splits into tasks over the workers; a
# chunk's memory is one block of it (see BLOCK)
CHUNK = 4096
CHUNK_ELEMENTS = 2**22
# time steps per block: a chunk draws its noise, and advances its
# trajectories, one block at a time; see _chunk and SimulatedChunk
BLOCK = 64
# fewest trials: of the risk experiment, and of a conclusive 4-SE check and
# every other experiment
MIN_RISK_TRIALS = 100
MIN_CONCLUSIVE_TRIALS = 1000


class AllTrialsSingularError(RuntimeError):
    """Every trial produced a singular sample covariance."""


class TooManySingularTrialsError(RuntimeError):
    """Singular-covariance rejections exceeded the 0.1% audit threshold."""


@dataclass(frozen=True)
class RiskEstimate:
    """Monte Carlo estimate of the error matrix E (A_hat - A)(A_hat - A)^T."""

    error_matrix: np.ndarray
    mse: float
    trials: int
    mse_std_error: float
    failed_trials: int


@dataclass(frozen=True)
class ConcentrationReport:
    """Empirical tail of the rescaled sample-covariance deviation."""

    deviations: np.ndarray
    t_levels: tuple[float, ...]
    empirical_exceedance: tuple[float, ...]
    delta1_levels: tuple[float, ...]
    fitted_constant: float


@dataclass(frozen=True)
class CheckResult:
    """One verification row: a Monte Carlo value against its exact target.

    ``passed`` is None when the trial count is too small for the
    standard-error criterion to mean anything (inconclusive, not failed).
    ``statistic`` is the worst entrywise deviation from the target in
    standard-error units.
    """

    name: str
    passed: bool | None
    statistic: float
    threshold: float
    value: float
    target: float
    std_error: float


class DominanceResult(NamedTuple):
    holds: bool
    margin: float


class MultiplicationResult(NamedTuple):
    mc_value: float
    bound_value: float


class BayesRiskResult(NamedTuple):
    bayes_mse: float
    vt_bound: float


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def _run_tasks(tasks: list[Callable[[], Any]], workers: int = 1) -> list:
    """The result of each task, in order.

    A task is a picklable zero-argument callable: a ``functools.partial`` of
    a module-level function. With ``workers`` > 1 and more than one task,
    one process pool of ``min(workers, tasks)`` processes runs them,
    submitted in order; otherwise they run in this process, in order. Either
    way the first exception in task order is the one raised; the pool is
    then shut down with its queued tasks cancelled.
    """
    size = min(workers, len(tasks))
    if size <= 1:
        return [task() for task in tasks]
    # imported here: bounds and single-process runs never load it
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=size)
    try:
        futures = [pool.submit(task) for task in tasks]
        return [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# chunk tasks
# ---------------------------------------------------------------------------


def _chunk_trials(noise_per_trial: int) -> int:
    """Trials of one chunk whose trials draw ``noise_per_trial`` noise numbers each.

    ``CHUNK``, or fewer so that a chunk draws at most ``CHUNK_ELEMENTS`` noise
    numbers (at least one trial); a chunk that draws no noise holds ``CHUNK``.
    """
    return min(CHUNK, max(1, CHUNK_ELEMENTS // max(1, noise_per_trial)))


def _chunk_ranges(trials: int, size: int) -> list[tuple[int, int]]:
    """(index, count) of each chunk of ``size`` trials; chunk c starts at trial c * size."""
    return [(start // size, min(size, trials - start)) for start in range(0, trials, size)]


def _gather(parts: list[dict[str, np.ndarray]], *keys: str) -> dict[str, np.ndarray]:
    """The parts' arrays ``keys`` (default all) joined on the trial axis; one part as is."""
    if len(parts) == 1:
        return parts[0]
    return {k: np.concatenate([p[k] for p in parts], axis=0) for k in keys or parts[0]}


class SimulatedChunk:
    """Per-trial Gram sums of one chunk's trajectories, fed one block of noise at a time.

    ``a`` is shared by every trial or one per trial, (count, d, d). Each
    ``advance`` runs the trajectories through one (count, m, d) block of
    noise in a caller's buffer of (count, m+1, d) states, starting from
    ``last``, the last state of the block before (x_0 = 0 for the first),
    and adds the block's partial sums to ``gamma`` = sum x_i x_{i-1}^T and
    ``sigma`` = sum x_{i-1} x_{i-1}^T and, only when ``noise_gram`` is set,
    to ``noise_gram``, the per-trial sum e_i x_i^T over the block's own
    steps (the i = 0 term is zero, as x_0 = 0). Only ``last``, (count, d),
    outlives a block.
    ``finish`` ends the trajectories; the statistics read the sums after it.
    ``ls_error`` (``_ls_error``) is formed on first use.
    """

    def __init__(
        self, a: np.ndarray, b: np.ndarray, count: int, d: int, *, noise_gram: bool = False
    ) -> None:
        self.a, self.b = a, b
        self.last = np.zeros((count, d))
        self.gamma, self.sigma = np.zeros((count, d, d)), np.zeros((count, d, d))
        if noise_gram:
            self.noise_gram = np.zeros((count, d, d))

    def advance(self, noise: np.ndarray, states: np.ndarray) -> None:
        states[:, 0] = self.last
        _states_batch(self.a, self.b, noise, states)
        self.last[...] = states[:, -1]
        # one (count, d, d) product alive at a time; finish symmetrizes sigma
        x_prev = states[:, :-1]
        self.gamma += _gram(states[:, 1:], x_prev)
        self.sigma += _gram(x_prev, x_prev)
        if hasattr(self, "noise_gram"):
            self.noise_gram += _gram(noise, x_prev)

    def finish(self) -> None:
        """Symmetrize ``sigma`` in place (bitwise ``_sym``) and drop ``last``.

        In place, so the statistics, and the pickling of their results, run
        beside the sums alone.
        """
        self.sigma += np.swapaxes(self.sigma, 1, 2)
        self.sigma *= 0.5
        del self.last

    @cached_property
    def ls_error(self) -> tuple[np.ndarray, np.ndarray]:
        return _ls_error(self.gamma, self.sigma, self.a)


class Draws(NamedTuple):
    """The chunk streams the plans of one set of experiments read, and what they drive.

    Chunk c draws its noise one block of m <= ``BLOCK`` steps at a time:
    block j is (count, m, d) standard normals from
    ``noise.child(c, KIND_NOISE, j)``. The same noise drives the trajectories
    of the fixed system ``params`` and, with B = I, one trajectory per prior
    draw of A. Chunk c draws from the prior ``spec`` once, under
    ``prior.child(c)``, for the prior score and the Bayes trajectories alike.
    ``n`` is 0 when no plan reads trajectories.
    """

    noise: Stream
    n: int
    d: int
    params: SystemParams | None = None
    prior: Stream | None = None
    spec: PriorSpec | None = None


def _apply(stats: tuple, data) -> dict[str, np.ndarray]:
    return {key: value for stat in stats for key, value in stat(data).items()}


def _chunk(
    draws: Draws, fixed: tuple, bayes: tuple, prior: tuple, index: int, count: int
) -> dict[str, np.ndarray]:
    """Every statistic of chunk ``index`` (``count`` trials), in one dict.

    ``fixed`` and ``bayes`` are statistics of a ``SimulatedChunk`` of the fixed
    system and of the prior draws of A; ``prior`` are statistics of the
    chunk's ``PriorSample``. The prior is drawn only when a ``bayes`` or
    ``prior`` statistic reads it, and the noise only when a ``fixed`` or
    ``bayes`` one does. Each block of noise is drawn once and advances both
    sets of trajectories in one shared buffer of states, so no worker holds
    more than one block of noise. The fixed system's sum e_i x_i^T is formed
    only when a ``fixed`` statistic reads it; no ``bayes`` one does.
    """
    out = {}
    if bayes or prior:
        sample = sample_prior_batch(draws.spec, draws.prior.child(index), count)
        out.update(_apply(prior, sample))
        a_stack = sample.a
        del sample  # the Haar factors die once the A stack and the score are formed
    if not (fixed or bayes):
        return out
    n, d = draws.n, draws.d
    chunks = []
    if fixed:
        params = draws.params
        fixed_chunk = SimulatedChunk(
            params.a, params.b, count, d, noise_gram=_reads_noise_gram(fixed)
        )
        chunks.append(fixed_chunk)
    if bayes:
        bayes_chunk = SimulatedChunk(a_stack, np.eye(d), count, d)
        chunks.append(bayes_chunk)
    states = np.empty((count, min(n, BLOCK) + 1, d))
    noise_stream = draws.noise.child(index, KIND_NOISE)
    for block, start in enumerate(range(0, n, BLOCK)):
        steps = min(BLOCK, n - start)
        noise = noise_stream.child(block).generator().standard_normal((count, steps, d))
        for chunk in chunks:
            chunk.advance(noise, states[:, : steps + 1])
        del noise  # the next block is drawn with this one gone
    for chunk in chunks:
        chunk.finish()
    del chunks, states
    if fixed:
        out.update(_apply(fixed, fixed_chunk))
        del fixed_chunk  # its sums and least-squares errors die before the Bayes statistics run
    if bayes:
        out.update(_apply(bayes, bayes_chunk))
    return out


def _mse_stats(chunk: SimulatedChunk) -> dict[str, np.ndarray]:
    failed, diff = chunk.ls_error
    return {"failed": failed, "mse": np.einsum("tij,tij->t", diff, diff)}


def _risk_stats(chunk: SimulatedChunk) -> dict[str, np.ndarray]:
    diff = chunk.ls_error[1]
    # err before mse: the other order lifts a d=2 pool worker's peak RSS 1.2 MB (heap layout)
    return {"err": np.einsum("tij,tkj->tik", diff, diff), **_mse_stats(chunk)}


def _bayes_stats(chunk: SimulatedChunk) -> dict[str, np.ndarray]:
    return {f"bayes_{key}": value for key, value in _mse_stats(chunk).items()}


def _identity_stats(
    params: SystemParams, psi_inv: np.ndarray, chunk: SimulatedChunk
) -> dict[str, np.ndarray]:
    score = _data_score(params, chunk.gamma, chunk.sigma)
    p = chunk.noise_gram
    return {
        "selfnorm": np.einsum("tij,jk,tlk->til", p, psi_inv, p),
        "score": score,
        "fisher": np.einsum("tij,tkj->tik", score, score),
    }


def _concentration_stats(w: np.ndarray, chunk: SimulatedChunk) -> dict[str, np.ndarray]:
    # x_0 = 0, so sigma is also sum_{i=1}^{N-1} x_i x_i^T
    y = np.einsum("ij,tjk,kl->til", w, chunk.sigma, w) - np.eye(len(w))
    return {"dev": np.max(np.abs(np.linalg.eigvalsh(_sym(y))), axis=1)}


def _multiplication_stats(w: np.ndarray, chunk: SimulatedChunk) -> dict[str, np.ndarray]:
    g = np.einsum("ij,tkj->tik", w, chunk.noise_gram)
    return {"mult": np.linalg.svd(g, compute_uv=False)[:, 0] ** 2}


# the statistics that read a SimulatedChunk's noise_gram, as a chunk lists them
_NOISE_GRAM_READERS = frozenset({_identity_stats, _multiplication_stats})


def _reads_noise_gram(stats: tuple) -> bool:
    return any(getattr(stat, "func", stat) in _NOISE_GRAM_READERS for stat in stats)


def _prior_score_stats(spec: PriorSpec, sample: PriorSample) -> dict[str, np.ndarray]:
    return {"lhs": score_identity_lhs(sample, spec)}


def _norm_ineq_chunk(d: int, rng: Stream, index: int, count: int) -> dict[str, np.ndarray]:
    vecs = rng.child(index, KIND_NOISE).generator().standard_normal((count, 4, d))
    vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
    u1, v1, u2, v2 = vecs[:, 0], vecs[:, 1], vecs[:, 2], vecs[:, 3]
    m = np.einsum("ti,tj->tij", u1, v1) - np.einsum("ti,tj->tij", u2, v2)
    lhs = np.linalg.svd(m, compute_uv=False)[:, 0]
    rhs = np.linalg.norm(u1 - u2, axis=1) + np.linalg.norm(v1 - v2, axis=1)
    return {"slack": rhs - lhs}


# ---------------------------------------------------------------------------
# experiments: a plan (statistic, reducer and bound task) and the function that runs it
# ---------------------------------------------------------------------------

# what a plan's statistic reads; see ChunkPlan
FIXED, BAYES, PRIOR = "fixed", "bayes", "prior"


class ChunkPlan(NamedTuple):
    """An experiment on the draws of ``Draws``, before they are chunked.

    ``statistic`` maps the draws of its ``source`` to the arrays the reducer
    reads: the chunk's ``SimulatedChunk`` of the fixed system (``FIXED``) or
    of one prior draw of A per trial (``BAYES``), or its ``PriorSample``
    (``PRIOR``). ``reduce`` gets the list of the chunks' results and, when
    ``bound`` is a ``cr_bound`` task, that task's report after it.
    """

    statistic: Callable[[Any], dict]
    reduce: Callable[..., Any]
    source: str = FIXED
    bound: Callable[[], BoundReport] | None = None


def _chunks(draws: Draws, trials: int, plans: Sequence[ChunkPlan]) -> list[Callable[[], dict]]:
    """One ``_chunk`` task per chunk of ``trials``, computing every plan's statistic.

    A chunk that simulates trajectories holds ``_chunk_trials(n * d)`` trials.
    """
    fixed, bayes, prior = (
        tuple(p.statistic for p in plans if p.source == source)
        for source in (FIXED, BAYES, PRIOR)
    )
    size = _chunk_trials(draws.n * draws.d if fixed or bayes else 0)
    return [
        partial(_chunk, draws, fixed, bayes, prior, index, count)
        for index, count in _chunk_ranges(trials, size)
    ]


def run_plans(
    draws: Draws, trials: int, plans: Sequence[ChunkPlan | None], workers: int = 1
) -> list:
    """The reduced result of each plan, in order; None for a None plan.

    Every plan reads one set of chunk tasks, each run once. Each distinct
    bound task (plans may share one) runs once, after the chunks, so a pool
    gets the long tasks first; ``_run_tasks`` runs the list. The reducers run
    after every task is done, so a task's error comes before any reducer's.
    """
    live = [p for p in plans if p is not None]
    chunks = _chunks(draws, trials, live)
    bounds = list(dict.fromkeys(p.bound for p in live if p.bound is not None))
    results = _run_tasks([*chunks, *bounds], workers)
    parts, reports = results[: len(chunks)], dict(zip(bounds, results[len(chunks) :]))

    def reduce(plan: ChunkPlan):
        return plan.reduce(parts) if plan.bound is None else plan.reduce(parts, reports[plan.bound])

    return [None if p is None else reduce(p) for p in plans]


def _require_trials(trials: int, minimum: int) -> None:
    if trials < minimum:
        raise ValueError(f"trials must be >= {minimum}, got {trials}")


def _accepted_trials(failed: np.ndarray, what: str) -> int:
    """Trials not rejected as singular; raises when all are, or more than 0.1%."""
    trials, rejected = len(failed), int(np.sum(failed))
    if rejected == trials:
        raise AllTrialsSingularError(
            f"all {what} had singular sample covariance; check N >= d+1 and params"
        )
    if rejected > 0.001 * trials:
        raise TooManySingularTrialsError(
            f"{rejected} of {trials} {what} had singular sample covariance"
        )
    return trials - rejected


def risk_plan(params: SystemParams, trials: int) -> ChunkPlan:
    """Plan of ``empirical_risk``."""
    _require_trials(trials, MIN_RISK_TRIALS)

    def reduce(parts) -> RiskEstimate:
        data = _gather(parts, "failed", "err", "mse")
        n_ok = _accepted_trials(data["failed"], "trials")
        error_matrix = np.sum(data["err"], axis=0) / n_ok
        error_matrix = 0.5 * (error_matrix + error_matrix.T)
        mses = data["mse"][~data["failed"]]
        std_error = float(mses.std(ddof=1) / math.sqrt(n_ok)) if n_ok > 1 else float("inf")
        return RiskEstimate(
            error_matrix=error_matrix,
            mse=float(np.trace(error_matrix)),
            trials=n_ok,
            mse_std_error=std_error,
            failed_trials=trials - n_ok,
        )

    return ChunkPlan(_risk_stats, reduce)


def empirical_risk(
    params: SystemParams, trials: int, rng: Stream, *, workers: int = 1
) -> RiskEstimate:
    """Monte Carlo mean of (A_hat - A)(A_hat - A)^T over independent trajectories."""
    draws = Draws(rng, params.n, params.d, params)
    return run_plans(draws, trials, [risk_plan(params, trials)], workers)[0]


def _rate_task(params: SystemParams, grid_points: int) -> Callable[[], BoundReport]:
    """A ``cr_bound`` task for a plan that reads only its ``l_ab``, which no epsilon moves."""
    return partial(cr_bound, params, 0.5, grid_points=grid_points)


def concentration_plan(
    params: SystemParams, trials: int, t_levels: list[float], rate: Callable[[], BoundReport]
) -> ChunkPlan:
    """Plan of ``concentration_experiment``.

    The statistic needs only ``params.psi_inv_sqrt``, formed here, so an
    ill-conditioned Psi raises before any task runs. ``rate`` is a
    ``cr_bound`` task; only the reducer reads its ``l_ab``, so the chunks
    need not wait for it.
    """
    _require_trials(trials, MIN_CONCLUSIVE_TRIALS)
    levels = tuple(sorted(float(t) for t in t_levels))
    if not levels or levels[0] <= 0:
        raise ValueError(f"t_levels must be positive, got {t_levels}")

    def reduce(parts, report: BoundReport) -> ConcentrationReport:
        devs = np.sort(_gather(parts, "dev")["dev"])
        deltas = tuple(delta1(params, t, report.l_ab) for t in levels)
        fitted = 0.0
        for t, delta in zip(levels, deltas):
            allowed = int(math.floor(math.exp(-t) * trials))
            if allowed >= trials:
                continue
            # smallest threshold leaving at most `allowed` strict exceedances
            threshold = devs[trials - 1 - allowed]
            fitted = max(fitted, threshold / delta)
        exceedance = tuple(
            float(np.mean(devs > fitted * delta)) for delta in deltas
        )
        return ConcentrationReport(
            deviations=devs,
            t_levels=levels,
            empirical_exceedance=exceedance,
            delta1_levels=deltas,
            fitted_constant=fitted,
        )

    return ChunkPlan(partial(_concentration_stats, params.psi_inv_sqrt), reduce, bound=rate)


def concentration_experiment(
    params: SystemParams,
    trials: int,
    t_levels: list[float],
    rng: Stream,
    *,
    grid_points: int = 4096,
    workers: int = 1,
) -> ConcentrationReport:
    """Tail of |Psi^{-1/2} (sum x_i x_i^T) Psi^{-1/2} - I| against c * Delta1(t).

    Fits the smallest constant c making the exceedance of c * Delta1(t) at
    most e^{-t} for every requested level; the fit is descriptive (the true
    constant is not quantified), so this report carries no pass/fail by
    itself.
    """
    plan = concentration_plan(params, trials, t_levels, _rate_task(params, grid_points))
    return run_plans(Draws(rng, params.n, params.d, params), trials, [plan], workers)[0]


def multiplication_plan(
    params: SystemParams, trials: int, rate: Callable[[], BoundReport]
) -> ChunkPlan:
    """Plan of ``multiplication_experiment``; ``rate`` as in ``concentration_plan``."""
    _require_trials(trials, MIN_CONCLUSIVE_TRIALS)

    def reduce(parts, report: BoundReport) -> MultiplicationResult:
        return MultiplicationResult(
            mc_value=float(_gather(parts, "mult")["mult"].mean()),
            bound_value=params.d * delta2(params, report.l_ab),
        )

    return ChunkPlan(partial(_multiplication_stats, params.psi_inv_sqrt), reduce, bound=rate)


def multiplication_experiment(
    params: SystemParams,
    trials: int,
    rng: Stream,
    *,
    grid_points: int = 4096,
    workers: int = 1,
) -> MultiplicationResult:
    """MC mean of |Psi^{-1/2} sum x_i e_i^T|^2 against the rate d * Delta2 = d^2 L."""
    plan = multiplication_plan(params, trials, _rate_task(params, grid_points))
    return run_plans(Draws(rng, params.n, params.d, params), trials, [plan], workers)[0]


def dominance_plan(
    params: SystemParams, trials: int, bound: Callable[[], BoundReport]
) -> ChunkPlan:
    """Plan of ``dominance_check``; ``bound`` is the task returning the bound it checks."""
    risk = risk_plan(params, trials)

    def reduce(parts, report: BoundReport) -> DominanceResult:
        diff = risk.reduce(parts).error_matrix - report.cr_matrix
        margin = float(np.linalg.eigvalsh(0.5 * (diff + diff.T))[0])
        return DominanceResult(holds=margin >= 0.0, margin=margin)

    return ChunkPlan(risk.statistic, reduce, bound=bound)


def dominance_check(
    params: SystemParams,
    trials: int,
    epsilon: float,
    rng: Stream,
    *,
    grid_points: int = 4096,
    workers: int = 1,
) -> DominanceResult:
    """Loewner check of the empirical error matrix against the error bound.

    The bound, ``cr_bound(params, epsilon, grid_points=grid_points)`` (C = 1),
    is evaluated beside the trials. ``margin`` is the smallest eigenvalue of
    (empirical - bound).
    """
    plan = dominance_plan(params, trials, partial(cr_bound, params, epsilon, grid_points=grid_points))
    return run_plans(Draws(rng, params.n, params.d, params), trials, [plan], workers)[0]


def bayes_plan(spec: PriorSpec, n: int, trials: int) -> ChunkPlan:
    """Plan of ``bayes_risk_experiment``; its trajectories have ``n`` steps."""
    _require_trials(trials, MIN_CONCLUSIVE_TRIALS)
    if n < spec.d + 1:
        raise ValueError(f"n must be >= d + 1 = {spec.d + 1}, got {n}")

    def reduce(parts) -> BayesRiskResult:
        data = _gather(parts, "bayes_failed", "bayes_mse")
        n_ok = _accepted_trials(data["bayes_failed"], "Bayes trials")
        bayes_mse = float(np.sum(data["bayes_mse"]) / n_ok)
        return BayesRiskResult(
            bayes_mse=bayes_mse, vt_bound=van_trees_bound(spec.d, n, spec.s, spec.eps)
        )

    return ChunkPlan(_bayes_stats, reduce, BAYES)


def bayes_risk_experiment(
    spec: PriorSpec, n: int, trials: int, rng: Stream, *, workers: int = 1
) -> BayesRiskResult:
    """Bayes MSE of least squares under the prior, against the Bayesian bound.

    Per trial: draw A from the prior, fix B = I, simulate N transitions, run
    least squares, record the squared error. Any estimator's Bayes risk is
    bounded below by the van Trees value, so least squares' must be too.
    ``rng`` keys both the noise and the prior draws.
    """
    draws = Draws(rng, n, spec.d, prior=rng, spec=spec)
    return run_plans(draws, trials, [bayes_plan(spec, n, trials)], workers)[0]


def norm_ineq_fuzz(d: int, trials: int, rng: Stream, *, workers: int = 1) -> float:
    """Worst slack of |u1 v1^T - u2 v2^T| <= |u1 - u2| + |v1 - v2| over random pairs."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    tasks = [partial(_norm_ineq_chunk, d, rng, *chunk) for chunk in _chunk_ranges(trials, CHUNK)]
    return float(np.min(_gather(_run_tasks(tasks, workers))["slack"]))


# ---------------------------------------------------------------------------
# check suite (shared by the CLI verify command and the acceptance tests)
# ---------------------------------------------------------------------------


def _entrywise_check(
    name: str, samples: np.ndarray, target: np.ndarray, n_se: float
) -> CheckResult:
    trials = samples.shape[0]
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / math.sqrt(trials)
    with np.errstate(divide="ignore", invalid="ignore"):
        units = np.abs(mean - target) / se
    units = np.where(np.abs(mean - target) == 0.0, 0.0, units)
    worst = float(np.max(units))
    return CheckResult(
        name=name,
        passed=bool(worst <= n_se) if trials >= MIN_CONCLUSIVE_TRIALS else None,
        statistic=worst,
        threshold=n_se,
        value=float(np.trace(np.atleast_2d(mean))),
        target=float(np.trace(np.atleast_2d(target))),
        std_error=float(np.max(se)),
    )


def identity_plan(params: SystemParams) -> ChunkPlan:
    """Plan of ``identity_checks``.

    The closed-form information is formed here, not in the reducer: that fills
    ``params.noise_cov_inv`` before the chunk tasks pickle ``params``, so the
    workers' ``_data_score`` reads (BB*)^{-1} instead of each solving for it.
    """
    d = params.d
    psi_inv = np.linalg.solve(params.psi_info[0], np.eye(d))
    fisher = fisher_information(params)

    def reduce(parts) -> list[CheckResult]:
        data = _gather(parts, "selfnorm", "fisher", "score")
        return [
            _entrywise_check("selfnorm_identity", data["selfnorm"], d * np.eye(d), 4.0),
            _entrywise_check("fisher_information", data["fisher"], fisher, 4.0),
            _entrywise_check("score_mean_zero", data["score"], np.zeros((d, d)), 4.0),
        ]

    return ChunkPlan(partial(_identity_stats, params, psi_inv), reduce)


def identity_checks(
    params: SystemParams, trials: int, rng: Stream, *, workers: int = 1
) -> list[CheckResult]:
    """Single-pass MC identity suite for one system.

    Three exact identities share the same simulated trajectories: the
    self-normalized mean d*I, the score outer-product mean equal to the
    closed-form information, and the zero score mean, each entrywise at 4
    standard errors.
    """
    draws = Draws(rng, params.n, params.d, params)
    return run_plans(draws, trials, [identity_plan(params)], workers)[0]


def prior_identity_plan(spec: PriorSpec) -> ChunkPlan:
    """Plan of ``prior_identity_check``."""

    def reduce(parts) -> CheckResult:
        return _entrywise_check(
            "prior_score_identity", _gather(parts, "lhs")["lhs"], spec.d * np.eye(spec.d), 4.0
        )

    return ChunkPlan(partial(_prior_score_stats, spec), reduce, PRIOR)


def prior_identity_check(
    spec: PriorSpec, trials: int, rng: Stream, *, workers: int = 1
) -> CheckResult:
    """MC check of -E[A (grad log prior)^T] = d * I at 4 standard errors.

    Its chunks draw no noise, so each holds ``CHUNK`` trials.
    """
    draws = Draws(rng, 0, spec.d, prior=rng, spec=spec)
    return run_plans(draws, trials, [prior_identity_plan(spec)], workers)[0]
