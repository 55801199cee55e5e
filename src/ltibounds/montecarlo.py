"""Seeded Monte Carlo experiments checking the identities behind the bounds.

Each experiment is an ``Experiment``: a list of independent tasks (one per
chunk of trials, plus any deterministic input its reducer needs) and a
reducer of their results. ``run_experiments`` is the one runner. It puts the
tasks of every experiment it is given into one list, in order; with
``workers`` > 1 one process pool of ``min(workers, tasks)`` processes runs
the whole list, submitted in that order, otherwise it runs in this process,
in order. ``chunk_experiments`` lists the chunks before the inputs, so the
long tasks of an op go first and the short ones run beside them. Reducers
run in this process, in order, so the first exception in that order is the
one raised whatever the worker count. The public functions
(``empirical_risk``, ``identity_checks``, ...) run one experiment each; the
CLI ``verify`` command runs all of its experiments and its ``cr_bound`` in
one call, so one op opens at most one pool.

Psi, Psi^{-1/2} and (BB*)^{-1} are the values cached on ``SystemParams``.
Plans read them while they are built, in this process, so every task pickles
``params`` with them and A^(k-1)B is walked once per system.

One chunk task, ``_chunk``, serves every experiment on random draws. A
``ChunkPlan`` is a statistic and a reducer; its statistic reads a
``SimulatedChunk`` of the fixed system, a ``SimulatedChunk`` of one prior
draw of A per trial (the Bayes experiment, B = I), or the chunk's prior
draws (the prior-score identity). ``chunk_experiments`` gives several plans
one task per chunk, which draws the chunk's noise once and its prior once,
simulates each set of trajectories once, forms each Gram sum at most once
and computes every plan's statistic; ``verify`` runs all six of its Monte
Carlo experiments so, and the Bayes trajectories are driven by the same
noise as the fixed-system ones. Gram sums are BLAS products, so another
BLAS build or CPU kernel may change their last digits.

Determinism contract: a chunk holds ``_chunk_trials(N*d)`` trials, CHUNK or
fewer so that a chunk draws at most ``CHUNK_ELEMENTS`` noise numbers (a
chunk that draws no noise holds CHUNK). Chunk c draws each kind of
randomness (noise, the two Haar Gaussian stacks, the Beta singular values;
see ``rng``) from its own generator keyed by ``rng.child(c, kind)``, in
trial-major calls in trial order, so trial k's draws depend only on
``(seed, salt, k)`` and the chunk size, which depends only on N*d (stream
layout ``RNG_LAYOUT``). Per-trial statistics are written into
position-indexed arrays, and reductions run over those arrays with numpy's
pairwise summation. The worker count only decides where tasks run, so under
a fixed numpy/BLAS build reports are bit-identical for any ``workers``
value.

A chunk task draws its noise in one call and simulates all of its trials
at once; ``_chunk_trials`` caps that noise at ``CHUNK_ELEMENTS`` numbers, so
a worker's memory is set by that cap, not by the trial count. Within a chunk
the fixed-system states die before the prior-A states are made.

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
    _gram_sums,
    _ls_error,
    _states_batch,
    _sym,
    fisher_information,
)
from .rng import KIND_NOISE, Stream

# most trials of one chunk; a chunk of trajectories also draws at most
# CHUNK_ELEMENTS noise numbers (32 MB of float64); see _chunk_trials
CHUNK = 4096
CHUNK_ELEMENTS = 2**22
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


class Experiment(NamedTuple):
    """Independent tasks and the reducer of their results.

    A task is a picklable zero-argument callable: a ``functools.partial`` of
    a module-level function. ``reduce`` gets the task results in task order.
    """

    tasks: list[Callable[[], Any]]
    reduce: Callable[[list], Any]


def run_experiments(experiments: Sequence[Experiment | None], workers: int = 1) -> list:
    """The reduced result of each experiment, in order; None for a None experiment.

    The tasks of all ``experiments`` form one list, in order; a task object
    listed by several experiments runs once. With ``workers`` > 1 and more
    than one task, one process pool of ``min(workers, tasks)`` processes runs
    the whole list, submitted in order; otherwise the list runs in this
    process, in order. Reducers run here, each once its tasks are done, in
    order, so the first exception in (tasks, reducer) order is the one raised
    whatever the worker count; the pool is then shut down with its queued
    tasks cancelled.
    """
    # a None experiment has no task and reduces to None
    experiments = [Experiment([], lambda parts: None) if e is None else e for e in experiments]
    tasks = list(dict.fromkeys(t for e in experiments for t in e.tasks))
    size = min(workers, len(tasks))
    if size <= 1:
        done: dict = {}

        def result(task):
            if task not in done:
                done[task] = task()
            return done[task]

        return [e.reduce([result(t) for t in e.tasks]) for e in experiments]
    # imported here: bounds and single-process runs never load it
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=size)
    try:
        futures = {task: pool.submit(task) for task in tasks}
        return [e.reduce([futures[t].result() for t in e.tasks]) for e in experiments]
    finally:
        pool.shutdown(cancel_futures=True)


def _run(experiment: Experiment, workers: int):
    return run_experiments([experiment], workers)[0]


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
    """Noise (count, N, d), states (count, N+1, d) and Gram sums of one chunk's trials.

    ``a`` is shared by every trial or one per trial, (count, d, d).
    ``gamma`` and ``sigma`` are those of ``_gram_sums``; ``ls_error``
    (``_ls_error``) and ``noise_gram``, the per-trial
    sum_{i=1}^{N-1} e_i x_i^T, are formed on first use.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, noise: np.ndarray) -> None:
        self.a = a
        self.noise = noise
        self.states = _states_batch(a, b, noise)
        self.gamma, self.sigma = _gram_sums(self.states)

    @cached_property
    def ls_error(self) -> tuple[np.ndarray, np.ndarray]:
        return _ls_error(self.gamma, self.sigma, self.a)

    @cached_property
    def noise_gram(self) -> np.ndarray:
        return _gram(self.noise[:, 1:], self.states[:, 1:-1])


class Draws(NamedTuple):
    """The chunk streams the plans of one set of experiments read, and what they drive.

    Chunk c draws its noise, (count, n, d) standard normals, from
    ``noise.child(c, KIND_NOISE)``. The same noise drives the trajectories of
    the fixed system ``params`` and, with B = I, one trajectory per prior
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
    ``bayes`` one does, in one call. The fixed-A states die before the
    prior-A states are made.
    """
    out = {}
    if bayes or prior:
        sample = sample_prior_batch(draws.spec, draws.prior.child(index), count)
        out.update(_apply(prior, sample))
        a_stack = sample.a
        del sample  # the Haar factors die once the A stack and the score are formed
    if fixed or bayes:
        gen = draws.noise.child(index, KIND_NOISE).generator()
        noise = gen.standard_normal((count, draws.n, draws.d))
        if fixed:
            out.update(_apply(fixed, SimulatedChunk(draws.params.a, draws.params.b, noise)))
        if bayes:
            out.update(_apply(bayes, SimulatedChunk(a_stack, np.eye(draws.d), noise)))
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
# experiments: a plan (tasks and reducer) and the function that runs it
# ---------------------------------------------------------------------------

# what a plan's statistic reads; see ChunkPlan
FIXED, BAYES, PRIOR = "fixed", "bayes", "prior"


class ChunkPlan(NamedTuple):
    """An experiment on the draws of ``Draws``, before they are chunked.

    ``statistic`` maps the draws of its ``source`` to the arrays the reducer
    reads: the chunk's ``SimulatedChunk`` of the fixed system (``FIXED``) or
    of one prior draw of A per trial (``BAYES``), or its ``PriorSample``
    (``PRIOR``). ``reduce`` gets the results of the chunks, then those of
    the ``inputs`` tasks.
    """

    statistic: Callable[[Any], dict]
    inputs: list[Callable[[], Any]]
    reduce: Callable[[list], Any]
    source: str = FIXED


def chunk_experiments(
    draws: Draws, trials: int, plans: Sequence[ChunkPlan | None]
) -> list[Experiment | None]:
    """The experiments of ``plans``, all on one set of draws.

    One task per chunk draws its randomness once and computes every plan's
    statistic; every experiment lists those same task objects, so
    ``run_experiments`` runs each once. The chunks come before the inputs,
    so a pool gets the long tasks first. A chunk that simulates trajectories
    holds ``_chunk_trials(n * d)`` trials. A None plan gives a None experiment.
    """
    fixed, bayes, prior = (
        tuple(p.statistic for p in plans if p is not None and p.source == source)
        for source in (FIXED, BAYES, PRIOR)
    )
    size = _chunk_trials(draws.n * draws.d if fixed or bayes else 0)
    chunks = [
        partial(_chunk, draws, fixed, bayes, prior, index, count)
        for index, count in _chunk_ranges(trials, size)
    ]
    return [None if p is None else Experiment([*chunks, *p.inputs], p.reduce) for p in plans]


def trajectory_experiments(
    params: SystemParams, trials: int, rng: Stream, plans: Sequence[ChunkPlan | None]
) -> list[Experiment | None]:
    """``chunk_experiments`` of plans on trajectories of ``params`` driven by ``rng``."""
    return chunk_experiments(Draws(rng, params.n, params.d, params), trials, plans)


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

    return ChunkPlan(_risk_stats, [], reduce)


def empirical_risk(
    params: SystemParams, trials: int, rng: Stream, *, workers: int = 1
) -> RiskEstimate:
    """Monte Carlo mean of (A_hat - A)(A_hat - A)^T over independent trajectories."""
    plan = risk_plan(params, trials)
    return _run(trajectory_experiments(params, trials, rng, [plan])[0], workers)


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

    def reduce(parts) -> ConcentrationReport:
        devs = np.sort(_gather(parts[:-1], "dev")["dev"])
        deltas = tuple(delta1(params, t, parts[-1].l_ab) for t in levels)
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

    return ChunkPlan(partial(_concentration_stats, params.psi_inv_sqrt), [rate], reduce)


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
    return _run(trajectory_experiments(params, trials, rng, [plan])[0], workers)


def multiplication_plan(
    params: SystemParams, trials: int, rate: Callable[[], BoundReport]
) -> ChunkPlan:
    """Plan of ``multiplication_experiment``; ``rate`` as in ``concentration_plan``."""
    _require_trials(trials, MIN_CONCLUSIVE_TRIALS)

    def reduce(parts) -> MultiplicationResult:
        return MultiplicationResult(
            mc_value=float(_gather(parts[:-1], "mult")["mult"].mean()),
            bound_value=params.d * delta2(params, parts[-1].l_ab),
        )

    return ChunkPlan(partial(_multiplication_stats, params.psi_inv_sqrt), [rate], reduce)


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
    return _run(trajectory_experiments(params, trials, rng, [plan])[0], workers)


def dominance_plan(
    params: SystemParams,
    trials: int,
    epsilon: float,
    bound: Callable[[], BoundReport],
    *,
    bound_scale: float = 1.0,
) -> ChunkPlan:
    """Plan of ``dominance_check``; ``bound`` is the task returning the bound."""
    risk = risk_plan(params, trials)

    def reduce(parts) -> DominanceResult:
        estimate = risk.reduce(parts[:-1])
        report = parts[-1]
        if (report.epsilon_used, report.constant_used) != (epsilon, 1.0):
            raise ValueError(
                f"bound was computed at epsilon={report.epsilon_used}, "
                f"constant={report.constant_used}; need epsilon={epsilon}, constant=1.0"
            )
        diff = estimate.error_matrix - bound_scale * report.cr_matrix
        margin = float(np.linalg.eigvalsh(0.5 * (diff + diff.T))[0])
        return DominanceResult(holds=margin >= 0.0, margin=margin)

    return ChunkPlan(risk.statistic, [bound], reduce)


def dominance_check(
    params: SystemParams,
    trials: int,
    epsilon: float,
    rng: Stream,
    *,
    bound_scale: float = 1.0,
    grid_points: int = 4096,
    workers: int = 1,
) -> DominanceResult:
    """Loewner check of the empirical error matrix against the error bound.

    The bound, ``cr_bound(params, epsilon, constant=1.0, grid_points=grid_points)``,
    is evaluated beside the trials; ``bound_scale`` multiplies it and exists
    for negative controls (a 10x inflated bound must fail). ``margin`` is the
    smallest eigenvalue of (empirical - bound).
    """
    task = partial(cr_bound, params, epsilon, 1.0, grid_points=grid_points)
    plan = dominance_plan(params, trials, epsilon, task, bound_scale=bound_scale)
    return _run(trajectory_experiments(params, trials, rng, [plan])[0], workers)


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

    return ChunkPlan(_bayes_stats, [], reduce, BAYES)


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
    return _run(chunk_experiments(draws, trials, [bayes_plan(spec, n, trials)])[0], workers)


def norm_ineq_fuzz(d: int, trials: int, rng: Stream, *, workers: int = 1) -> float:
    """Worst slack of |u1 v1^T - u2 v2^T| <= |u1 - u2| + |v1 - v2| over random pairs."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    tasks = [partial(_norm_ineq_chunk, d, rng, *chunk) for chunk in _chunk_ranges(trials, CHUNK)]
    data = _run(Experiment(tasks, _gather), workers)
    return float(np.min(data["slack"]))


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

    The closed-form information is formed here: a reducer that filled a cache
    of ``params`` could race the pool thread still pickling it.
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

    return ChunkPlan(partial(_identity_stats, params, psi_inv), [], reduce)


def identity_checks(
    params: SystemParams, trials: int, rng: Stream, *, workers: int = 1
) -> list[CheckResult]:
    """Single-pass MC identity suite for one system.

    Three exact identities share the same simulated trajectories: the
    self-normalized mean d*I, the score outer-product mean equal to the
    closed-form information, and the zero score mean, each entrywise at 4
    standard errors.
    """
    return _run(trajectory_experiments(params, trials, rng, [identity_plan(params)])[0], workers)


def prior_identity_plan(spec: PriorSpec) -> ChunkPlan:
    """Plan of ``prior_identity_check``."""

    def reduce(parts) -> CheckResult:
        return _entrywise_check(
            "prior_score_identity", _gather(parts, "lhs")["lhs"], spec.d * np.eye(spec.d), 4.0
        )

    return ChunkPlan(partial(_prior_score_stats, spec), [], reduce, PRIOR)


def prior_identity_check(
    spec: PriorSpec, trials: int, rng: Stream, *, workers: int = 1
) -> CheckResult:
    """MC check of -E[A (grad log prior)^T] = d * I at 4 standard errors.

    Its chunks draw no noise, so each holds ``CHUNK`` trials.
    """
    draws = Draws(rng, 0, spec.d, prior=rng, spec=spec)
    return _run(chunk_experiments(draws, trials, [prior_identity_plan(spec)])[0], workers)
