"""Seeded Monte Carlo experiments checking the identities behind the bounds.

Each experiment is an ``Experiment``: a list of independent tasks (one per
chunk of ``CHUNK`` trials, plus any deterministic input its reducer needs)
and a reducer of their results. ``run_experiments`` is the one runner. It
puts the tasks of every experiment it is given into one list; with
``workers`` > 1 one process pool of ``min(workers, tasks)`` processes runs
the whole list, otherwise it runs in this process, in order. Reducers run
in this process, in order, so the first exception in that order is the one
raised whatever the worker count. The public functions (``empirical_risk``,
``identity_checks``, ...) run one experiment each; the CLI ``verify`` command
runs all of its experiments and its ``cr_bound`` in one call, so one op
opens at most one pool.

Psi, Psi^{-1/2} and (BB*)^{-1} are the values cached on ``SystemParams``.
Plans read them while they are built, in this process, so every task pickles
``params`` with them and A^(k-1)B is walked once per system.

Determinism contract: chunk c draws each kind of randomness (noise, the two
Haar Gaussian stacks, the Beta singular values; see ``rng``) from its own
generator keyed by ``rng.child(c, kind)``, in trial-major calls in trial
order, so trial k's draws depend only on ``(seed, salt, k)`` (stream layout
``RNG_LAYOUT``). Per-trial statistics are written into position-indexed
arrays, and reductions run over those arrays with numpy's pairwise
summation. The worker count only decides where tasks run, so under a fixed
numpy/BLAS build reports are bit-identical for any ``workers`` value.

One kernel serves every trajectory experiment: the batched recursion, Gram
sums, least squares and score of ``model``. A ``TrajectoryPlan`` is a
statistic of a ``SimulatedChunk`` and a reducer. ``trajectory_experiments``
gives several plans one task per chunk that simulates it once, forms each
Gram sum at most once and computes every plan's statistic; ``verify`` runs
its identity, dominance, concentration and multiplication experiments so.
``_bayes_chunk`` draws one A per trial and runs the same block loop with one
statistic, the squared least-squares error. Gram sums are BLAS products, so
another BLAS build or CPU kernel may change their last digits.

A chunk task simulates its trials in consecutive blocks of at most
``BLOCK_ELEMENTS`` noise numbers (``_noise_blocks``) and computes each
block's per-trial statistics before it draws the next, so a worker holds
one block's noise and states, not the whole chunk's: its memory is set by
the block size, not by ``CHUNK``. The blocks come in order from the chunk's
one noise generator and each trial's statistics depend only on its own
data, so the block size changes no draw and no report byte.

Trials whose sample covariance is singular (probability zero for genuine
Gaussian data with N >= d+1) are counted and excluded; an experiment fails
outright if they exceed one per thousand.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Any, NamedTuple

import numpy as np

from .bounds import BoundReport, cr_bound, delta1, delta2
from .minimax import PriorSpec, sample_prior_batch, score_identity_lhs, van_trees_bound
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

CHUNK = 4096
# numbers per noise block (32 MB of float64); see _noise_blocks
BLOCK_ELEMENTS = 2**22
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
    the whole list; otherwise the list runs in this process, in order.
    The pool gets the chunks that simulate trajectories, the longest tasks
    of an op, first and the short tasks after them, so the short ones run
    beside the long ones instead of holding one back to the end. Reducers
    run here, each once its tasks are done, in order, so the first exception
    in (tasks, reducer) order is the one raised whatever the worker count or
    submission order; the pool is then shut down with its queued tasks
    cancelled.
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
        futures = {task: pool.submit(task) for task in sorted(tasks, key=_short)}
        return [e.reduce([futures[t].result() for t in e.tasks]) for e in experiments]
    finally:
        pool.shutdown(cancel_futures=True)


def _short(task: Callable[[], Any]) -> bool:
    """False for the chunk tasks that simulate trajectories, True for the rest."""
    return getattr(task, "func", None) not in (_trajectory_chunk, _bayes_chunk)


def _run(experiment: Experiment, workers: int):
    return run_experiments([experiment], workers)[0]


# ---------------------------------------------------------------------------
# chunk tasks
# ---------------------------------------------------------------------------


def _chunk_ranges(trials: int) -> list[tuple[int, int]]:
    return [(start, min(CHUNK, trials - start)) for start in range(0, trials, CHUNK)]


def _chunk_tasks(fn, trials: int, *args) -> list[Callable[[], Any]]:
    """One task per chunk: ``fn(*args, start, count)``."""
    return [partial(fn, *args, start, count) for start, count in _chunk_ranges(trials)]


def _gather(parts: list[dict[str, np.ndarray]], *keys: str) -> dict[str, np.ndarray]:
    """The parts' arrays ``keys`` (default all) joined on the trial axis; one part as is."""
    if len(parts) == 1:
        return parts[0]
    return {k: np.concatenate([p[k] for p in parts], axis=0) for k in keys or parts[0]}


def _chunk_stream(rng: Stream, start: int) -> Stream:
    """Stream of the chunk that starts at trial ``start``; kinds are its children."""
    return rng.child(start // CHUNK)


def _noise_generator(rng: Stream, start: int) -> np.random.Generator:
    """The one generator of the noise of the chunk that starts at trial ``start``."""
    return _chunk_stream(rng, start).child(KIND_NOISE).generator()


def _noise_chunk(rng: Stream, start: int, count: int, n: int, d: int) -> np.ndarray:
    return _noise_generator(rng, start).standard_normal((count, n, d))


def _noise_blocks(
    rng: Stream, start: int, count: int, n: int, d: int
) -> Iterator[tuple[int, np.ndarray]]:
    """The chunk's noise in consecutive blocks: (first trial, noise (size, n, d)).

    A block holds ``max(1, BLOCK_ELEMENTS // (n * d))`` trials, the last one
    fewer. Every block comes from the chunk's one noise generator, which
    fills arrays in order, so trial k gets the draws of ``_noise_chunk``.
    """
    gen = _noise_generator(rng, start)
    size = max(1, BLOCK_ELEMENTS // (n * d))
    for first in range(0, count, size):
        yield first, gen.standard_normal((min(size, count - first), n, d))


class SimulatedChunk:
    """Noise (count, N, d), states (count, N+1, d) and Gram sums of one block of trials.

    ``a`` is shared by every trial or one per trial, (count, d, d). A chunk is
    simulated one block of ``_noise_blocks`` at a time, so only one block's
    noise and states are alive at once. ``gamma`` and ``sigma`` are those of
    ``_gram_sums``; ``ls_error`` (``_ls_error``) and ``noise_gram``, the
    per-trial sum_{i=1}^{N-1} e_i x_i^T, are formed on first use.
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


def _chunk_stats(
    a: np.ndarray, b: np.ndarray, n: int, stats: tuple, rng: Stream, start: int, count: int
) -> dict[str, np.ndarray]:
    """Every statistic in ``stats`` of the chunk, simulated a block at a time.

    ``a`` is shared, or one per trial of the chunk and sliced per block.
    """
    parts = []
    for first, noise in _noise_blocks(rng, start, count, n, b.shape[0]):
        chunk = SimulatedChunk(a if a.ndim == 2 else a[first : first + len(noise)], b, noise)
        parts.append({key: value for stat in stats for key, value in stat(chunk).items()})
        del chunk  # the block's states die before the next block is drawn
    return _gather(parts)


def _trajectory_chunk(
    params: SystemParams, stats: tuple, rng: Stream, start: int, count: int
) -> dict[str, np.ndarray]:
    """Every statistic in ``stats`` of one simulation of the chunk, in one dict."""
    return _chunk_stats(params.a, params.b, params.n, stats, rng, start, count)


def _mse_stats(chunk: SimulatedChunk) -> dict[str, np.ndarray]:
    failed, diff = chunk.ls_error
    return {"failed": failed, "mse": np.einsum("tij,tij->t", diff, diff)}


def _risk_stats(chunk: SimulatedChunk) -> dict[str, np.ndarray]:
    diff = chunk.ls_error[1]
    # err before mse: the other order lifts a d=2 pool worker's peak RSS 1.2 MB (heap layout)
    return {"err": np.einsum("tij,tkj->tik", diff, diff), **_mse_stats(chunk)}


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


def _bayes_chunk(
    spec: PriorSpec, n: int, rng: Stream, start: int, count: int
) -> dict[str, np.ndarray]:
    """``_mse_stats`` of the chunk's trials, each with its own prior draw of A and B = I."""
    a_stack = sample_prior_batch(spec, _chunk_stream(rng, start), count).a
    return _chunk_stats(a_stack, np.eye(spec.d), n, (_mse_stats,), rng, start, count)


def _norm_ineq_chunk(d: int, rng: Stream, start: int, count: int) -> dict[str, np.ndarray]:
    vecs = _noise_chunk(rng, start, count, 4, d)
    vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
    u1, v1, u2, v2 = vecs[:, 0], vecs[:, 1], vecs[:, 2], vecs[:, 3]
    m = np.einsum("ti,tj->tij", u1, v1) - np.einsum("ti,tj->tij", u2, v2)
    lhs = np.linalg.svd(m, compute_uv=False)[:, 0]
    rhs = np.linalg.norm(u1 - u2, axis=1) + np.linalg.norm(v1 - v2, axis=1)
    return {"slack": rhs - lhs}


def _prior_identity_chunk(
    spec: PriorSpec, rng: Stream, start: int, count: int
) -> dict[str, np.ndarray]:
    sample = sample_prior_batch(spec, _chunk_stream(rng, start), count)
    return {"lhs": score_identity_lhs(sample, spec)}


# ---------------------------------------------------------------------------
# experiments: a plan (tasks and reducer) and the function that runs it
# ---------------------------------------------------------------------------


class TrajectoryPlan(NamedTuple):
    """An experiment on simulated trajectories, before they are chunked.

    ``statistic`` maps a ``SimulatedChunk`` to the arrays the reducer reads;
    ``reduce`` gets the results of the ``inputs`` tasks, then the chunks'.
    """

    statistic: Callable[[SimulatedChunk], dict]
    inputs: list[Callable[[], Any]]
    reduce: Callable[[list], Any]


def trajectory_experiments(
    params: SystemParams, trials: int, rng: Stream, plans: Sequence[TrajectoryPlan]
) -> list[Experiment]:
    """The experiments of ``plans``, all on one set of trajectories.

    One task per chunk simulates its trials once and computes every plan's
    statistic; every experiment lists those same task objects, so
    ``run_experiments`` runs each once. A None plan gives a None experiment.
    """
    stats = tuple(plan.statistic for plan in plans if plan is not None)
    chunks = _chunk_tasks(_trajectory_chunk, trials, params, stats, rng)
    return [
        None if plan is None else Experiment([*plan.inputs, *chunks], plan.reduce)
        for plan in plans
    ]


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


def risk_plan(params: SystemParams, trials: int) -> TrajectoryPlan:
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

    return TrajectoryPlan(_risk_stats, [], reduce)


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
) -> TrajectoryPlan:
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
        devs = np.sort(_gather(parts[1:], "dev")["dev"])
        deltas = tuple(delta1(params, t, parts[0].l_ab) for t in levels)
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

    return TrajectoryPlan(partial(_concentration_stats, params.psi_inv_sqrt), [rate], reduce)


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
) -> TrajectoryPlan:
    """Plan of ``multiplication_experiment``; ``rate`` as in ``concentration_plan``."""
    _require_trials(trials, MIN_CONCLUSIVE_TRIALS)

    def reduce(parts) -> MultiplicationResult:
        return MultiplicationResult(
            mc_value=float(_gather(parts[1:], "mult")["mult"].mean()),
            bound_value=params.d * delta2(params, parts[0].l_ab),
        )

    return TrajectoryPlan(partial(_multiplication_stats, params.psi_inv_sqrt), [rate], reduce)


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
) -> TrajectoryPlan:
    """Plan of ``dominance_check``; ``bound`` is the task returning the bound."""
    risk = risk_plan(params, trials)

    def reduce(parts) -> DominanceResult:
        estimate = risk.reduce(parts[1:])
        report = parts[0]
        if (report.epsilon_used, report.constant_used) != (epsilon, 1.0):
            raise ValueError(
                f"bound was computed at epsilon={report.epsilon_used}, "
                f"constant={report.constant_used}; need epsilon={epsilon}, constant=1.0"
            )
        diff = estimate.error_matrix - bound_scale * report.cr_matrix
        margin = float(np.linalg.eigvalsh(0.5 * (diff + diff.T))[0])
        return DominanceResult(holds=margin >= 0.0, margin=margin)

    return TrajectoryPlan(risk.statistic, [bound], reduce)


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


def bayes_plan(spec: PriorSpec, n: int, trials: int, rng: Stream) -> Experiment:
    """Plan of ``bayes_risk_experiment``."""
    _require_trials(trials, MIN_CONCLUSIVE_TRIALS)
    if n < spec.d + 1:
        raise ValueError(f"n must be >= d + 1 = {spec.d + 1}, got {n}")

    def reduce(parts) -> BayesRiskResult:
        data = _gather(parts)
        n_ok = _accepted_trials(data["failed"], "Bayes trials")
        bayes_mse = float(np.sum(data["mse"]) / n_ok)
        return BayesRiskResult(
            bayes_mse=bayes_mse, vt_bound=van_trees_bound(spec.d, n, spec.s, spec.eps)
        )

    return Experiment(_chunk_tasks(_bayes_chunk, trials, spec, n, rng), reduce)


def bayes_risk_experiment(
    spec: PriorSpec, n: int, trials: int, rng: Stream, *, workers: int = 1
) -> BayesRiskResult:
    """Bayes MSE of least squares under the prior, against the Bayesian bound.

    Per trial: draw A from the prior, fix B = I, simulate N transitions, run
    least squares, record the squared error. Any estimator's Bayes risk is
    bounded below by the van Trees value, so least squares' must be too.
    """
    return _run(bayes_plan(spec, n, trials, rng), workers)


def norm_ineq_fuzz(d: int, trials: int, rng: Stream, *, workers: int = 1) -> float:
    """Worst slack of |u1 v1^T - u2 v2^T| <= |u1 - u2| + |v1 - v2| over random pairs."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    data = _run(Experiment(_chunk_tasks(_norm_ineq_chunk, trials, d, rng), _gather), workers)
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


def identity_plan(params: SystemParams) -> TrajectoryPlan:
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

    return TrajectoryPlan(partial(_identity_stats, params, psi_inv), [], reduce)


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


def prior_identity_plan(spec: PriorSpec, trials: int, rng: Stream) -> Experiment:
    """Plan of ``prior_identity_check``."""

    def reduce(parts) -> CheckResult:
        return _entrywise_check(
            "prior_score_identity", _gather(parts)["lhs"], spec.d * np.eye(spec.d), 4.0
        )

    return Experiment(_chunk_tasks(_prior_identity_chunk, trials, spec, rng), reduce)


def prior_identity_check(
    spec: PriorSpec, trials: int, rng: Stream, *, workers: int = 1
) -> CheckResult:
    """MC check of -E[A (grad log prior)^T] = d * I at 4 standard errors."""
    return _run(prior_identity_plan(spec, trials, rng), workers)
