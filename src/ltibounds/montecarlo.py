"""Seeded Monte Carlo experiments checking the identities behind the bounds.

Each experiment is a ``ChunkPlan``: a per-chunk statistic of one source of
draws, a reducer of that statistic's arrays over every trial, and at most
one ``cr_bound`` task whose report the reducer also reads. ``run_plans`` is
the one runner. It lists one task per chunk of trials, then each distinct
bound task, and runs that list: with ``workers`` > 1 in one process pool of
``min(workers, tasks)`` processes, submitted in list order, so the long
chunk tasks go first and the short bound beside them; otherwise in this
process, in order. A chunk task returns one dict per plan; ``run_plans``
joins each plan's dicts on the trial axis, in chunk order, and hands them to
that plan's reducer alone. The reducers run in this process, in plan order,
so the first exception in task order, then in reducer order, is the one
raised whatever the worker count. The public functions (``empirical_risk``,
``identity_checks``, ...) run one plan each; the CLI ``verify`` command runs
all of its plans in one call, so one op opens at most one pool.

Psi, Psi^{-1/2} and (BB*)^{-1} are the values cached on ``SystemParams``.
Plans read them while they are built, in this process, so every task pickles
``params`` with them and A^(k-1)B is walked once per system.

One chunk task, ``_chunk``, serves every experiment on random draws. A
plan names the source its statistic reads: a ``model.SimulatedChunk`` of
the fixed system without (``FIXED``) or with (``NOISE``) its per-trial sum
e_i x_i^T, a ``SimulatedChunk`` of one prior draw of A per trial
(``BAYES``, the Bayes experiment, B = I), or the chunk's prior draws
(``PRIOR``, the prior-score identity). ``run_plans`` gives several plans
one task per chunk, which draws its prior once and hands both sets of
trajectories to one ``model.simulate`` call: that draws each block of the
chunk's noise once, simulates each set once, forms each Gram sum at most
once per block (e_i x_i^T only for a ``NOISE`` plan), and holds one block
of noise at a time (see ``model``). The task then computes every plan's
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
reports are bit-identical for any ``workers`` value. ``model.simulate``
steps a trial by the same products in a chunk of any size, so a trial's
statistics do not depend on its chunk's trial count either.

Trials whose sample covariance is singular (probability zero for genuine
Gaussian data with N >= d+1) are counted and excluded; an experiment fails
outright if they exceed one per thousand.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from functools import partial
from typing import Any, NamedTuple

import numpy as np

from .bounds import BoundReport, LoggedValue, cr_bound, delta1
from .minimax import (
    PriorSample,
    PriorSpec,
    sample_prior_batch,
    score_identity_lhs,
    van_trees_bound,
)
from .model import (
    AllTrialsSingularError,
    SimulatedChunk,
    SystemParams,
    TooManySingularTrialsError,
    _data_score,
    _sym,
    fisher_information,
    simulate,
)
from .rng import KIND_NOISE, Stream

# most trials of one chunk; a chunk of trajectories also draws at most
# CHUNK_ELEMENTS noise numbers in all (see _chunk_trials). That bounds a
# chunk's work and sets how an op splits into tasks over the workers; a
# chunk's memory is one block of it (see model.BLOCK)
CHUNK = 4096
CHUNK_ELEMENTS = 2**22
# fewest trials: of the risk experiment, and of a conclusive 4-SE check and
# every other experiment
MIN_RISK_TRIALS = 100
MIN_CONCLUSIVE_TRIALS = 1000
# standard errors an entrywise check's worst entry may deviate from its target
CHECK_SE = 4.0


class RiskEstimate(NamedTuple):
    """Monte Carlo estimate of the error matrix E (A_hat - A)(A_hat - A)^T."""

    error_matrix: np.ndarray
    mse: float
    trials: int
    mse_std_error: float
    failed_trials: int


class ConcentrationReport(NamedTuple):
    """Empirical tail of the rescaled sample-covariance deviation."""

    deviations: np.ndarray
    t_levels: tuple[float, ...]
    empirical_exceedance: tuple[float, ...]
    delta1_levels: tuple[float, ...]
    fitted_constant: float


class CheckResult(NamedTuple):
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
    vt_bound: LoggedValue


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


def _gather(parts: Sequence[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """The parts' arrays joined on the trial axis, key by key; one part as is."""
    if len(parts) == 1:
        return parts[0]
    return {k: np.concatenate([p[k] for p in parts], axis=0) for k in parts[0]}


class Draws(NamedTuple):
    """The chunk streams the plans of one set of experiments read, and what they drive.

    Chunk c draws its noise one block at a time, as ``model.simulate`` asks
    for it: block j is (count, m, d) standard normals from
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


def _chunk(draws: Draws, stats: tuple, index: int, count: int) -> list[dict[str, np.ndarray]]:
    """Each plan's statistic of chunk ``index`` (``count`` trials), one dict per plan.

    ``stats`` holds one (source, statistic) pair per plan, in plan order; see
    ``ChunkPlan``. The prior is drawn only when a ``BAYES`` or ``PRIOR``
    statistic reads it, and the noise only when a ``FIXED``, ``NOISE`` or
    ``BAYES`` one does. Both sets of trajectories go to one
    ``model.simulate`` call, so each block of noise is drawn once and
    advances both, and no worker holds more than one block of noise. The
    fixed system's sum e_i x_i^T is formed only when a ``NOISE`` statistic
    reads it.
    """
    out: list = [None] * len(stats)
    reads = {source for source, _ in stats}

    def compute(sources: tuple, data) -> None:
        for i, (source, stat) in enumerate(stats):
            if source in sources:
                out[i] = stat(data)

    if reads & {BAYES, PRIOR}:
        sample = sample_prior_batch(draws.spec, draws.prior.child(index), count)
        compute((PRIOR,), sample)
        a_stack = sample.a
        del sample  # the Haar factors die once the A stack and the score are formed
    d = draws.d
    sims = []
    if reads & {FIXED, NOISE}:
        a, b = draws.params.a, draws.params.b
        sims.append(((FIXED, NOISE), SimulatedChunk(a, b, count, d, noise_gram=NOISE in reads)))
    if BAYES in reads:
        sims.append(((BAYES,), SimulatedChunk(a_stack, np.eye(d), count, d)))
        del a_stack  # the chunk holds its own trials-last copy
    if sims:
        stream = draws.noise.child(index, KIND_NOISE)
        simulate(
            [sim for _, sim in sims],
            draws.n,
            lambda j, shape: stream.child(j).generator().standard_normal(shape),
        )
    while sims:
        # the fixed system's sums and least-squares errors die before the Bayes statistics run
        sources, sim = sims.pop(0)
        compute(sources, sim)
        del sim
    return out


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


def _prior_score_stats(spec: PriorSpec, sample: PriorSample) -> dict[str, np.ndarray]:
    return {"lhs": score_identity_lhs(sample, spec)}


# ---------------------------------------------------------------------------
# experiments: a plan (statistic, reducer and bound task) and the function that runs it
# ---------------------------------------------------------------------------

# what a plan's statistic reads; see ChunkPlan
FIXED, NOISE, BAYES, PRIOR = "fixed", "noise", "bayes", "prior"


class ChunkPlan(NamedTuple):
    """An experiment on the draws of ``Draws``, before they are chunked.

    ``statistic`` maps one chunk's draws of its ``source`` to a dict of
    per-trial arrays: the chunk's ``SimulatedChunk`` of the fixed system
    without (``FIXED``) or with (``NOISE``) its sum e_i x_i^T, or of one prior
    draw of A per trial (``BAYES``), or its ``PriorSample`` (``PRIOR``).
    ``reduce`` gets those arrays joined over every trial, as
    ``reduce(data)``, or ``reduce(data, report)`` when ``bound`` is a
    ``cr_bound`` task; it never sees chunks or another plan's arrays.
    """

    statistic: Callable[[Any], dict]
    reduce: Callable[..., Any]
    source: str = FIXED
    bound: Callable[[], BoundReport] | None = None


def _chunks(draws: Draws, trials: int, plans: Sequence[ChunkPlan]) -> list[Callable[[], list]]:
    """One ``_chunk`` task per chunk of ``trials``, computing every plan's statistic.

    A chunk that simulates trajectories holds ``_chunk_trials(n * d)`` trials.
    """
    stats = tuple((p.source, p.statistic) for p in plans)
    simulates = any(p.source != PRIOR for p in plans)
    size = _chunk_trials(draws.n * draws.d if simulates else 0)
    return [partial(_chunk, draws, stats, index, count) for index, count in _chunk_ranges(trials, size)]


def run_plans(draws: Draws, trials: int, plans: Sequence[ChunkPlan], workers: int = 1) -> list:
    """The reduced result of each plan, in order.

    Every plan reads one set of chunk tasks, each run once, which return one
    dict per plan. Each distinct bound task (plans may share one) runs once,
    after the chunks, so a pool gets the long tasks first; ``_run_tasks``
    runs the list. The reducers run after every task is done, so a task's
    error comes before any reducer's. Each plan's dicts are joined on the
    trial axis, in chunk order, just before its reducer runs, so one plan's
    joined arrays are alive at a time.
    """
    chunks = _chunks(draws, trials, plans)
    bounds = list(dict.fromkeys(p.bound for p in plans if p.bound is not None))
    results = _run_tasks([*chunks, *bounds], workers)
    reports = dict(zip(bounds, results[len(chunks) :]))

    def reduce(plan: ChunkPlan, dicts: tuple):
        data = _gather(dicts)
        return plan.reduce(data) if plan.bound is None else plan.reduce(data, reports[plan.bound])

    # each plan with its dicts over the chunks
    return [reduce(plan, dicts) for plan, dicts in zip(plans, zip(*results[: len(chunks)]))]


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

    def reduce(data) -> RiskEstimate:
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

    def reduce(data, report: BoundReport) -> ConcentrationReport:
        devs = np.sort(data["dev"])
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

    def reduce(data, report: BoundReport) -> MultiplicationResult:
        return MultiplicationResult(
            mc_value=float(data["mult"].mean()),
            bound_value=params.d * report.delta2,
        )

    return ChunkPlan(partial(_multiplication_stats, params.psi_inv_sqrt), reduce, NOISE, rate)


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

    def reduce(data, report: BoundReport) -> DominanceResult:
        diff = risk.reduce(data).error_matrix - report.cr_matrix
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

    def reduce(data) -> BayesRiskResult:
        n_ok = _accepted_trials(data["failed"], "Bayes trials")
        bayes_mse = float(np.sum(data["mse"]) / n_ok)
        return BayesRiskResult(
            bayes_mse=bayes_mse, vt_bound=van_trees_bound(spec.d, n, spec.s, spec.eps)
        )

    return ChunkPlan(_mse_stats, reduce, BAYES)


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


# ---------------------------------------------------------------------------
# check suite (shared by the CLI verify command and the acceptance tests)
# ---------------------------------------------------------------------------


def _entrywise_check(name: str, samples: np.ndarray, target: np.ndarray) -> CheckResult:
    trials = samples.shape[0]
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / math.sqrt(trials)
    with np.errstate(divide="ignore", invalid="ignore"):
        units = np.abs(mean - target) / se
    units = np.where(np.abs(mean - target) == 0.0, 0.0, units)
    worst = float(np.max(units))
    return CheckResult(
        name=name,
        passed=bool(worst <= CHECK_SE) if trials >= MIN_CONCLUSIVE_TRIALS else None,
        statistic=worst,
        threshold=CHECK_SE,
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

    def reduce(data) -> list[CheckResult]:
        return [
            _entrywise_check("selfnorm_identity", data["selfnorm"], d * np.eye(d)),
            _entrywise_check("fisher_information", data["fisher"], fisher),
            _entrywise_check("score_mean_zero", data["score"], np.zeros((d, d))),
        ]

    return ChunkPlan(partial(_identity_stats, params, psi_inv), reduce, NOISE)


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

    def reduce(data) -> CheckResult:
        return _entrywise_check("prior_score_identity", data["lhs"], spec.d * np.eye(spec.d))

    return ChunkPlan(partial(_prior_score_stats, spec), reduce, PRIOR)


def prior_identity_check(
    spec: PriorSpec, trials: int, rng: Stream, *, workers: int = 1
) -> CheckResult:
    """MC check of -E[A (grad log prior)^T] = d * I at 4 standard errors.

    Its chunks draw no noise, so each holds ``CHUNK`` trials.
    """
    draws = Draws(rng, 0, spec.d, prior=rng, spec=spec)
    return run_plans(draws, trials, [prior_identity_plan(spec)], workers)[0]
