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

Determinism contract: chunk c draws each kind of randomness (noise, the two
Haar Gaussian stacks, the Beta singular values; see ``rng``) from its own
generator keyed by ``rng.child(c, kind)``, with one trial-major call per
kind, so trial k's draws depend only on ``(seed, salt, k)`` (stream layout
``RNG_LAYOUT``). Per-trial statistics are written into position-indexed
arrays, and reductions run over those arrays with numpy's pairwise
summation. The worker count only decides where tasks run, so under a fixed
numpy/BLAS build reports are bit-identical for any ``workers`` value.

One kernel serves every trajectory experiment: ``_states_batch`` runs the
recursion of a whole chunk (one A, or one per trial for the Bayes risk),
``_gram`` forms each per-trial Gram sum as one BLAS matrix product, and
``_ls_error`` is the one least-squares estimate with singular-trial
rejection. A chunk computes each Gram sum once, whatever set of statistics
it is asked for. Gram sums are BLAS products, so another BLAS build or CPU
kernel may change their last digits.

Trials whose sample covariance is singular (probability zero for genuine
Gaussian data with N >= d+1) are counted and excluded; an experiment fails
outright if they exceed one per thousand.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial
from typing import Any, NamedTuple

import numpy as np

from .bounds import BoundReport, cr_bound, delta1, delta2, l_ab, psi
from .linalg import sym_inv_sqrt
from .minimax import PriorSpec, sample_prior_batch, score_identity_lhs, van_trees_bound
from .model import SystemParams, fisher_information
from .rng import KIND_NOISE, Stream

CHUNK = 4096
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


class RateInputs(NamedTuple):
    """Deterministic inputs of the concentration and multiplication experiments."""

    psi_inv_sqrt: np.ndarray
    l_ab: float


def rate_inputs(params: SystemParams, grid_points: int = 4096) -> RateInputs:
    """Psi^{-1/2} and the frequency supremum l_ab of ``params``."""
    psi_m = psi(params)
    return RateInputs(
        psi_inv_sqrt=sym_inv_sqrt(psi_m), l_ab=l_ab(params, grid_points, psi_matrix=psi_m)
    )


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


def _known(value: Any) -> Any:
    """Task whose result is already known: a precomputed input of a reducer."""
    return value


def run_experiments(experiments: Sequence[Experiment], workers: int = 1) -> list:
    """The reduced result of each experiment, in order.

    The tasks of all ``experiments`` form one list, in order; a task object
    listed by several experiments runs once. With ``workers`` > 1 and more
    than one task, one process pool of ``min(workers, tasks)`` processes runs
    the whole list; otherwise the list runs in this process, in order.
    Reducers run here, each once its tasks are done, in order, so the first
    exception in (tasks, reducer) order is the one raised whatever the
    worker count; the pool is then shut down with its queued tasks cancelled.
    """
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


def _chunk_ranges(trials: int) -> list[tuple[int, int]]:
    return [(start, min(CHUNK, trials - start)) for start in range(0, trials, CHUNK)]


def _chunk_tasks(fn, trials: int, *args) -> list[Callable[[], Any]]:
    """One task per chunk: ``fn(*args, start, count)``."""
    return [partial(fn, *args, start, count) for start, count in _chunk_ranges(trials)]


def _gather(parts: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    return {k: np.concatenate([p[k] for p in parts], axis=0) for k in parts[0]}


def _chunk_stream(rng: Stream, start: int) -> Stream:
    """Stream of the chunk that starts at trial ``start``; kinds are its children."""
    return rng.child(start // CHUNK)


def _noise_chunk(rng: Stream, start: int, count: int, n: int, d: int) -> np.ndarray:
    gen = _chunk_stream(rng, start).child(KIND_NOISE).generator()
    return gen.standard_normal((count, n, d))


def _gram(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-trial sums over time of x_n y_n^T: (count, n, i), (count, n, j) -> (count, i, j).

    One BLAS matrix product per trial; ``x`` and ``y`` may be strided views.
    """
    return np.matmul(np.swapaxes(x, 1, 2), y)


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.swapaxes(m, 1, 2))


def _states_batch(a: np.ndarray, b: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """States x_0..x_N of each trial, shape (count, N+1, d), for noise (count, N, d).

    ``a`` is one (d, d) matrix shared by every trial, or one per trial,
    (count, d, d).
    """
    count, n, d = noise.shape
    states = np.zeros((count, n + 1, d))
    # shocks B e_i go straight into the state buffer: no second noise-sized array
    np.matmul(noise, b.T, out=states[:, 1:])
    if a.ndim == 2:
        for i in range(n):
            states[:, i + 1] += states[:, i] @ a.T
    else:
        for i in range(n):
            states[:, i + 1] += np.einsum("tij,tj->ti", a, states[:, i])
    return states


def _ls_error(
    gamma: np.ndarray, sigma: np.ndarray, a: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Trials rejected as singular, and the least-squares error A_hat - A of each.

    ``gamma`` and ``sigma`` (symmetric) are per-trial Gram sums and ``a`` the
    true A, shared or one per trial. A trial is rejected, with error 0, when
    ``sigma`` has an eigenvalue at most 1e-12 times its largest.
    """
    w = np.linalg.eigvalsh(sigma)
    ok = w[:, 0] > 1e-12 * np.maximum(w[:, -1], 0.0)
    safe = np.where(ok[:, None, None], sigma, np.eye(sigma.shape[-1]))
    a_hat = np.swapaxes(np.linalg.solve(safe, np.swapaxes(gamma, 1, 2)), 1, 2)
    return ~ok, np.where(ok[:, None, None], a_hat - a, 0.0)


def _trajectory_chunk(
    params: SystemParams,
    want: frozenset[str],
    aux: dict[str, np.ndarray],
    rng: Stream,
    start: int,
    count: int,
) -> dict[str, np.ndarray]:
    a, b, n, d = params.a, params.b, params.n, params.d
    noise = _noise_chunk(rng, start, count, n, d)
    states = _states_batch(a, b, noise)
    x_prev = states[:, :-1]
    out: dict[str, np.ndarray] = {}

    # each Gram sum is computed once per chunk, for every statistic that needs it
    if want & {"err", "mse", "score", "fisher", "dev"}:
        sigma = _sym(_gram(x_prev, x_prev))
    if want & {"err", "mse", "score", "fisher"}:
        gamma = _gram(states[:, 1:], x_prev)
    if want & {"selfnorm", "mult"}:
        # sum_{i=1}^{N-1} e_i x_i^T: noise rows 1..N-1 against states 1..N-1
        p = _gram(noise[:, 1:], states[:, 1:-1])

    if want & {"err", "mse"}:
        out["failed"], diff = _ls_error(gamma, sigma, a)
        out["err"] = np.einsum("tij,tkj->tik", diff, diff)
        out["mse"] = np.einsum("tij,tij->t", diff, diff)

    if want & {"score", "fisher"}:
        a_eval = aux.get("a_eval", a)
        score = np.einsum(
            "ij,tjk->tik", aux["bbt_inv"], gamma - np.einsum("ij,tjk->tik", a_eval, sigma)
        )
        if "score" in want:
            out["score"] = score
        if "fisher" in want:
            out["fisher"] = np.einsum("tij,tkj->tik", score, score)

    if "selfnorm" in want:
        out["selfnorm"] = np.einsum("tij,jk,tlk->til", p, aux["psi_inv"], p)

    if "dev" in want:
        # x_0 = 0, so sigma is also sum_{i=1}^{N-1} x_i x_i^T
        y = np.einsum("ij,tjk,kl->til", aux["w"], sigma, aux["w"]) - np.eye(d)
        out["dev"] = np.max(np.abs(np.linalg.eigvalsh(_sym(y))), axis=1)

    if "mult" in want:
        g = np.einsum("ij,tkj->tik", aux["w"], p)
        out["mult"] = np.linalg.svd(g, compute_uv=False)[:, 0] ** 2

    return out


def _bayes_chunk(
    spec: PriorSpec, n: int, rng: Stream, start: int, count: int
) -> dict[str, np.ndarray]:
    d = spec.d
    a_stack = sample_prior_batch(spec, _chunk_stream(rng, start), count).a
    states = _states_batch(a_stack, np.eye(d), _noise_chunk(rng, start, count, n, d))
    x_prev = states[:, :-1]
    failed, diff = _ls_error(
        _gram(states[:, 1:], x_prev), _sym(_gram(x_prev, x_prev)), a_stack
    )
    return {"failed": failed, "mse": np.einsum("tij,tij->t", diff, diff)}


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


def _trajectory_stats(
    params: SystemParams,
    trials: int,
    rng: Stream,
    want: frozenset[str],
    aux: dict[str, np.ndarray],
    workers: int,
) -> dict[str, np.ndarray]:
    tasks = _chunk_tasks(_trajectory_chunk, trials, params, want, aux, rng)
    return _run(Experiment(tasks, _gather), workers)


# ---------------------------------------------------------------------------
# experiments: a plan (tasks and reducer) and the function that runs it
# ---------------------------------------------------------------------------


def risk_plan(params: SystemParams, trials: int, rng: Stream) -> Experiment:
    """Plan of ``empirical_risk``."""
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")

    def reduce(parts) -> RiskEstimate:
        data = _gather(parts)
        failed = int(np.sum(data["failed"]))
        n_ok = trials - failed
        if n_ok == 0:
            raise AllTrialsSingularError(
                "all trials had singular sample covariance; check N >= d+1 and params"
            )
        if failed > 0.001 * trials:
            raise TooManySingularTrialsError(
                f"{failed} of {trials} trials had singular sample covariance"
            )
        ok = ~data["failed"]
        error_matrix = np.sum(data["err"], axis=0) / n_ok
        error_matrix = 0.5 * (error_matrix + error_matrix.T)
        mses = data["mse"][ok]
        std_error = float(mses.std(ddof=1) / math.sqrt(n_ok)) if n_ok > 1 else float("inf")
        return RiskEstimate(
            error_matrix=error_matrix,
            mse=float(np.trace(error_matrix)),
            trials=n_ok,
            mse_std_error=std_error,
            failed_trials=failed,
        )

    want = frozenset({"err", "mse"})
    return Experiment(_chunk_tasks(_trajectory_chunk, trials, params, want, {}, rng), reduce)


def empirical_risk(
    params: SystemParams, trials: int, rng: Stream, *, workers: int = 1
) -> RiskEstimate:
    """Monte Carlo mean of (A_hat - A)(A_hat - A)^T over independent trajectories."""
    return _run(risk_plan(params, trials, rng), workers)


def mc_selfnorm_identity(
    params: SystemParams, trials: int, rng: Stream, *, workers: int = 1
) -> np.ndarray:
    """MC mean of (sum e_i x_i^T) Psi^{-1} (sum x_i e_i^T); the exact mean is d*I."""
    aux = {"psi_inv": np.linalg.solve(psi(params), np.eye(params.d))}
    data = _trajectory_stats(params, trials, rng, frozenset({"selfnorm"}), aux, workers)
    return data["selfnorm"].mean(axis=0)


def mc_fisher_check(
    params: SystemParams, trials: int, rng: Stream, *, workers: int = 1
) -> tuple[np.ndarray, np.ndarray, float]:
    """MC mean of the score outer product against the closed-form information."""
    if trials < 1000:
        raise ValueError(f"trials must be >= 1000, got {trials}")
    aux = {"bbt_inv": np.linalg.solve(params.noise_cov(), np.eye(params.d))}
    data = _trajectory_stats(params, trials, rng, frozenset({"fisher"}), aux, workers)
    mc = data["fisher"].mean(axis=0)
    closed = fisher_information(params)
    rel_err = float(np.linalg.norm(mc - closed) / np.linalg.norm(closed))
    return mc, closed, rel_err


def mc_score_mean(
    params: SystemParams,
    trials: int,
    rng: Stream,
    *,
    eval_a: np.ndarray | None = None,
    workers: int = 1,
) -> np.ndarray:
    """MC mean of the score; zero at the true parameter.

    ``eval_a`` scores the simulated data at a different dynamics matrix (the
    misspecification negative control).
    """
    if trials < 1000:
        raise ValueError(f"trials must be >= 1000, got {trials}")
    aux: dict[str, np.ndarray] = {
        "bbt_inv": np.linalg.solve(params.noise_cov(), np.eye(params.d))
    }
    if eval_a is not None:
        aux["a_eval"] = np.asarray(eval_a, dtype=float)
    data = _trajectory_stats(params, trials, rng, frozenset({"score"}), aux, workers)
    return data["score"].mean(axis=0)


def concentration_plan(
    params: SystemParams,
    trials: int,
    t_levels: list[float],
    rng: Stream,
    psi_inv_sqrt: np.ndarray,
    rate: Callable[[], Any],
) -> Experiment:
    """Plan of ``concentration_experiment``.

    The chunks need only ``psi_inv_sqrt``. ``rate`` is the task whose result
    carries ``l_ab`` (a ``BoundReport`` or ``RateInputs``); only the reducer
    reads it, so the chunks need not wait for it.
    """
    if trials < 1000:
        raise ValueError(f"trials must be >= 1000, got {trials}")
    levels = tuple(sorted(float(t) for t in t_levels))
    if not levels or levels[0] <= 0:
        raise ValueError(f"t_levels must be positive, got {t_levels}")

    def reduce(parts) -> ConcentrationReport:
        data = _gather(parts[1:])
        devs = np.sort(data["dev"])
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

    aux = {"w": psi_inv_sqrt}
    chunks = _chunk_tasks(_trajectory_chunk, trials, params, frozenset({"dev"}), aux, rng)
    return Experiment([rate, *chunks], reduce)


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
    inputs = rate_inputs(params, grid_points)
    plan = concentration_plan(
        params, trials, t_levels, rng, inputs.psi_inv_sqrt, partial(_known, inputs)
    )
    return _run(plan, workers)


def multiplication_plan(
    params: SystemParams,
    trials: int,
    rng: Stream,
    psi_inv_sqrt: np.ndarray,
    rate: Callable[[], Any],
) -> Experiment:
    """Plan of ``multiplication_experiment``; ``rate`` as in ``concentration_plan``."""
    if trials < 1000:
        raise ValueError(f"trials must be >= 1000, got {trials}")

    def reduce(parts) -> MultiplicationResult:
        data = _gather(parts[1:])
        return MultiplicationResult(
            mc_value=float(data["mult"].mean()),
            bound_value=params.d * delta2(params, parts[0].l_ab),
        )

    aux = {"w": psi_inv_sqrt}
    chunks = _chunk_tasks(_trajectory_chunk, trials, params, frozenset({"mult"}), aux, rng)
    return Experiment([rate, *chunks], reduce)


def multiplication_experiment(
    params: SystemParams,
    trials: int,
    rng: Stream,
    *,
    grid_points: int = 4096,
    workers: int = 1,
) -> MultiplicationResult:
    """MC mean of |Psi^{-1/2} sum x_i e_i^T|^2 against the rate d * Delta2 = d^2 L."""
    inputs = rate_inputs(params, grid_points)
    plan = multiplication_plan(params, trials, rng, inputs.psi_inv_sqrt, partial(_known, inputs))
    return _run(plan, workers)


def dominance_plan(
    params: SystemParams,
    trials: int,
    epsilon: float,
    rng: Stream,
    bound: Callable[[], BoundReport],
    *,
    bound_scale: float = 1.0,
) -> Experiment:
    """Plan of ``dominance_check``; ``bound`` is the task returning the bound."""
    risk = risk_plan(params, trials, rng)

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

    return Experiment([bound, *risk.tasks], reduce)


def dominance_check(
    params: SystemParams,
    trials: int,
    epsilon: float,
    rng: Stream,
    *,
    bound_scale: float = 1.0,
    grid_points: int = 4096,
    bound: BoundReport | None = None,
    workers: int = 1,
) -> DominanceResult:
    """Loewner check of the empirical error matrix against the error bound.

    The bound is evaluated with universal constant 1; ``bound_scale``
    multiplies it and exists for negative controls (a 10x inflated bound must
    fail). ``bound`` defaults to
    ``cr_bound(params, epsilon, constant=1.0, grid_points=grid_points)``,
    evaluated beside the trials. ``margin`` is the smallest eigenvalue of
    (empirical - bound).
    """
    if bound is None:
        task = partial(cr_bound, params, epsilon, 1.0, grid_points=grid_points)
    else:
        task = partial(_known, bound)
    return _run(dominance_plan(params, trials, epsilon, rng, task, bound_scale=bound_scale), workers)


def bayes_plan(spec: PriorSpec, n: int, trials: int, rng: Stream) -> Experiment:
    """Plan of ``bayes_risk_experiment``."""
    if trials < 1000:
        raise ValueError(f"trials must be >= 1000, got {trials}")
    if n < spec.d + 1:
        raise ValueError(f"n must be >= d + 1 = {spec.d + 1}, got {n}")

    def reduce(parts) -> BayesRiskResult:
        data = _gather(parts)
        failed = int(np.sum(data["failed"]))
        n_ok = trials - failed
        if n_ok == 0:
            raise AllTrialsSingularError("all Bayes trials had singular sample covariance")
        if failed > 0.001 * trials:
            raise TooManySingularTrialsError(
                f"{failed} of {trials} Bayes trials had singular sample covariance"
            )
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
    passed: bool | None = bool(worst <= n_se)
    if trials < MIN_CONCLUSIVE_TRIALS:
        passed = None
    return CheckResult(
        name=name,
        passed=passed,
        statistic=worst,
        threshold=n_se,
        value=float(np.trace(np.atleast_2d(mean))),
        target=float(np.trace(np.atleast_2d(target))),
        std_error=float(np.max(se)),
    )


def identity_plan(
    params: SystemParams,
    trials: int,
    rng: Stream,
    psi_matrix: np.ndarray | None = None,
) -> Experiment:
    """Plan of ``identity_checks``; ``psi_matrix`` defaults to ``psi(params)``."""
    d = params.d
    if psi_matrix is None:
        psi_matrix = psi(params)
    aux = {
        "psi_inv": np.linalg.solve(psi_matrix, np.eye(d)),
        "bbt_inv": np.linalg.solve(params.noise_cov(), np.eye(d)),
    }

    def reduce(parts) -> list[CheckResult]:
        data = _gather(parts)
        return [
            _entrywise_check("selfnorm_identity", data["selfnorm"], d * np.eye(d), 4.0),
            _entrywise_check(
                "fisher_information", data["fisher"], fisher_information(params), 4.0
            ),
            _entrywise_check("score_mean_zero", data["score"], np.zeros((d, d)), 4.0),
        ]

    want = frozenset({"selfnorm", "score", "fisher"})
    return Experiment(_chunk_tasks(_trajectory_chunk, trials, params, want, aux, rng), reduce)


def identity_checks(
    params: SystemParams, trials: int, rng: Stream, *, workers: int = 1
) -> list[CheckResult]:
    """Single-pass MC identity suite for one system.

    Three exact identities share the same simulated trajectories: the
    self-normalized mean d*I, the score outer-product mean equal to the
    closed-form information (checked at 5% relative error), and the zero
    score mean (both entrywise at 4 standard errors).
    """
    return _run(identity_plan(params, trials, rng), workers)


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
