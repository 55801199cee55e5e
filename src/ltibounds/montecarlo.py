"""Seeded Monte Carlo experiments checking the identities behind the bounds.

Determinism contract: trials are processed in fixed chunks of ``CHUNK``.
Chunk c draws each kind of randomness (noise, the two Haar Gaussian stacks,
the Beta singular values; see ``rng``) from its own generator keyed by
``rng.child(c, kind)``, with one trial-major call per kind, so trial k's
draws depend only on ``(seed, salt, k)`` (stream layout ``RNG_LAYOUT``).
Per-trial statistics are written into position-indexed arrays, and
reductions run over those arrays with numpy's pairwise summation. Worker
count only distributes chunks, so reports are bit-identical for any
``workers`` value.

Trials whose sample covariance is singular (probability zero for genuine
Gaussian data with N >= d+1) are counted and excluded; an experiment fails
outright if they exceed one per thousand.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

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
    return RateInputs(psi_inv_sqrt=sym_inv_sqrt(psi(params)), l_ab=l_ab(params, grid_points))


# ---------------------------------------------------------------------------
# chunked engine
# ---------------------------------------------------------------------------


def _chunk_ranges(trials: int) -> list[tuple[int, int]]:
    return [(start, min(CHUNK, trials - start)) for start in range(0, trials, CHUNK)]


def _chunk_stream(rng: Stream, start: int) -> Stream:
    """Stream of the chunk that starts at trial ``start``; kinds are its children."""
    return rng.child(start // CHUNK)


def _noise_chunk(rng: Stream, start: int, count: int, n: int, d: int) -> np.ndarray:
    gen = _chunk_stream(rng, start).child(KIND_NOISE).generator()
    return gen.standard_normal((count, n, d))


def _states_batch(a: np.ndarray, b: np.ndarray, noise: np.ndarray) -> np.ndarray:
    count, n, d = noise.shape
    states = np.zeros((count, n + 1, d))
    # shocks B e_i go straight into the state buffer: no second noise-sized array
    np.matmul(noise, b.T, out=states[:, 1:])
    for i in range(n):
        states[:, i + 1] += states[:, i] @ a.T
    return states


def _trajectory_chunk(args) -> dict[str, np.ndarray]:
    params, rng, start, count, want, aux = args
    a, b, n, d = params.a, params.b, params.n, params.d
    noise = _noise_chunk(rng, start, count, n, d)
    states = _states_batch(a, b, noise)
    x_prev = states[:, :-1]
    x_next = states[:, 1:]
    out: dict[str, np.ndarray] = {}

    if want & {"err", "mse"}:
        gamma = np.einsum("tni,tnj->tij", x_next, x_prev)
        sigma = np.einsum("tni,tnj->tij", x_prev, x_prev)
        sigma = 0.5 * (sigma + np.transpose(sigma, (0, 2, 1)))
        w = np.linalg.eigvalsh(sigma)
        ok = w[:, 0] > 1e-12 * np.maximum(w[:, -1], 0.0)
        safe = np.where(ok[:, None, None], sigma, np.eye(d))
        a_hat = np.transpose(
            np.linalg.solve(safe, np.transpose(gamma, (0, 2, 1))), (0, 2, 1)
        )
        diff = np.where(ok[:, None, None], a_hat - a, 0.0)
        out["failed"] = ~ok
        out["err"] = np.einsum("tij,tkj->tik", diff, diff)
        out["mse"] = np.einsum("tij,tij->t", diff, diff)

    if want & {"score", "fisher"}:
        gamma = np.einsum("tni,tnj->tij", x_next, x_prev)
        sigma = np.einsum("tni,tnj->tij", x_prev, x_prev)
        a_eval = aux.get("a_eval", a)
        score = np.einsum(
            "ij,tjk->tik", aux["bbt_inv"], gamma - np.einsum("ij,tjk->tik", a_eval, sigma)
        )
        if "score" in want:
            out["score"] = score
        if "fisher" in want:
            out["fisher"] = np.einsum("tij,tkj->tik", score, score)

    if "selfnorm" in want:
        # sum_{i=1}^{N-1} e_i x_i^T: noise rows 1..N-1 against states 1..N-1
        p = np.einsum("tni,tnj->tij", noise[:, 1:], states[:, 1:-1])
        out["selfnorm"] = np.einsum(
            "tij,jk,tlk->til", p, aux["psi_inv"], p
        )

    if "dev" in want:
        m = np.einsum("tni,tnj->tij", states[:, 1:-1], states[:, 1:-1])
        y = np.einsum("ij,tjk,kl->til", aux["w"], m, aux["w"]) - np.eye(d)
        y = 0.5 * (y + np.transpose(y, (0, 2, 1)))
        out["dev"] = np.max(np.abs(np.linalg.eigvalsh(y)), axis=1)

    if "mult" in want:
        p = np.einsum("tni,tnj->tij", noise[:, 1:], states[:, 1:-1])
        g = np.einsum("ij,tkj->tik", aux["w"], p)
        out["mult"] = np.linalg.svd(g, compute_uv=False)[:, 0] ** 2

    return out


def _bayes_chunk(args) -> dict[str, np.ndarray]:
    spec, n, rng, start, count = args
    d = spec.d
    a_stack = sample_prior_batch(spec, _chunk_stream(rng, start), count).a
    noise = _noise_chunk(rng, start, count, n, d)
    states = np.zeros((count, n + 1, d))
    for i in range(n):
        states[:, i + 1] = np.einsum("tij,tj->ti", a_stack, states[:, i]) + noise[:, i]
    x_prev = states[:, :-1]
    gamma = np.einsum("tni,tnj->tij", states[:, 1:], x_prev)
    sigma = np.einsum("tni,tnj->tij", x_prev, x_prev)
    sigma = 0.5 * (sigma + np.transpose(sigma, (0, 2, 1)))
    w = np.linalg.eigvalsh(sigma)
    ok = w[:, 0] > 1e-12 * np.maximum(w[:, -1], 0.0)
    safe = np.where(ok[:, None, None], sigma, np.eye(d))
    a_hat = np.transpose(np.linalg.solve(safe, np.transpose(gamma, (0, 2, 1))), (0, 2, 1))
    diff = np.where(ok[:, None, None], a_hat - a_stack, 0.0)
    return {"failed": ~ok, "mse": np.einsum("tij,tij->t", diff, diff)}


def _norm_ineq_chunk(args) -> dict[str, np.ndarray]:
    d, rng, start, count = args
    vecs = _noise_chunk(rng, start, count, 4, d)
    vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
    u1, v1, u2, v2 = vecs[:, 0], vecs[:, 1], vecs[:, 2], vecs[:, 3]
    m = np.einsum("ti,tj->tij", u1, v1) - np.einsum("ti,tj->tij", u2, v2)
    lhs = np.linalg.svd(m, compute_uv=False)[:, 0]
    rhs = np.linalg.norm(u1 - u2, axis=1) + np.linalg.norm(v1 - v2, axis=1)
    return {"slack": rhs - lhs}


def _map_chunks(chunk_fn, args_list, workers: int) -> list[dict[str, np.ndarray]]:
    if workers <= 1 or len(args_list) <= 1:
        return [chunk_fn(a) for a in args_list]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(chunk_fn, args_list))


def _gather(chunk_fn, args_list, workers: int) -> dict[str, np.ndarray]:
    parts = _map_chunks(chunk_fn, args_list, workers)
    return {k: np.concatenate([p[k] for p in parts], axis=0) for k in parts[0]}


def _trajectory_stats(
    params: SystemParams,
    trials: int,
    rng: Stream,
    want: frozenset[str],
    aux: dict[str, np.ndarray],
    workers: int,
) -> dict[str, np.ndarray]:
    args_list = [
        (params, rng, start, count, want, aux) for start, count in _chunk_ranges(trials)
    ]
    return _gather(_trajectory_chunk, args_list, workers)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def empirical_risk(
    params: SystemParams, trials: int, rng: Stream, *, workers: int = 1
) -> RiskEstimate:
    """Monte Carlo mean of (A_hat - A)(A_hat - A)^T over independent trajectories."""
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    data = _trajectory_stats(params, trials, rng, frozenset({"err", "mse"}), {}, workers)
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


def concentration_experiment(
    params: SystemParams,
    trials: int,
    t_levels: list[float],
    rng: Stream,
    *,
    grid_points: int = 4096,
    inputs: RateInputs | None = None,
    workers: int = 1,
) -> ConcentrationReport:
    """Tail of |Psi^{-1/2} (sum x_i x_i^T) Psi^{-1/2} - I| against c * Delta1(t).

    Fits the smallest constant c making the exceedance of c * Delta1(t) at
    most e^{-t} for every requested level; the fit is descriptive (the true
    constant is not quantified), so this report carries no pass/fail by
    itself. ``inputs`` defaults to ``rate_inputs(params, grid_points)``.
    """
    if trials < 1000:
        raise ValueError(f"trials must be >= 1000, got {trials}")
    levels = tuple(sorted(float(t) for t in t_levels))
    if not levels or levels[0] <= 0:
        raise ValueError(f"t_levels must be positive, got {t_levels}")
    if inputs is None:
        inputs = rate_inputs(params, grid_points)
    aux = {"w": inputs.psi_inv_sqrt}
    data = _trajectory_stats(params, trials, rng, frozenset({"dev"}), aux, workers)
    devs = np.sort(data["dev"])
    deltas = tuple(delta1(params, t, inputs.l_ab) for t in levels)
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


def multiplication_experiment(
    params: SystemParams,
    trials: int,
    rng: Stream,
    *,
    grid_points: int = 4096,
    inputs: RateInputs | None = None,
    workers: int = 1,
) -> MultiplicationResult:
    """MC mean of |Psi^{-1/2} sum x_i e_i^T|^2 against the rate d * Delta2 = d^2 L.

    ``inputs`` defaults to ``rate_inputs(params, grid_points)``.
    """
    if trials < 1000:
        raise ValueError(f"trials must be >= 1000, got {trials}")
    if inputs is None:
        inputs = rate_inputs(params, grid_points)
    aux = {"w": inputs.psi_inv_sqrt}
    data = _trajectory_stats(params, trials, rng, frozenset({"mult"}), aux, workers)
    return MultiplicationResult(
        mc_value=float(data["mult"].mean()),
        bound_value=params.d * delta2(params, inputs.l_ab),
    )


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
    ``cr_bound(params, epsilon, constant=1.0, grid_points=grid_points)``.
    ``margin`` is the smallest eigenvalue of (empirical - bound).
    """
    risk = empirical_risk(params, trials, rng, workers=workers)
    report = bound
    if report is None:
        report = cr_bound(params, epsilon, constant=1.0, grid_points=grid_points)
    elif (report.epsilon_used, report.constant_used) != (epsilon, 1.0):
        raise ValueError(
            f"bound was computed at epsilon={report.epsilon_used}, "
            f"constant={report.constant_used}; need epsilon={epsilon}, constant=1.0"
        )
    diff = risk.error_matrix - bound_scale * report.cr_matrix
    margin = float(np.linalg.eigvalsh(0.5 * (diff + diff.T))[0])
    return DominanceResult(holds=margin >= 0.0, margin=margin)


def bayes_risk_experiment(
    spec: PriorSpec, n: int, trials: int, rng: Stream, *, workers: int = 1
) -> BayesRiskResult:
    """Bayes MSE of least squares under the prior, against the Bayesian bound.

    Per trial: draw A from the prior, fix B = I, simulate N transitions, run
    least squares, record the squared error. Any estimator's Bayes risk is
    bounded below by the van Trees value, so least squares' must be too.
    """
    if trials < 1000:
        raise ValueError(f"trials must be >= 1000, got {trials}")
    if n < spec.d + 1:
        raise ValueError(f"n must be >= d + 1 = {spec.d + 1}, got {n}")
    args_list = [(spec, n, rng, start, count) for start, count in _chunk_ranges(trials)]
    data = _gather(_bayes_chunk, args_list, workers)
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


def norm_ineq_fuzz(d: int, trials: int, rng: Stream, *, workers: int = 1) -> float:
    """Worst slack of |u1 v1^T - u2 v2^T| <= |u1 - u2| + |v1 - v2| over random pairs."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    args_list = [(d, rng, start, count) for start, count in _chunk_ranges(trials)]
    data = _gather(_norm_ineq_chunk, args_list, workers)
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


def identity_checks(
    params: SystemParams, trials: int, rng: Stream, *, workers: int = 1
) -> list[CheckResult]:
    """Single-pass MC identity suite for one system.

    Three exact identities share the same simulated trajectories: the
    self-normalized mean d*I, the score outer-product mean equal to the
    closed-form information (checked at 5% relative error), and the zero
    score mean (both entrywise at 4 standard errors).
    """
    d = params.d
    aux = {
        "psi_inv": np.linalg.solve(psi(params), np.eye(d)),
        "bbt_inv": np.linalg.solve(params.noise_cov(), np.eye(d)),
    }
    want = frozenset({"selfnorm", "score", "fisher"})
    data = _trajectory_stats(params, trials, rng, want, aux, workers)
    return [
        _entrywise_check("selfnorm_identity", data["selfnorm"], d * np.eye(d), 4.0),
        _entrywise_check(
            "fisher_information", data["fisher"], fisher_information(params), 4.0
        ),
        _entrywise_check("score_mean_zero", data["score"], np.zeros((d, d)), 4.0),
    ]


def _prior_identity_chunk(args) -> dict[str, np.ndarray]:
    spec, rng, start, count = args
    sample = sample_prior_batch(spec, _chunk_stream(rng, start), count)
    return {"lhs": score_identity_lhs(sample, spec)}


def prior_identity_check(
    spec: PriorSpec, trials: int, rng: Stream, *, workers: int = 1
) -> CheckResult:
    """MC check of -E[A (grad log prior)^T] = d * I at 4 standard errors."""
    args_list = [(spec, rng, start, count) for start, count in _chunk_ranges(trials)]
    data = _gather(_prior_identity_chunk, args_list, workers)
    return _entrywise_check(
        "prior_score_identity", data["lhs"], spec.d * np.eye(spec.d), 4.0
    )
