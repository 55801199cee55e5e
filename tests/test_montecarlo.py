import dataclasses
import multiprocessing
import tracemalloc
from functools import partial

import numpy as np
import pytest

import ltibounds.bounds
import ltibounds.model
import ltibounds.montecarlo
from ltibounds.bounds import cr_bound
from ltibounds.minimax import PriorSpec, sample_prior_batch
from ltibounds.bounds import psi
from ltibounds.linalg import sym_inv_sqrt
from ltibounds.model import (
    SystemParams,
    _data_score,
    _gram,
    _ls_error,
    _states_batch,
    _sym,
    fisher_information,
)
from ltibounds.montecarlo import (
    BAYES,
    BLOCK,
    CHUNK,
    PRIOR,
    AllTrialsSingularError,
    ChunkPlan,
    Draws,
    TooManySingularTrialsError,
    _accepted_trials,
    _bayes_stats,
    _chunk,
    _chunk_ranges,
    _chunk_trials,
    _chunks,
    _concentration_stats,
    _gather,
    _identity_stats,
    _multiplication_stats,
    _prior_score_stats,
    SimulatedChunk,
    _risk_stats,
    _run_tasks,
    bayes_risk_experiment,
    concentration_experiment,
    concentration_plan,
    dominance_check,
    dominance_plan,
    empirical_risk,
    identity_checks,
    identity_plan,
    multiplication_experiment,
    multiplication_plan,
    norm_ineq_fuzz,
    prior_identity_check,
    run_plans,
)
from ltibounds.rng import KIND_NOISE, Stream


def rotation(theta: float, scale: float = 1.0) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return scale * np.array([[c, -s], [s, c]])


def scalar_params(a: float, b: float = 1.0, n: int = 8) -> SystemParams:
    return SystemParams(a=np.array([[a]]), b=np.array([[b]]), n=n)


def chunk_noise(rng, index, count, n, d):
    """The noise of chunk ``index`` under ``rng``: block j's (count, m, d) draws
    from ``rng.child(index, KIND_NOISE, j)``, joined on the time axis."""
    stream = rng.child(index, KIND_NOISE)
    return np.concatenate(
        [
            stream.child(j).generator().standard_normal((count, min(BLOCK, n - start), d))
            for j, start in enumerate(range(0, n, BLOCK))
        ],
        axis=1,
    )


def simulated(a, b, noise, *, noise_gram=False):
    """A ``SimulatedChunk`` fed ``noise`` (count, N, d) ``BLOCK`` steps at a time."""
    count, n, d = noise.shape
    chunk = SimulatedChunk(a, b, count, d, noise_gram=noise_gram)
    states = np.empty((count, min(n, BLOCK) + 1, d))
    for start in range(0, n, BLOCK):
        block = np.ascontiguousarray(noise[:, start : start + BLOCK])
        chunk.advance(block, states[:, : block.shape[1] + 1])
    chunk.finish()
    return chunk


def fixed_draws(params, rng):
    """The ``Draws`` of trajectories of ``params`` driven by ``rng``."""
    return Draws(rng, params.n, params.d, params)


def fixed_chunk(params, stats, rng, index, count):
    """``_chunk`` with only the statistics ``stats`` of the fixed system."""
    return _chunk(fixed_draws(params, rng), stats, (), (), index, count)


# ---------------------------------------------------------------------------
# empirical_risk
# ---------------------------------------------------------------------------


def test_risk_memoryless_scalar():
    params = scalar_params(0.0, n=100)
    est = empirical_risk(params, 10_000, Stream(50))
    assert est.failed_trials == 0
    assert est.mse == pytest.approx(1.0 / 99.0, rel=0.10)
    assert est.mse == pytest.approx(np.trace(est.error_matrix))


def test_risk_rate_halves_with_n():
    est50 = empirical_risk(scalar_params(0.5, n=50), 4000, Stream(51))
    est100 = empirical_risk(scalar_params(0.5, n=100), 4000, Stream(52))
    assert 1.6 < est50.mse / est100.mse < 2.4


def test_risk_consistency_trend_quadruple_n():
    est = empirical_risk(scalar_params(0.6, n=25), 4000, Stream(53))
    est4 = empirical_risk(scalar_params(0.6, n=100), 4000, Stream(54))
    assert 2.5 < est.mse / est4.mse < 6.0


def test_risk_requires_trials():
    with pytest.raises(ValueError):
        empirical_risk(scalar_params(0.5), 10, Stream(55))


def test_risk_worker_independence():
    params = SystemParams(a=0.5 * np.eye(2), b=np.eye(2), n=12)
    one = empirical_risk(params, 6000, Stream(56), workers=1)
    two = empirical_risk(params, 6000, Stream(56), workers=2)
    assert np.array_equal(one.error_matrix, two.error_matrix)
    assert one.mse == two.mse and one.mse_std_error == two.mse_std_error


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


def identity_samples(params, trials, rng):
    """Per-trial selfnorm, score and Fisher samples of ``identity_checks``' chunks."""
    plan = identity_plan(params)._replace(reduce=_gather)
    return run_plans(fixed_draws(params, rng), trials, [plan])[0]


def fisher_mc(params, trials, rng):
    """MC information, the closed form, and their relative Frobenius distance."""
    mc = identity_samples(params, trials, rng)["fisher"].mean(axis=0)
    closed = fisher_information(params)
    return mc, closed, float(np.linalg.norm(mc - closed) / np.linalg.norm(closed))


def test_selfnorm_identity_rotation():
    params = SystemParams(a=rotation(0.5, 0.6), b=np.eye(2), n=10)
    checks = identity_checks(params, 20_000, Stream(57))
    by_name = {c.name: c for c in checks}
    assert by_name["selfnorm_identity"].passed
    assert by_name["selfnorm_identity"].target == pytest.approx(4.0)  # trace(d * I_d)


def test_selfnorm_identity_scalar_memoryless():
    params = scalar_params(0.0, n=5)
    mean = identity_samples(params, 20_000, Stream(58))["selfnorm"].mean(axis=0)
    assert mean[0, 0] == pytest.approx(1.0, abs=0.05)


def test_selfnorm_noise_scale_exact_invariance():
    params1 = SystemParams(a=0.5 * np.eye(2), b=np.eye(2), n=8)
    params3 = SystemParams(a=0.5 * np.eye(2), b=3.0 * np.eye(2), n=8)
    m1 = identity_samples(params1, 2000, Stream(59))["selfnorm"].mean(axis=0)
    m3 = identity_samples(params3, 2000, Stream(59))["selfnorm"].mean(axis=0)
    assert np.allclose(m1, m3, rtol=1e-10)


def test_fisher_check_memoryless():
    params = SystemParams(a=np.zeros((2, 2)), b=np.eye(2), n=6)
    mc, closed, rel = fisher_mc(params, 10_000, Stream(60))
    assert np.allclose(closed, 10.0 * np.eye(2))
    assert rel < 0.05


def test_fisher_check_stable_random():
    g = Stream(61).generator()
    a = 0.4 * g.standard_normal((2, 2))
    params = SystemParams(a=a, b=np.eye(2), n=12)
    _, _, rel = fisher_mc(params, 10_000, Stream(62))
    assert rel < 0.05


def test_fisher_noise_scale_invariance_mc():
    a = 0.5 * np.eye(2)
    m1, c1, _ = fisher_mc(SystemParams(a=a, b=np.eye(2), n=8), 2000, Stream(63))
    m3, c3, _ = fisher_mc(SystemParams(a=a, b=3 * np.eye(2), n=8), 2000, Stream(63))
    assert np.allclose(m1, m3, rtol=1e-10)
    assert np.allclose(c1, c3, rtol=1e-10)


def test_score_mean_zero_and_negative_control():
    params = scalar_params(0.5, n=16)
    checks = identity_checks(params, 20_000, Stream(64))
    score = [c for c in checks if c.name == "score_mean_zero"][0]
    assert score.passed
    # misspecified parameter: Stream(65)'s trajectories scored at A = 0.8
    at_wrong_a = scalar_params(0.8, n=16)
    chunks = [
        simulated(params.a, params.b, chunk_noise(Stream(65), i, c, params.n, params.d))
        for i, c in _chunk_ranges(5000, CHUNK)
    ]
    wrong = np.concatenate(
        [_data_score(at_wrong_a, chunk.gamma, chunk.sigma) for chunk in chunks]
    ).mean(axis=0)
    data_se = score.std_error
    assert abs(wrong[0, 0]) > 10 * data_se


def test_identity_checks_inconclusive_below_min_trials():
    params = scalar_params(0.5, n=8)
    checks = identity_checks(params, 200, Stream(66))
    assert all(c.passed is None for c in checks)


# ---------------------------------------------------------------------------
# concentration / multiplication
# ---------------------------------------------------------------------------


def test_concentration_exceedance_by_construction_and_holdout():
    params = SystemParams(a=0.5 * np.eye(2), b=np.eye(2), n=16)
    t_levels = [1.0, 2.0, 3.0]
    fit = concentration_experiment(params, 4000, t_levels, Stream(67))
    assert fit.fitted_constant > 0
    # by construction on the fitting run
    for t, freq in zip(fit.t_levels, fit.empirical_exceedance):
        assert freq <= np.exp(-t) + 1e-12
    assert np.all(np.diff(fit.empirical_exceedance) <= 1e-12)
    # holdout: fresh seed, same constant
    hold = concentration_experiment(params, 4000, [3.0], Stream(68))
    thresh = fit.fitted_constant * hold.delta1_levels[0]
    freq = float(np.mean(hold.deviations > thresh))
    p = np.exp(-3.0)
    assert freq <= p + 3 * np.sqrt(p * (1 - p) / 4000)


def test_concentration_constant_stable_across_dimension():
    fits = []
    for d, seed in [(2, 69), (3, 70)]:
        params = SystemParams(a=0.5 * np.eye(d), b=np.eye(d), n=16)
        fits.append(
            concentration_experiment(params, 4000, [1.0, 2.0, 3.0], Stream(seed))
        )
    ratio = fits[0].fitted_constant / fits[1].fitted_constant
    assert 0.5 < ratio < 2.0


def test_concentration_median_shrinks_with_n():
    devs = {}
    for n, seed in [(16, 71), (64, 72)]:
        params = SystemParams(a=0.5 * np.eye(2), b=np.eye(2), n=n)
        devs[n] = float(np.median(concentration_experiment(
            params, 2000, [1.0], Stream(seed)).deviations))
    assert devs[16] > 1.5 * devs[64]


def test_multiplication_ratio_bounded():
    for a_mat, seed in [
        (0.5 * np.eye(2), 73),
        (rotation(0.4, 0.7), 74),
        (np.diag([0.2, 0.6]), 75),
    ]:
        params = SystemParams(a=a_mat, b=np.eye(2), n=16)
        mc_value, bound_value = multiplication_experiment(params, 2000, Stream(seed))
        assert mc_value > 0
        assert mc_value / bound_value < 10.0


def test_multiplication_grows_with_dimension():
    vals = {}
    for d, seed in [(2, 76), (4, 77)]:
        params = SystemParams(a=np.zeros((d, d)), b=np.eye(d), n=16)
        vals[d], _ = multiplication_experiment(params, 2000, Stream(seed))
    assert 1.5 < vals[4] / vals[2] < 3.5


# ---------------------------------------------------------------------------
# dominance / bayes
# ---------------------------------------------------------------------------


def test_dominance_scalar_stable():
    params = scalar_params(0.5, n=500)
    result = dominance_check(params, 4000, 0.1, Stream(78))
    assert result.holds and result.margin > 0


def test_dominance_grid_points_reach_l_ab(monkeypatch):
    grids = []
    original = ltibounds.bounds.l_ab

    def recording_l_ab(params, grid_points=4096, **kwargs):
        grids.append(grid_points)
        return original(params, grid_points, **kwargs)

    monkeypatch.setattr(ltibounds.bounds, "l_ab", recording_l_ab)
    dominance_check(scalar_params(0.5, n=64), 200, 0.1, Stream(86), grid_points=128)
    assert grids == [128]


def inflated_cr_bound(*args, **kwargs):
    """``cr_bound`` with ``cr_matrix`` inflated 10x: a bound no estimator meets."""
    report = cr_bound(*args, **kwargs)
    return dataclasses.replace(report, cr_matrix=10.0 * report.cr_matrix)


def test_dominance_negative_control():
    params = scalar_params(0.5, n=500)
    plan = dominance_plan(params, 4000, partial(inflated_cr_bound, params, 0.1))
    (result,) = run_plans(fixed_draws(params, Stream(79)), 4000, [plan])
    assert not result.holds and result.margin < 0


def test_bayes_risk_dominates_van_trees():
    spec = PriorSpec(s=0.0, eps=0.5, d=2)
    bayes_mse, vt = bayes_risk_experiment(spec, 8, 4000, Stream(80))
    assert bayes_mse >= vt
    assert vt == pytest.approx(4.0 / (np.sum([(7 - i) * 0.25**i for i in range(7)]) + 128.0))


def test_bayes_risk_unstable_class():
    spec = PriorSpec(s=2.0, eps=0.5, d=2)
    bayes_mse, vt = bayes_risk_experiment(spec, 8, 4000, Stream(81))
    assert bayes_mse >= vt


# ---------------------------------------------------------------------------
# norm inequality fuzz
# ---------------------------------------------------------------------------


def test_norm_ineq_equality_cases():
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    # identical pairs: 0 <= 0
    lhs = np.linalg.norm(np.outer(u, v) - np.outer(u, v), 2)
    assert lhs == 0.0
    # opposite left vectors: |2 u v^T| = 2 equals |u-(-u)| = 2
    lhs = np.linalg.norm(np.outer(u, v) + np.outer(u, v), 2)
    assert lhs == pytest.approx(2.0)


def test_norm_ineq_fuzz_no_violation():
    worst = norm_ineq_fuzz(5, 20_000, Stream(82))
    assert worst >= -1e-12


# ---------------------------------------------------------------------------
# prior identity via the check suite
# ---------------------------------------------------------------------------


def test_prior_identity_check_passes():
    check = prior_identity_check(PriorSpec(s=0.0, eps=1.0, d=2), 20_000, Stream(83))
    assert check.passed
    assert check.target == pytest.approx(4.0)  # trace(d * I_d)


def test_prior_identity_worker_independence():
    spec = PriorSpec(s=0.0, eps=1.0, d=2)
    one = prior_identity_check(spec, 6000, Stream(84), workers=1)
    two = prior_identity_check(spec, 6000, Stream(84), workers=2)
    assert one == two


def test_bayes_risk_worker_independence():
    spec = PriorSpec(s=0.0, eps=0.5, d=2)
    one = bayes_risk_experiment(spec, 8, 6000, Stream(88), workers=1)
    two = bayes_risk_experiment(spec, 8, 6000, Stream(88), workers=2)
    assert one == two


def test_norm_ineq_fuzz_worker_independence():
    one = norm_ineq_fuzz(3, 6000, Stream(89), workers=1)
    two = norm_ineq_fuzz(3, 6000, Stream(89), workers=2)
    assert one == two


# ---------------------------------------------------------------------------
# stream layout: trial k's draws depend only on (seed, salt, k) and N*d
# ---------------------------------------------------------------------------


def test_chunk_size_depends_on_the_noise_of_a_trial():
    # up to N*d = 1024 a chunk holds CHUNK trials, beyond it 2^22 noise numbers
    assert CHUNK == 4096 and ltibounds.montecarlo.CHUNK_ELEMENTS == 2**22
    assert [_chunk_trials(nd) for nd in (0, 1, 20, 1000, 1024)] == [CHUNK] * 5
    assert [_chunk_trials(nd) for nd in (1025, 1200, 8192, 16384, 2**22, 2**23)] == [
        4092, 3495, 512, 256, 1, 1
    ]
    assert _chunk_ranges(1000, 256) == [(0, 256), (1, 256), (2, 256), (3, 232)]
    spec = PriorSpec(s=0.5, eps=0.5, d=2)

    def chunks(n, d, trials, plan):
        params = SystemParams(a=0.5 * np.eye(d), b=np.eye(d), n=n)
        draws = Draws(Stream(1), n, d, params, Stream(2), spec)
        return [task.args[-2:] for task in _chunks(draws, trials, [plan])]

    risk = ChunkPlan(_risk_stats, _gather)
    bayes = ChunkPlan(_bayes_stats, _gather, BAYES)
    prior = ChunkPlan(partial(_prior_score_stats, spec), _gather, PRIOR)
    # N*d = 1024, at and above CHUNK trials
    assert chunks(512, 2, CHUNK, risk) == [(0, CHUNK)]
    assert chunks(512, 2, CHUNK + 1, bayes) == [(0, CHUNK), (1, 1)]
    # N*d = 8192 and 16384: the verify sizes of the benchmark's long workload
    assert chunks(4096, 2, 1000, risk) == [(0, 512), (1, 488)]
    assert chunks(2048, 8, 1000, bayes) == [(0, 256), (1, 256), (2, 256), (3, 232)]
    # a chunk that draws no noise holds CHUNK trials whatever N*d
    assert chunks(2048, 8, 1000, prior) == [(0, 1000)]

PREFIX_TRIALS = CHUNK + 5
LONGER_TRIALS = PREFIX_TRIALS + CHUNK + 7


def _assert_prefix_equal(short: dict, long: dict) -> None:
    assert short.keys() == long.keys()
    for key in short:
        assert len(short[key]) == PREFIX_TRIALS
        assert np.array_equal(short[key], long[key][:PREFIX_TRIALS]), key


def _statistics(params, psi_inv, w):
    """Every trajectory statistic ``verify`` computes, as ``verify`` orders them."""
    return (
        partial(_identity_stats, params, psi_inv),
        _risk_stats,
        partial(_concentration_stats, w),
        partial(_multiplication_stats, w),
    )


def test_trajectory_chunk_trial_prefix_invariance():
    params = SystemParams(a=rotation(0.5, 0.8), b=np.diag([1.0, 2.0]), n=6)
    chunk = partial(fixed_chunk, params, _statistics(params, np.eye(2), 0.5 * np.eye(2)))
    short, long = (
        _gather([chunk(Stream(90), i, c) for i, c in _chunk_ranges(t, CHUNK)])
        for t in (PREFIX_TRIALS, LONGER_TRIALS)
    )
    assert short.keys() == {"failed", "err", "mse", "selfnorm", "score", "fisher", "dev", "mult"}
    _assert_prefix_equal(short, long)


# the per-plan chunk functions of RNG layout 2, each simulating its own
# trajectories from the whole chunk's noise: the references the statistics of
# a shared chunk must equal. Their sums e_i x_i^T run over i = 0..N-1, as the
# chunks' blocks do; the i = 0 term is zero (x_0 = 0)


def _full_states(a, b, noise):
    """States x_0..x_N of each trial in one (count, N+1, d) array, one step at a
    time: the reference for the chunks' block recursion."""
    count, n, d = noise.shape
    states = np.zeros((count, n + 1, d))
    np.matmul(noise, b.T, out=states[:, 1:])
    for i in range(n):
        if a.ndim == 2:
            states[:, i + 1] += states[:, i] @ a.T
        else:
            states[:, i + 1] += np.einsum("tij,tj->ti", a, states[:, i])
    return states


def _gram_sums(states):
    """Whole-array reference: per-trial gamma = sum x_i x_{i-1}^T and symmetric
    sigma = sum x_{i-1} x_{i-1}^T over every step of ``states`` (count, N+1, d)."""
    x_prev = states[:, :-1]
    return _gram(states[:, 1:], x_prev), _sym(_gram(x_prev, x_prev))


def _ls_sq_error(a, b, noise):
    """|A_hat - A|_F^2 of one trajectory driven by ``noise`` (N, d), from whole-array sums."""
    singular, diff = _ls_error(*_gram_sums(_full_states(a, b, noise[None])), a)
    assert not singular[0]
    return np.sum(diff[0] ** 2)


def _simulate_chunk(params, rng, start, count):
    noise = chunk_noise(rng, start, count, params.n, params.d)
    return noise, _full_states(params.a, params.b, noise)


def _layout2_risk_chunk(params, rng, start, count):
    _, states = _simulate_chunk(params, rng, start, count)
    failed, diff = _ls_error(*_gram_sums(states), params.a)
    return {
        "failed": failed,
        "err": np.einsum("tij,tkj->tik", diff, diff),
        "mse": np.einsum("tij,tij->t", diff, diff),
    }


def _layout2_identity_chunk(params, psi_inv, rng, start, count):
    noise, states = _simulate_chunk(params, rng, start, count)
    score = _data_score(params, *_gram_sums(states))
    p = _gram(noise, states[:, :-1])
    return {
        "selfnorm": np.einsum("tij,jk,tlk->til", p, psi_inv, p),
        "score": score,
        "fisher": np.einsum("tij,tkj->tik", score, score),
    }


def _layout2_concentration_chunk(params, w, rng, start, count):
    _, states = _simulate_chunk(params, rng, start, count)
    x_prev = states[:, :-1]
    sigma = _sym(_gram(x_prev, x_prev))
    y = np.einsum("ij,tjk,kl->til", w, sigma, w) - np.eye(params.d)
    return {"dev": np.max(np.abs(np.linalg.eigvalsh(_sym(y))), axis=1)}


def _layout2_multiplication_chunk(params, w, rng, start, count):
    noise, states = _simulate_chunk(params, rng, start, count)
    g = np.einsum("ij,tkj->tik", w, _gram(noise, states[:, :-1]))
    return {"mult": np.linalg.svd(g, compute_uv=False)[:, 0] ** 2}


@pytest.mark.parametrize(
    "a, b, n",
    [
        (np.array([[0.5]]), np.array([[2.0]]), 32),
        (rotation(0.5, 0.8), np.diag([1.0, 2.0]), 6),
        (np.diag([0.3, 0.9, 1.05]), np.eye(3) + 0.2 * np.triu(np.ones((3, 3)), 1), 40),
    ],
)
def test_shared_chunk_statistics_are_bitwise_the_per_plan_chunks(a, b, n):
    params = SystemParams(a=a, b=b, n=n)
    psi_m = psi(params)
    psi_inv, w = np.linalg.solve(psi_m, np.eye(params.d)), sym_inv_sqrt(psi_m)
    references = [
        partial(_layout2_identity_chunk, params, psi_inv),
        partial(_layout2_risk_chunk, params),
        partial(_layout2_concentration_chunk, params, w),
        partial(_layout2_multiplication_chunk, params, w),
    ]
    for index, count in _chunk_ranges(CHUNK + 300, CHUNK):
        shared = fixed_chunk(params, _statistics(params, psi_inv, w), Stream(99), index, count)
        for reference in references:
            for key, value in reference(Stream(99), index, count).items():
                assert np.array_equal(shared[key], value), (key, index)


# ---------------------------------------------------------------------------
# chunk sizing: a chunk's trials, and so a worker's memory, do not grow with
# the trial count
# ---------------------------------------------------------------------------


def verify_plans(stats, spec):
    """A ``ChunkPlan`` per statistic of a ``verify`` chunk, each reducing to its arrays."""
    return [
        *(ChunkPlan(stat, _gather) for stat in stats),
        ChunkPlan(_bayes_stats, _gather, BAYES),
        ChunkPlan(partial(_prior_score_stats, spec), _gather, PRIOR),
    ]


VERIFY_KEYS = {"failed", "err", "mse", "selfnorm", "score", "fisher", "dev", "mult"} | {
    "bayes_failed",
    "bayes_mse",
    "lhs",
}


def _peak_bytes(task) -> int:
    tracemalloc.start()
    try:
        task()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _trials(task) -> int:
    """The trial count of a ``_chunk`` task."""
    return task.args[-1]


def test_chunk_memory_does_not_grow_with_the_trial_count(monkeypatch):
    # d = 8, N = 512 and chunks capped at 2^19 noise numbers, so 128 trials:
    # a chunk's block buffers and sums are sized by 128 trials at any trial
    # count, where one 4096-trial chunk would hold 32 times as much
    monkeypatch.setattr(ltibounds.montecarlo, "CHUNK_ELEMENTS", 2**19)
    d, n = 8, 512
    size = _chunk_trials(n * d)
    assert size == 128
    params = SystemParams(a=np.diag(np.linspace(0.3, 0.9, d)), b=np.eye(d), n=n)
    spec = PriorSpec(s=0.5, eps=0.5, d=d)
    draws = Draws(Stream(102), n, d, params, Stream(103), spec)
    plans = verify_plans(_statistics(params, np.eye(d), np.eye(d)), spec)
    peaks = []
    for trials in (256, 4096):
        tasks = _chunks(draws, trials, plans)
        assert sum(map(_trials, tasks)) == trials
        assert max(map(_trials, tasks)) <= size
        peaks.append(_peak_bytes(max(tasks, key=_trials)))
    small, large = peaks
    assert large < 1.5 * small


def test_verify_chunk_peak_does_not_grow_with_the_horizon():
    # d = 8 and 256 trials, one chunk at either horizon: a worker holds one
    # block of noise, never the chunk's, so N = 2048 (32 blocks, 32 MB of
    # noise in all) peaks within 1.5x of N = 256 (4 blocks) and below 5 MB
    d, count = 8, _chunk_trials(2048 * 8)
    assert count == 256
    spec = PriorSpec(s=0.5, eps=0.5, d=d)
    peaks = []
    for n in (256, 2048):
        params = SystemParams(a=np.diag(np.linspace(0.3, 0.9, d)), b=np.eye(d), n=n)
        draws = Draws(Stream(109), n, d, params, Stream(110), spec)
        plans = verify_plans(_statistics(params, np.eye(d), np.eye(d)), spec)
        (task,) = _chunks(draws, count, plans)
        peaks.append(_peak_bytes(task))
    short, long = peaks
    assert long < 1.5 * short
    assert long < 5 * 2**20


def record_task_lists(monkeypatch):
    """The task lists ``run_plans`` hands ``_run_tasks``, recorded as they run."""
    lists = []

    def recording(tasks, workers=1):
        lists.append(tasks)
        return _run_tasks(tasks, workers)

    monkeypatch.setattr(ltibounds.montecarlo, "_run_tasks", recording)
    return lists


def test_run_plans_lists_the_chunks_before_the_bound(monkeypatch):
    # a pool gets the tasks in list order, so the long chunks go first
    lists = record_task_lists(monkeypatch)
    params = SystemParams(a=rotation(0.5, 0.8), b=np.diag([1.0, 2.0]), n=6)
    bound = partial(cr_bound, params, 0.3, 1.0, grid_points=128)
    plans = [identity_plan(params), dominance_plan(params, CHUNK + 1, bound)]
    run_plans(fixed_draws(params, Stream(7)), CHUNK + 1, plans)
    (tasks,) = lists
    assert [task.func for task in tasks] == [_chunk, _chunk, cr_bound]
    assert tasks[-1] is bound
    # both plans' statistics are computed by the same chunk tasks
    assert all(task.args[1] == tuple(p.statistic for p in plans) for task in tasks[:-1])


def test_bayes_chunk_trial_prefix_invariance():
    spec = PriorSpec(s=0.5, eps=0.5, d=2)
    draws = Draws(Stream(91), 6, 2, prior=Stream(91), spec=spec)
    short, long = (
        _gather([_chunk(draws, (), (_bayes_stats,), (), i, c) for i, c in _chunk_ranges(t, CHUNK)])
        for t in (PREFIX_TRIALS, LONGER_TRIALS)
    )
    assert short.keys() == {"bayes_failed", "bayes_mse"}
    _assert_prefix_equal(short, long)


def test_prior_identity_chunk_trial_prefix_invariance():
    spec = PriorSpec(s=0.5, eps=1.0, d=3)
    draws = Draws(Stream(92), 0, 3, prior=Stream(92), spec=spec)
    prior = (partial(_prior_score_stats, spec),)
    short, long = (
        _gather([_chunk(draws, (), (), prior, i, c) for i, c in _chunk_ranges(t, CHUNK)])
        for t in (PREFIX_TRIALS, LONGER_TRIALS)
    )
    assert short.keys() == {"lhs"}
    _assert_prefix_equal(short, long)


@pytest.mark.parametrize("n", [6, 197])
def test_verify_chunks_are_trial_prefix_invariant_at_every_chunk_size(monkeypatch, n):
    # chunks of 300 trials: the prefix holds one whole chunk and 5 trials of
    # the next, whose draws do not depend on the trials after it; at N = 197
    # each chunk draws 4 blocks of noise, each trial-major from its own stream
    monkeypatch.setattr(ltibounds.montecarlo, "CHUNK_ELEMENTS", 300 * n * 2)
    params = SystemParams(a=rotation(0.5, 0.8), b=np.diag([1.0, 2.0]), n=n)
    spec = PriorSpec(s=0.5, eps=0.5, d=2)
    draws = Draws(Stream(104), params.n, params.d, params, Stream(105), spec)
    plans = verify_plans(_statistics(params, np.eye(2), 0.5 * np.eye(2)), spec)
    short, long = (
        run_plans(draws, trials, plans)[0]
        for trials in (305, 612)
    )
    assert short.keys() == VERIFY_KEYS
    for key in short:
        assert len(short[key]) == 305
        assert np.array_equal(short[key], long[key][:305]), key


@pytest.mark.parametrize("n", [6, 197])
def test_verify_chunks_do_not_depend_on_workers(monkeypatch, n):
    # three chunks of 300 trials, spread over one and two workers
    monkeypatch.setattr(ltibounds.montecarlo, "CHUNK_ELEMENTS", 300 * n * 2)
    params = SystemParams(a=rotation(0.5, 0.8), b=np.diag([1.0, 2.0]), n=n)
    spec = PriorSpec(s=0.5, eps=0.5, d=2)
    draws = Draws(Stream(111), params.n, params.d, params, Stream(112), spec)
    plans = verify_plans(_statistics(params, np.eye(2), 0.5 * np.eye(2)), spec)
    one, two = (run_plans(draws, 700, plans, workers)[0] for workers in (1, 2))
    assert one.keys() == two.keys() == VERIFY_KEYS
    for key in one:
        assert np.array_equal(one[key], two[key]), key
    assert multiprocessing.active_children() == []


def test_chunk_draws_each_block_of_noise_from_its_own_stream():
    # N = 197: blocks of 64, 64, 64 and 5 steps, block j of chunk 1 drawn from
    # noise.child(1, KIND_NOISE, j); both sets of trajectories read them
    params = SystemParams(a=rotation(0.5, 0.8), b=np.diag([1.0, 2.0]), n=197)
    spec = PriorSpec(s=0.5, eps=0.5, d=2)
    noise_rng, prior_rng, count = Stream(113), Stream(114), 30
    draws = Draws(noise_rng, params.n, params.d, params, prior_rng, spec)
    out = _chunk(draws, (_risk_stats,), (_bayes_stats,), (), 1, count)
    noise = chunk_noise(noise_rng, 1, count, params.n, params.d)
    a_stack = sample_prior_batch(spec, prior_rng.child(1), count).a
    fixed = _risk_stats(simulated(params.a, params.b, noise))
    bayes = _bayes_stats(simulated(a_stack, np.eye(2), noise))
    assert out.keys() == fixed.keys() | bayes.keys()
    for key, value in {**fixed, **bayes}.items():
        assert np.array_equal(out[key], value), key


# ---------------------------------------------------------------------------
# the model kernel as the chunks use it: Gram sums, state recursion, least squares
# ---------------------------------------------------------------------------


def _einsum_gram(x, y):
    return np.einsum("tni,tnj->tij", x, y)


@pytest.mark.parametrize("count, n, d", [(5, 40, 3), (1, 40, 3), (5, 40, 1), (1, 2, 1)])
def test_gram_matches_einsum_on_strided_views(count, n, d):
    g = Stream(93).generator()
    trial_major = g.standard_normal((count, n + 1, d))
    time_major = np.swapaxes(g.standard_normal((n + 1, count, d)), 0, 1)
    views = [
        (trial_major[:, 1:], trial_major[:, :-1]),
        (time_major[:, 1:], time_major[:, :-1]),
        (trial_major[:, 1:], time_major[:, :-1]),
        (trial_major[:, :-1:2], time_major[:, 1::2]),
        (time_major[:, :-1, ::-1], time_major[:, :-1]),
    ]
    for x, y in views:
        ref = _einsum_gram(x, y)
        assert _gram(x, y).shape == ref.shape == (count, d, d)
        np.testing.assert_allclose(_gram(x, y), ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("count, n, d", [(300, 50, 8), (1, 7, 2), (40, 9, 1)])
def test_states_batch_is_bitwise_the_per_step_loop(count, n, d):
    g = Stream(94).generator()
    a = 0.9 * np.linalg.qr(g.standard_normal((d, d)))[0]
    b = np.diag(g.uniform(0.5, 2.0, d)) + 0.1 * g.standard_normal((d, d))
    noise = g.standard_normal((count, n, d))
    states = np.zeros((count, n + 1, d))
    _states_batch(a, b, noise, states)
    assert np.array_equal(states, _full_states(a, b, noise))


def test_states_batch_one_a_per_trial_matches_simulate_injected():
    spec = PriorSpec(s=0.5, eps=0.5, d=3)
    count, n = 20, 30
    a_stack = sample_prior_batch(spec, Stream(95), count).a
    noise = Stream(96).generator().standard_normal((count, n, spec.d))
    states = np.zeros((count, n + 1, spec.d))
    _states_batch(a_stack, np.eye(spec.d), noise, states)
    # the reference runs each trial alone, through the shared-A recursion
    for a, x, e in zip(a_stack, states, noise):
        ref = np.zeros((1, n + 1, spec.d))
        _states_batch(a, np.eye(spec.d), e[None], ref)
        np.testing.assert_allclose(x, ref[0], rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def test_bayes_chunk_matches_per_trial_least_squares():
    # the Bayes trajectory of trial k is driven by the noise of the fixed
    # system's trajectory k, with B = I and the chunk's k-th prior draw of A
    params = SystemParams(a=rotation(0.5, 0.8), b=np.diag([1.0, 2.0]), n=12)
    spec = PriorSpec(s=0.5, eps=0.5, d=2)
    count, noise_rng, prior_rng = 50, Stream(97), Stream(197)
    draws = Draws(noise_rng, params.n, params.d, params, prior_rng, spec)
    out = _chunk(draws, (_risk_stats,), (_bayes_stats,), (), 0, count)
    a_stack = sample_prior_batch(spec, prior_rng.child(0), count).a
    noise = chunk_noise(noise_rng, 0, count, params.n, params.d)
    fixed, bayes = [], []
    for a, e in zip(a_stack, noise):
        fixed.append(_ls_sq_error(params.a, params.b, e))
        bayes.append(_ls_sq_error(a, np.eye(spec.d), e))
    assert not out["failed"].any() and not out["bayes_failed"].any()
    np.testing.assert_allclose(out["mse"], fixed, rtol=1e-9)
    np.testing.assert_allclose(out["bayes_mse"], bayes, rtol=1e-9)


def test_chunks_form_each_gram_sum_once_and_only_what_their_reducer_reads(monkeypatch):
    calls = []
    original = ltibounds.model._gram

    def recording_gram(x, y):
        calls.append(x.shape)
        return original(x, y)

    monkeypatch.setattr(ltibounds.model, "_gram", recording_gram)
    monkeypatch.setattr(ltibounds.montecarlo, "_gram", recording_gram)
    params = SystemParams(a=rotation(0.5, 0.8), b=np.diag([1.0, 2.0]), n=6)
    identity, risk, concentration, multiplication = _statistics(params, np.eye(2), 0.5 * np.eye(2))
    spec = PriorSpec(s=0.5, eps=0.5, d=2)
    prior = partial(_prior_score_stats, spec)
    draws = Draws(Stream(98), params.n, params.d, params, Stream(98), spec)
    every = (identity, risk, concentration, multiplication)
    identity_keys = {"selfnorm", "score", "fisher"}
    risk_keys = {"failed", "err", "mse"}
    every_keys = identity_keys | risk_keys | {"dev", "mult"}
    bayes_keys = {"bayes_failed", "bayes_mse"}
    # each set of trajectories forms gamma and sigma, the fixed system's
    # sum e_i x_i^T only on demand; the prior score forms none
    expected = [
        (every, (), (), 3, every_keys),
        ((identity,), (), (), 3, identity_keys),
        ((risk,), (), (), 2, risk_keys),
        ((concentration,), (), (), 2, {"dev"}),
        ((multiplication,), (), (), 3, {"mult"}),
        ((), (_bayes_stats,), (), 2, bayes_keys),
        ((), (), (prior,), 0, {"lhs"}),
        (every, (_bayes_stats,), (prior,), 5, every_keys | bayes_keys | {"lhs"}),
    ]
    for fixed, bayes, prior_stats, sums, keys in expected:
        calls.clear()
        assert set(_chunk(draws, fixed, bayes, prior_stats, 0, 10)) == keys
        assert len(calls) == sums, keys


def _full_sums(a, b, noise):
    """gamma, sigma and sum_{i=0}^{N-1} e_i x_i^T from the whole (count, N+1, d) state array."""
    states = _full_states(a, b, noise)
    return (*_gram_sums(states), _gram(noise, states[:, :-1]))


@pytest.mark.parametrize("n", [63, 64, 65, 197])
@pytest.mark.parametrize("shared", [True, False], ids=["shared-a", "a-per-trial"])
def test_streamed_sums_match_the_whole_array_formula(n, shared):
    # N <= BLOCK is one block and gives the same bytes; beyond it the blocks'
    # partial sums only change the summation order
    assert ltibounds.montecarlo.BLOCK == 64
    d, count = 3, 40
    g = Stream(106).generator()
    if shared:
        a, b = 0.9 * np.linalg.qr(g.standard_normal((d, d)))[0], np.diag([1.0, 2.0, 0.5])
    else:
        a, b = sample_prior_batch(PriorSpec(s=0.5, eps=0.5, d=d), Stream(107), count).a, np.eye(d)
    noise = g.standard_normal((count, n, d))
    chunk = simulated(a, b, noise, noise_gram=True)
    streamed = (chunk.gamma, chunk.sigma, chunk.noise_gram)
    for name, got, ref in zip(("gamma", "sigma", "noise_gram"), streamed, _full_sums(a, b, noise)):
        if n <= 64:
            assert np.array_equal(got, ref), name
        else:
            scale = np.abs(ref).max(axis=(1, 2), keepdims=True)
            assert np.all(np.abs(got - ref) <= 1e-12 * scale), name
    assert np.array_equal(chunk.sigma, np.swapaxes(chunk.sigma, 1, 2))
    assert not hasattr(SimulatedChunk(a, b, count, d), "noise_gram")


def test_multi_block_chunks_form_each_gram_sum_once_per_block(monkeypatch):
    calls = []
    original = ltibounds.model._gram

    def recording_gram(x, y):
        calls.append(x.shape)
        return original(x, y)

    monkeypatch.setattr(ltibounds.model, "_gram", recording_gram)
    monkeypatch.setattr(ltibounds.montecarlo, "_gram", recording_gram)
    # N = 197 runs as 4 blocks: 64, 64, 64 and 5 steps
    params = SystemParams(a=rotation(0.5, 0.8), b=np.diag([1.0, 2.0]), n=197)
    blocks = -(-params.n // ltibounds.montecarlo.BLOCK)
    assert blocks == 4
    identity, risk, concentration, multiplication = _statistics(params, np.eye(2), 0.5 * np.eye(2))
    spec = PriorSpec(s=0.5, eps=0.5, d=2)
    draws = Draws(Stream(108), params.n, params.d, params, Stream(108), spec)
    expected = [
        ((identity, risk, concentration, multiplication), (), 3),
        ((risk,), (), 2),
        ((), (_bayes_stats,), 2),
        ((identity,), (_bayes_stats,), 5),
    ]
    for fixed, bayes, sums in expected:
        calls.clear()
        _chunk(draws, fixed, bayes, (), 0, 10)
        assert len(calls) == sums * blocks, (fixed, bayes)
        # every product spans at most one block's steps
        assert max(shape[1] for shape in calls) <= ltibounds.montecarlo.BLOCK


def test_gather_joins_only_the_named_arrays():
    parts = [{"x": np.arange(2), "y": np.zeros(2)}, {"x": np.arange(2, 5), "y": np.ones(3)}]
    assert _gather(parts, "x").keys() == {"x"}
    assert np.array_equal(_gather(parts, "x")["x"], np.arange(5))
    assert _gather(parts).keys() == {"x", "y"}
    # one part is returned as is, whatever it holds besides
    assert _gather(parts[:1], "x") is parts[0]


def test_all_singular_raises():
    # N = d+1 leaves just enough data; genuine noise never makes a trial
    # singular, so the rejection audit is driven with rejection flags
    params = SystemParams(a=np.zeros((1, 1)), b=np.eye(1), n=2)
    est = empirical_risk(params, 200, Stream(85))
    assert est.failed_trials == 0
    flags = np.zeros(2000, dtype=bool)
    flags[:2] = True  # 0.1%: at the audit threshold, still accepted
    assert _accepted_trials(flags, "trials") == 1998
    flags[2] = True
    with pytest.raises(TooManySingularTrialsError, match="3 of 2000 trials"):
        _accepted_trials(flags, "trials")
    with pytest.raises(AllTrialsSingularError, match="all Bayes trials"):
        _accepted_trials(np.ones(5, dtype=bool), "Bayes trials")


# ---------------------------------------------------------------------------
# runner: one task list, reducers in order
# ---------------------------------------------------------------------------

CALLS = []


def _square(x):
    CALLS.append(x)
    return x * x


def _task_error(message):
    raise ValueError(message)


def _reducer_error(parts):
    raise LookupError(f"reducer saw {len(parts)} parts")


def _other_reducer_error(parts):
    raise RuntimeError("second reducer")


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_run_tasks_returns_each_result_in_order(workers):
    tasks = [partial(_square, 2), partial(_square, 3), partial(_square, 4)]
    assert _run_tasks(tasks, workers) == [4, 9, 16]
    assert _run_tasks([], workers) == []
    assert multiprocessing.active_children() == []


def _trial_count(parts):
    return sum(len(part["mse"]) for part in parts)


def _trial_count_and_report(parts, report):
    return _trial_count(parts), report


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_run_plans_reduces_each_plan_in_order(workers):
    # two chunks and a bound task; a plan with a bound gets its result after the chunks'
    plans = [
        ChunkPlan(_risk_stats, _trial_count),
        None,
        ChunkPlan(_risk_stats, _trial_count_and_report, bound=partial(_square, 5)),
        ChunkPlan(_risk_stats, len),
    ]
    draws = fixed_draws(scalar_params(0.5), Stream(8))
    assert run_plans(draws, CHUNK + 3, plans, workers) == [CHUNK + 3, None, (CHUNK + 3, 25), 2]
    assert multiprocessing.active_children() == []


def _counted_bound(params, epsilon):
    CALLS.append(epsilon)
    return cr_bound(params, epsilon, 1.0, grid_points=128)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_plans_runs_a_bound_task_shared_by_three_plans_once(monkeypatch, workers):
    CALLS.clear()
    lists = record_task_lists(monkeypatch)
    params = SystemParams(a=0.5 * np.eye(2), b=np.eye(2), n=8)
    bound = partial(_counted_bound, params, 0.3)
    plans = [
        dominance_plan(params, 1000, bound),
        concentration_plan(params, 1000, [1.0], bound),
        multiplication_plan(params, 1000, bound),
    ]
    dominance, concentration, multiplication = run_plans(
        fixed_draws(params, Stream(9)), 1000, plans, workers
    )
    (tasks,) = lists
    assert [task.func for task in tasks] == [_chunk, _counted_bound]
    if workers == 1:
        assert CALLS == [0.3]
    report = cr_bound(params, 0.3, 1.0, grid_points=128)
    assert multiplication.bound_value == params.d * report.delta2
    assert concentration.t_levels == (1.0,) and dominance.margin > 0
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
def test_errors_come_in_task_order_then_reducer_order(workers):
    tasks = [partial(_square, 2), partial(_task_error, "early task"), partial(_task_error, "late task")]
    with pytest.raises(ValueError, match="early task"):
        _run_tasks(tasks, workers)
    draws = fixed_draws(scalar_params(0.5), Stream(10))
    # a bound task's error comes before an earlier plan's reducer error
    reducer_first = [
        ChunkPlan(_risk_stats, _reducer_error),
        ChunkPlan(_risk_stats, _trial_count_and_report, bound=partial(_task_error, "bound task")),
    ]
    with pytest.raises(ValueError, match="bound task"):
        run_plans(draws, 100, reducer_first, workers)
    two_bounds = [
        ChunkPlan(_risk_stats, _trial_count_and_report, bound=partial(_task_error, "first bound")),
        ChunkPlan(_risk_stats, _trial_count_and_report, bound=partial(_task_error, "second bound")),
    ]
    with pytest.raises(ValueError, match="first bound"):
        run_plans(draws, 100, two_bounds, workers)
    two_reducers = [
        ChunkPlan(_risk_stats, _trial_count),
        ChunkPlan(_risk_stats, _reducer_error),
        ChunkPlan(_risk_stats, _other_reducer_error),
    ]
    with pytest.raises(LookupError, match="reducer saw"):
        run_plans(draws, 100, two_reducers, workers)
    assert multiprocessing.active_children() == []
