import multiprocessing
from functools import partial

import numpy as np
import pytest

import ltibounds.bounds
import ltibounds.montecarlo
from ltibounds.bounds import cr_bound
from ltibounds.minimax import PriorSpec, sample_prior_batch
from ltibounds.model import SystemParams, least_squares, simulate_injected
from ltibounds.montecarlo import (
    CHUNK,
    AllTrialsSingularError,
    Experiment,
    _bayes_chunk,
    _chunk_ranges,
    _chunk_stream,
    _gather,
    _gram,
    _noise_chunk,
    _prior_identity_chunk,
    _states_batch,
    _trajectory_chunk,
    _trajectory_stats,
    bayes_risk_experiment,
    concentration_experiment,
    dominance_check,
    empirical_risk,
    identity_checks,
    mc_fisher_check,
    mc_score_mean,
    mc_selfnorm_identity,
    multiplication_experiment,
    norm_ineq_fuzz,
    prior_identity_check,
    run_experiments,
)
from ltibounds.rng import Stream


def rotation(theta: float, scale: float = 1.0) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return scale * np.array([[c, -s], [s, c]])


def scalar_params(a: float, b: float = 1.0, n: int = 8) -> SystemParams:
    return SystemParams(a=np.array([[a]]), b=np.array([[b]]), n=n)


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


def test_selfnorm_identity_rotation():
    params = SystemParams(a=rotation(0.5, 0.6), b=np.eye(2), n=10)
    checks = identity_checks(params, 20_000, Stream(57))
    by_name = {c.name: c for c in checks}
    assert by_name["selfnorm_identity"].passed
    assert by_name["selfnorm_identity"].target == pytest.approx(4.0)  # trace(d * I_d)


def test_selfnorm_identity_scalar_memoryless():
    params = scalar_params(0.0, n=5)
    mean = mc_selfnorm_identity(params, 20_000, Stream(58))
    assert mean[0, 0] == pytest.approx(1.0, abs=0.05)


def test_selfnorm_noise_scale_exact_invariance():
    params1 = SystemParams(a=0.5 * np.eye(2), b=np.eye(2), n=8)
    params3 = SystemParams(a=0.5 * np.eye(2), b=3.0 * np.eye(2), n=8)
    m1 = mc_selfnorm_identity(params1, 2000, Stream(59))
    m3 = mc_selfnorm_identity(params3, 2000, Stream(59))
    assert np.allclose(m1, m3, rtol=1e-10)


def test_fisher_check_memoryless():
    params = SystemParams(a=np.zeros((2, 2)), b=np.eye(2), n=6)
    mc, closed, rel = mc_fisher_check(params, 10_000, Stream(60))
    assert np.allclose(closed, 10.0 * np.eye(2))
    assert rel < 0.05


def test_fisher_check_stable_random():
    g = Stream(61).generator()
    a = 0.4 * g.standard_normal((2, 2))
    params = SystemParams(a=a, b=np.eye(2), n=12)
    _, _, rel = mc_fisher_check(params, 10_000, Stream(62))
    assert rel < 0.05


def test_fisher_noise_scale_invariance_mc():
    a = 0.5 * np.eye(2)
    m1, c1, _ = mc_fisher_check(SystemParams(a=a, b=np.eye(2), n=8), 2000, Stream(63))
    m3, c3, _ = mc_fisher_check(SystemParams(a=a, b=3 * np.eye(2), n=8), 2000, Stream(63))
    assert np.allclose(m1, m3, rtol=1e-10)
    assert np.allclose(c1, c3, rtol=1e-10)


def test_score_mean_zero_and_negative_control():
    params = scalar_params(0.5, n=16)
    checks = identity_checks(params, 20_000, Stream(64))
    score = [c for c in checks if c.name == "score_mean_zero"][0]
    assert score.passed
    # misspecified parameter: the mean is visibly nonzero
    wrong = mc_score_mean(params, 5000, Stream(65), eval_a=np.array([[0.8]]))
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


def test_dominance_rejects_bound_for_other_epsilon():
    params = scalar_params(0.5, n=64)
    with pytest.raises(ValueError):
        dominance_check(params, 200, 0.1, Stream(87), bound=cr_bound(params, 0.2))


def test_dominance_negative_control():
    params = scalar_params(0.5, n=500)
    result = dominance_check(params, 4000, 0.1, Stream(79), bound_scale=10.0)
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
# stream layout: trial k's draws depend only on (seed, salt, k)
# ---------------------------------------------------------------------------

PREFIX_TRIALS = CHUNK + 5
LONGER_TRIALS = PREFIX_TRIALS + CHUNK + 7


def _assert_prefix_equal(short: dict, long: dict) -> None:
    assert short.keys() == long.keys()
    for key in short:
        assert len(short[key]) == PREFIX_TRIALS
        assert np.array_equal(short[key], long[key][:PREFIX_TRIALS]), key


def test_trajectory_stats_trial_prefix_invariance():
    params = SystemParams(a=rotation(0.5, 0.8), b=np.diag([1.0, 2.0]), n=6)
    aux = {
        "psi_inv": np.eye(2),
        "bbt_inv": np.eye(2),
        "w": np.eye(2),
        "a_eval": 0.5 * np.eye(2),
    }
    want = frozenset({"err", "mse", "score", "fisher", "selfnorm", "dev", "mult"})
    short, long = (
        _trajectory_stats(params, trials, Stream(90), want, aux, 1)
        for trials in (PREFIX_TRIALS, LONGER_TRIALS)
    )
    _assert_prefix_equal(short, long)


def test_bayes_chunk_trial_prefix_invariance():
    spec = PriorSpec(s=0.5, eps=0.5, d=2)
    short, long = (
        _gather([_bayes_chunk(spec, 6, Stream(91), s, c) for s, c in _chunk_ranges(t)])
        for t in (PREFIX_TRIALS, LONGER_TRIALS)
    )
    _assert_prefix_equal(short, long)


def test_prior_identity_chunk_trial_prefix_invariance():
    spec = PriorSpec(s=0.5, eps=1.0, d=3)
    short, long = (
        _gather([_prior_identity_chunk(spec, Stream(92), s, c) for s, c in _chunk_ranges(t)])
        for t in (PREFIX_TRIALS, LONGER_TRIALS)
    )
    _assert_prefix_equal(short, long)


# ---------------------------------------------------------------------------
# kernel: Gram sums, state recursion, least squares
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


def _states_loop(a, b, noise):
    """The per-step recursion of one shared A, kept as the kernel's reference."""
    count, n, d = noise.shape
    states = np.zeros((count, n + 1, d))
    np.matmul(noise, b.T, out=states[:, 1:])
    for i in range(n):
        states[:, i + 1] += states[:, i] @ a.T
    return states


@pytest.mark.parametrize("count, n, d", [(300, 50, 8), (1, 7, 2), (40, 9, 1)])
def test_states_batch_is_bitwise_the_per_step_loop(count, n, d):
    g = Stream(94).generator()
    a = 0.9 * np.linalg.qr(g.standard_normal((d, d)))[0]
    b = np.diag(g.uniform(0.5, 2.0, d)) + 0.1 * g.standard_normal((d, d))
    noise = g.standard_normal((count, n, d))
    states = _states_batch(a, b, noise)
    assert states.shape == (count, n + 1, d)
    assert np.array_equal(states, _states_loop(a, b, noise))


def test_states_batch_one_a_per_trial_matches_simulate_injected():
    spec = PriorSpec(s=0.5, eps=0.5, d=3)
    count, n = 20, 30
    a_stack = sample_prior_batch(spec, Stream(95), count).a
    noise = Stream(96).generator().standard_normal((count, n, spec.d))
    states = _states_batch(a_stack, np.eye(spec.d), noise)
    for a, x, e in zip(a_stack, states, noise):
        ref = simulate_injected(SystemParams(a=a, b=np.eye(spec.d), n=n), e).states
        np.testing.assert_allclose(x, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def test_bayes_chunk_matches_per_trial_least_squares():
    spec = PriorSpec(s=0.5, eps=0.5, d=2)
    n, count, rng = 12, 50, Stream(97)
    out = _bayes_chunk(spec, n, rng, 0, count)
    a_stack = sample_prior_batch(spec, _chunk_stream(rng, 0), count).a
    noise = _noise_chunk(rng, 0, count, n, spec.d)
    ref = []
    for a, e in zip(a_stack, noise):
        traj = simulate_injected(SystemParams(a=a, b=np.eye(spec.d), n=n), e)
        ref.append(np.sum((least_squares(traj) - a) ** 2))
    assert not out["failed"].any()
    np.testing.assert_allclose(out["mse"], ref, rtol=1e-9)


ALL_STATS = frozenset({"err", "mse", "score", "fisher", "selfnorm", "dev", "mult"})


def _chunk_aux(d):
    return {"psi_inv": np.eye(d), "bbt_inv": np.eye(d), "w": 0.5 * np.eye(d)}


def test_trajectory_chunk_forms_each_gram_sum_once(monkeypatch):
    calls = []
    original = ltibounds.montecarlo._gram

    def recording_gram(x, y):
        calls.append(x.shape)
        return original(x, y)

    monkeypatch.setattr(ltibounds.montecarlo, "_gram", recording_gram)
    params = SystemParams(a=rotation(0.5, 0.8), b=np.diag([1.0, 2.0]), n=6)
    _trajectory_chunk(params, ALL_STATS, _chunk_aux(2), Stream(98), 0, 10)
    assert len(calls) == 3  # sigma, gamma, and sum e_i x_i^T
    calls.clear()
    _trajectory_chunk(params, frozenset({"dev"}), _chunk_aux(2), Stream(98), 0, 10)
    assert len(calls) == 1


def test_trajectory_chunk_statistics_do_not_depend_on_what_else_is_asked():
    params = SystemParams(a=rotation(0.5, 0.8), b=np.diag([1.0, 2.0]), n=6)
    together = _trajectory_chunk(params, ALL_STATS, _chunk_aux(2), Stream(99), 0, 50)
    for stats in ({"err", "mse"}, {"score"}, {"fisher"}, {"selfnorm"}, {"dev"}, {"mult"}):
        alone = _trajectory_chunk(params, frozenset(stats), _chunk_aux(2), Stream(99), 0, 50)
        for key in alone:
            assert np.array_equal(alone[key], together[key]), key


def test_all_singular_raises():
    # d=2 with N=3 leaves just enough data; a degenerate case cannot happen
    # with genuine noise, so force it via trials below the audit threshold
    params = SystemParams(a=np.zeros((1, 1)), b=np.eye(1), n=2)
    est = empirical_risk(params, 200, Stream(85))
    assert est.failed_trials == 0
    with pytest.raises(AllTrialsSingularError):
        raise AllTrialsSingularError("sentinel")


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
    raise LookupError(f"reducer saw {parts}")


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_run_experiments_reduces_each_experiment_in_order(workers):
    experiments = [
        Experiment([partial(_square, 2), partial(_square, 3)], sum),
        Experiment([], len),
        Experiment([partial(_square, 4)], list),
    ]
    assert run_experiments(experiments, workers) == [13, 0, [16]]
    assert multiprocessing.active_children() == []


def test_run_experiments_runs_a_shared_task_once():
    CALLS.clear()
    shared = partial(_square, 5)
    experiments = [Experiment([shared, partial(_square, 6)], sum), Experiment([shared], sum)]
    assert run_experiments(experiments, 1) == [61, 25]
    assert CALLS == [5, 6]


@pytest.mark.parametrize("workers", [1, 2])
def test_run_experiments_raises_the_first_error_in_report_order(workers):
    reducer_first = [
        Experiment([partial(_square, 2)], _reducer_error),
        Experiment([partial(_task_error, "later task")], sum),
    ]
    with pytest.raises(LookupError, match=r"reducer saw \[4\]"):
        run_experiments(reducer_first, workers)
    task_first = [
        Experiment([partial(_square, 2), partial(_task_error, "early task")], sum),
        Experiment([partial(_square, 3)], _reducer_error),
    ]
    with pytest.raises(ValueError, match="early task"):
        run_experiments(task_first, workers)
    assert multiprocessing.active_children() == []
