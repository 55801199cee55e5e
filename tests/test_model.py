import numpy as np
import pytest

from ltibounds.model import (
    SingularCovarianceError,
    SystemParams,
    Trajectory,
    fisher_information,
    gram_stats,
    information_scalar,
    least_squares,
    log_likelihood,
    sensitivity,
    simulate,
    simulate_injected,
)
from ltibounds.montecarlo import _states_batch
from ltibounds.rng import Stream


def scalar_params(a: float, b: float = 1.0, n: int = 8) -> SystemParams:
    return SystemParams(a=np.array([[a]]), b=np.array([[b]]), n=n)


def noise_form_score(params: SystemParams, traj: Trajectory) -> np.ndarray:
    """Independent oracle: (B*)^{-1} sum_{i=1}^{N} e_{i-1} x_{i-1}^T."""
    assert traj.noise is not None
    acc = traj.noise.T @ traj.states[:-1]
    return np.linalg.solve(params.b.T, acc)


# ---------------------------------------------------------------------------
# params / trajectory validation
# ---------------------------------------------------------------------------


def test_params_rejects_rank_deficient_b():
    with pytest.raises(ValueError):
        SystemParams(a=np.eye(2), b=np.array([[1.0, 0.0], [1.0, 0.0]]), n=8)


def test_params_rejects_short_horizon():
    with pytest.raises(ValueError):
        SystemParams(a=np.eye(3), b=np.eye(3), n=3)


def test_trajectory_requires_zero_start():
    with pytest.raises(ValueError):
        Trajectory(states=np.array([[1.0], [0.0]]))


# ---------------------------------------------------------------------------
# simulate / simulate_injected
# ---------------------------------------------------------------------------


def test_injected_scalar_recursion():
    params = scalar_params(2.0, 1.0, n=3)
    traj = simulate_injected(params, np.array([[1.0], [0.0], [0.0]]))
    assert np.allclose(traj.states.ravel(), [0.0, 1.0, 2.0, 4.0])


def test_injected_zero_noise():
    params = SystemParams(a=0.3 * np.eye(2), b=np.eye(2), n=5)
    traj = simulate_injected(params, np.zeros((5, 2)))
    assert np.all(traj.states == 0.0)


def test_injected_impulse_traces_powers():
    # one-hot noise at step 0: x_i = A^{i-1} B e_0
    a = np.array([[0.5, 0.2], [0.0, 0.4]])
    params = SystemParams(a=a, b=np.eye(2), n=4)
    noise = np.zeros((4, 2))
    noise[0, 0] = 1.0
    traj = simulate_injected(params, noise)
    expected = np.eye(2)[:, 0]
    for i in range(1, 5):
        assert np.allclose(traj.states[i], expected)
        expected = a @ expected
    with pytest.raises(ValueError):
        simulate_injected(params, np.zeros((3, 2)))


def test_memoryless_case():
    params = SystemParams(a=np.zeros((2, 2)), b=np.eye(2), n=6)
    traj = simulate(params, Stream(7), keep_noise=True)
    assert np.allclose(traj.states[1:], traj.noise)


def test_simulate_replay_matches_injected():
    params = SystemParams(a=0.5 * np.eye(2), b=np.diag([1.0, 3.0]), n=10)
    stream = Stream(11).child(4)
    traj = simulate(params, stream, keep_noise=True)
    replay = simulate_injected(params, stream.generator().standard_normal((10, 2)))
    assert np.array_equal(traj.states, replay.states)


def test_simulate_two_step_covariance():
    # cov(x_2) = BB* + A BB* A* = 1.25 I for A = 0.5 I, B = I
    params = SystemParams(a=0.5 * np.eye(2), b=np.eye(2), n=3)
    trials = 100_000
    noise = Stream(12).generator().standard_normal((trials, params.n, params.d))
    states = _states_batch(params.a, params.b, noise)
    # the batched recursion is the one simulate_injected runs, trial by trial
    for k in range(3):
        reference = simulate_injected(params, noise[k]).states
        np.testing.assert_allclose(states[k], reference, rtol=1e-12)
    xs = states[:, 2]
    prods = np.einsum("ti,tj->tij", xs, xs)
    mean = prods.mean(axis=0)
    se = prods.std(axis=(0,), ddof=1) / np.sqrt(trials)
    assert np.all(np.abs(mean - 1.25 * np.eye(2)) < 3 * se + 1e-12)


# ---------------------------------------------------------------------------
# gram_stats
# ---------------------------------------------------------------------------


def test_gram_scalar_hand_sum():
    traj = Trajectory(states=np.array([[0.0], [1.0], [3.0]]))
    stats = gram_stats(traj)
    assert stats.gamma[0, 0] == pytest.approx(3.0)
    assert stats.sigma[0, 0] == pytest.approx(1.0)


def test_gram_zero_states():
    traj = Trajectory(states=np.zeros((4, 2)))
    stats = gram_stats(traj)
    assert np.all(stats.gamma == 0.0)
    assert np.all(stats.sigma == 0.0)


def test_gram_matches_double_loop():
    params = SystemParams(a=0.6 * np.eye(3), b=np.eye(3), n=9)
    traj = simulate(params, Stream(13))
    stats = gram_stats(traj)
    gamma = np.zeros((3, 3))
    sigma = np.zeros((3, 3))
    for i in range(1, 10):
        gamma += np.outer(traj.states[i], traj.states[i - 1])
        sigma += np.outer(traj.states[i - 1], traj.states[i - 1])
    assert np.allclose(stats.gamma, gamma, atol=1e-12)
    assert np.allclose(stats.sigma, sigma, atol=1e-12)


# ---------------------------------------------------------------------------
# least_squares
# ---------------------------------------------------------------------------


def test_ls_scalar_hand_value():
    traj = Trajectory(states=np.array([[0.0], [1.0], [3.0]]))
    assert least_squares(traj)[0, 0] == pytest.approx(3.0)


def test_ls_exact_recovery_noiseless():
    params = scalar_params(2.0, 1.0, n=3)
    traj = simulate_injected(params, np.array([[1.0], [0.0], [0.0]]))
    assert least_squares(traj)[0, 0] == pytest.approx(2.0, abs=1e-14)


def test_ls_minimizer_property():
    params = SystemParams(a=np.array([[0.5, 0.1], [0.0, 0.3]]), b=np.eye(2), n=12)
    traj = simulate(params, Stream(14))
    a_hat = least_squares(traj)

    def sq_loss(m):
        resid = traj.states[1:] - traj.states[:-1] @ m.T
        return float(np.sum(resid**2))

    base = sq_loss(a_hat)
    g = Stream(15).generator()
    for _ in range(100):
        delta = 0.1 * g.standard_normal((2, 2))
        assert base <= sq_loss(a_hat + delta) + 1e-12


def test_ls_raises_on_singular():
    with pytest.raises(SingularCovarianceError):
        least_squares(Trajectory(states=np.zeros((5, 2))))


# ---------------------------------------------------------------------------
# sensitivity
# ---------------------------------------------------------------------------


def test_sensitivity_zero_at_ls_estimate():
    params = SystemParams(a=0.4 * np.eye(2), b=np.diag([1.0, 2.0]), n=10)
    traj = simulate(params, Stream(16))
    a_hat = least_squares(traj)
    at_hat = SystemParams(a=a_hat, b=params.b, n=params.n)
    score = sensitivity(at_hat, traj)
    assert np.max(np.abs(score)) < 1e-9


def test_sensitivity_zero_trajectory():
    params = scalar_params(0.5)
    traj = Trajectory(states=np.zeros((params.n + 1, 1)))
    assert np.all(sensitivity(params, traj) == 0.0)


def test_sensitivity_matches_noise_form():
    params = SystemParams(
        a=np.array([[0.5, 0.2], [-0.1, 0.6]]), b=np.array([[1.0, 0.3], [0.0, 2.0]]), n=15
    )
    for k in range(10):
        traj = simulate(params, Stream(17).child(k), keep_noise=True)
        got = sensitivity(params, traj)
        want = noise_form_score(params, traj)
        assert np.max(np.abs(got - want)) < 1e-10 * (1 + np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# fisher_information
# ---------------------------------------------------------------------------


def test_fisher_memoryless():
    for d, n in [(1, 5), (2, 6), (3, 9)]:
        params = SystemParams(a=np.zeros((d, d)), b=np.eye(d), n=n)
        assert np.allclose(fisher_information(params), (n - 1) * d * np.eye(d))


def test_fisher_hand_value():
    params = SystemParams(a=0.5 * np.eye(2), b=np.eye(2), n=3)
    assert np.allclose(fisher_information(params), 4.5 * np.eye(2))


def test_fisher_noise_scale_invariance():
    g = Stream(18).generator()
    for _ in range(5):
        a = 0.4 * g.standard_normal((3, 3))
        b = np.eye(3) + 0.2 * g.standard_normal((3, 3))
        p1 = SystemParams(a=a, b=b, n=9)
        p3 = SystemParams(a=a, b=3.0 * b, n=9)
        f1, f3 = fisher_information(p1), fisher_information(p3)
        assert np.max(np.abs(f1 - f3)) < 1e-10 * np.max(np.abs(f1))


def test_information_scalar_positive_definite_fisher():
    params = SystemParams(a=np.array([[0.3, 0.5], [0.0, 0.2]]), b=np.diag([1.0, 3.0]), n=7)
    fisher = fisher_information(params)
    w = np.linalg.eigvalsh(fisher)
    assert w[0] > 0
    assert information_scalar(params) > 0


# ---------------------------------------------------------------------------
# log_likelihood
# ---------------------------------------------------------------------------


def transition_log_density(params: SystemParams, traj: Trajectory) -> float:
    """Independent oracle: sum of Gaussian transition log-densities."""
    bbt = params.noise_cov()
    inv = np.linalg.inv(bbt)
    _, logdet = np.linalg.slogdet(bbt)
    total = 0.0
    for i in range(1, traj.n + 1):
        r = traj.states[i] - params.a @ traj.states[i - 1]
        total += -0.5 * (params.d * np.log(2 * np.pi) + logdet + r @ inv @ r)
    return total


def test_loglik_zero_trajectory():
    params = SystemParams(a=np.zeros((2, 2)), b=np.eye(2), n=6)
    traj = Trajectory(states=np.zeros((7, 2)))
    assert log_likelihood(params, traj) == pytest.approx(-0.5 * 6 * 2 * np.log(2 * np.pi))


def test_loglik_matches_transition_product():
    params = SystemParams(
        a=np.array([[0.5, 0.1], [0.2, 0.3]]), b=np.array([[1.0, 0.0], [0.4, 2.0]]), n=12
    )
    for k in range(5):
        traj = simulate(params, Stream(19).child(k))
        lhs = log_likelihood(params, traj)
        rhs = transition_log_density(params, traj)
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_loglik_gradient_is_sensitivity():
    params = SystemParams(a=np.array([[0.5, 0.1], [0.0, 0.4]]), b=np.diag([1.0, 2.0]), n=10)
    traj = simulate(params, Stream(20))
    score = sensitivity(params, traj)
    h = 1e-5
    fd = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2))
            e[i, j] = h
            up = log_likelihood(SystemParams(a=params.a + e, b=params.b, n=params.n), traj)
            dn = log_likelihood(SystemParams(a=params.a - e, b=params.b, n=params.n), traj)
            fd[i, j] = (up - dn) / (2 * h)
    assert np.max(np.abs(fd - score)) < 1e-5 * (1 + np.max(np.abs(score)))


def test_params_do_not_freeze_caller_arrays():
    a = 0.5 * np.eye(2)
    params = SystemParams(a=a, b=np.eye(2), n=8)
    a[0, 0] = 0.9  # caller's array stays writable
    assert params.a[0, 0] == 0.5  # the stored copy is unaffected
    with pytest.raises(ValueError):
        params.a[0, 0] = 0.7  # the stored copy is immutable
