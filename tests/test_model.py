import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltibounds.bounds import psi
from ltibounds.model import (
    PsiOverflowError,
    SystemParams,
    _data_score,
    _ls_error,
    _states_batch,
    expected_gram,
    fisher_information,
    information_scalar,
)
from ltibounds.montecarlo import SimulatedChunk
from ltibounds.rng import Stream


def scalar_params(a: float, b: float = 1.0, n: int = 8) -> SystemParams:
    return SystemParams(a=np.array([[a]]), b=np.array([[b]]), n=n)


def one_trajectory(a: np.ndarray, b: np.ndarray, noise: np.ndarray):
    """One trajectory driven by ``noise`` (N, d) through the batch kernel.

    A batch of one in one block: its states x_0..x_N, and the finished
    ``SimulatedChunk`` that holds its Gram sums, e_i x_i^T sum and
    least-squares error.
    """
    n, d = noise.shape
    states = np.zeros((1, n + 1, d))
    chunk = SimulatedChunk(np.asarray(a, float), np.asarray(b, float), 1, d, noise_gram=True)
    chunk.advance(noise[None], states)
    chunk.finish()
    return states[0], chunk


def ls_estimate(chunk: SimulatedChunk) -> np.ndarray:
    """A_hat of a batch of one, from the kernel's least-squares error A_hat - A."""
    singular, diff = chunk.ls_error
    assert not singular[0]
    return diff[0] + chunk.a


def noise_form_score(params: SystemParams, states: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Independent oracle: (B*)^{-1} sum_{i=1}^{N} e_{i-1} x_{i-1}^T."""
    acc = noise.T @ states[:-1]
    return np.linalg.solve(params.b.T, acc)


def transition_log_density(params: SystemParams, states: np.ndarray) -> float:
    """Independent oracle: sum of Gaussian transition log-densities."""
    bbt = params.noise_cov()
    inv = np.linalg.inv(bbt)
    _, logdet = np.linalg.slogdet(bbt)
    total = 0.0
    for i in range(1, states.shape[0]):
        r = states[i] - params.a @ states[i - 1]
        total += -0.5 * (params.d * np.log(2 * np.pi) + logdet + r @ inv @ r)
    return total


# ---------------------------------------------------------------------------
# params validation
# ---------------------------------------------------------------------------


def test_params_rejects_rank_deficient_b():
    with pytest.raises(ValueError):
        SystemParams(a=np.eye(2), b=np.array([[1.0, 0.0], [1.0, 0.0]]), n=8)


def test_params_rejects_short_horizon():
    with pytest.raises(ValueError):
        SystemParams(a=np.eye(3), b=np.eye(3), n=3)


# ---------------------------------------------------------------------------
# state recursion
# ---------------------------------------------------------------------------


def test_injected_scalar_recursion():
    states, _ = one_trajectory([[2.0]], [[1.0]], np.array([[1.0], [0.0], [0.0]]))
    assert np.allclose(states.ravel(), [0.0, 1.0, 2.0, 4.0])


def test_injected_zero_noise():
    states, _ = one_trajectory(0.3 * np.eye(2), np.eye(2), np.zeros((5, 2)))
    assert np.all(states == 0.0)


def test_injected_impulse_traces_powers():
    # one-hot noise at step 0: x_i = A^{i-1} B e_0
    a = np.array([[0.5, 0.2], [0.0, 0.4]])
    noise = np.zeros((4, 2))
    noise[0, 0] = 1.0
    states, _ = one_trajectory(a, np.eye(2), noise)
    expected = np.eye(2)[:, 0]
    for i in range(1, 5):
        assert np.allclose(states[i], expected)
        expected = a @ expected


def test_memoryless_case():
    noise = Stream(7).generator().standard_normal((6, 2))
    states, _ = one_trajectory(np.zeros((2, 2)), np.eye(2), noise)
    assert np.allclose(states[1:], noise)


def test_simulate_two_step_covariance():
    # cov(x_2) = BB* + A BB* A* = 1.25 I for A = 0.5 I, B = I
    params = SystemParams(a=0.5 * np.eye(2), b=np.eye(2), n=3)
    trials = 100_000
    noise = Stream(12).generator().standard_normal((trials, params.n, params.d))
    states = np.zeros((trials, params.n + 1, params.d))
    _states_batch(params.a, params.b, noise, states)
    xs = states[:, 2]
    prods = np.einsum("ti,tj->tij", xs, xs)
    mean = prods.mean(axis=0)
    se = prods.std(axis=(0,), ddof=1) / np.sqrt(trials)
    assert np.all(np.abs(mean - 1.25 * np.eye(2)) < 3 * se + 1e-12)


# ---------------------------------------------------------------------------
# Gram sums
# ---------------------------------------------------------------------------


def test_gram_scalar_hand_sum():
    # states 0, 1, 3: gamma = 1*0 + 3*1, sigma = 0*0 + 1*1
    _, chunk = one_trajectory([[1.0]], [[1.0]], np.array([[1.0], [2.0]]))
    assert chunk.gamma[0, 0, 0] == pytest.approx(3.0)
    assert chunk.sigma[0, 0, 0] == pytest.approx(1.0)


def test_gram_zero_states():
    _, chunk = one_trajectory(0.5 * np.eye(2), np.eye(2), np.zeros((3, 2)))
    assert np.all(chunk.gamma == 0.0)
    assert np.all(chunk.sigma == 0.0)


def test_gram_matches_double_loop():
    noise = Stream(13).generator().standard_normal((9, 3))
    states, chunk = one_trajectory(0.6 * np.eye(3), np.eye(3), noise)
    gamma = np.zeros((3, 3))
    sigma = np.zeros((3, 3))
    for i in range(1, 10):
        gamma += np.outer(states[i], states[i - 1])
        sigma += np.outer(states[i - 1], states[i - 1])
    assert np.allclose(chunk.gamma[0], gamma, atol=1e-12)
    assert np.allclose(chunk.sigma[0], sigma, atol=1e-12)


# ---------------------------------------------------------------------------
# least squares
# ---------------------------------------------------------------------------


def test_ls_scalar_hand_value():
    # states 0, 1, 3: A_hat = gamma / sigma = 3
    _, chunk = one_trajectory([[1.0]], [[1.0]], np.array([[1.0], [2.0]]))
    assert ls_estimate(chunk)[0, 0] == pytest.approx(3.0)


def test_ls_exact_recovery_noiseless():
    _, chunk = one_trajectory([[2.0]], [[1.0]], np.array([[1.0], [0.0], [0.0]]))
    assert ls_estimate(chunk)[0, 0] == pytest.approx(2.0, abs=1e-14)


def test_ls_minimizer_property():
    params = SystemParams(a=np.array([[0.5, 0.1], [0.0, 0.3]]), b=np.eye(2), n=12)
    noise = Stream(14).generator().standard_normal((params.n, params.d))
    states, chunk = one_trajectory(params.a, params.b, noise)
    a_hat = ls_estimate(chunk)

    def sq_loss(m):
        resid = states[1:] - states[:-1] @ m.T
        return float(np.sum(resid**2))

    base = sq_loss(a_hat)
    g = Stream(15).generator()
    for _ in range(100):
        delta = 0.1 * g.standard_normal((2, 2))
        assert base <= sq_loss(a_hat + delta) + 1e-12


def test_ls_raises_on_singular():
    # a zero trajectory, and one whose states 0, 1, 2, 3 lie on one line:
    # sigma = diag(0, 0) and diag(1 + 4, 0), rejected with error 0
    for noise, sigma_line in [(np.zeros((4, 2)), 0.0), (np.array([[1.0, 0.0]] * 3), 5.0)]:
        _, chunk = one_trajectory(np.eye(2), np.eye(2), noise)
        np.testing.assert_array_equal(chunk.sigma[0], np.diag([sigma_line, 0.0]))
        singular, diff = chunk.ls_error
        assert singular.tolist() == [True]
        assert np.all(diff == 0.0)


def test_ls_error_rejects_at_1e12_relative_eigenvalue():
    sigma = np.stack([np.diag([1.0, 1e-12]), np.diag([1.0, 2e-12]), np.zeros((2, 2))])
    gamma = np.stack([np.eye(2), 3.0 * np.eye(2), np.eye(2)])
    singular, diff = _ls_error(gamma, sigma, np.eye(2))
    assert singular.tolist() == [True, False, True]
    assert np.all(diff[[0, 2]] == 0.0)
    np.testing.assert_allclose(diff[1], np.diag([2.0, 1.5e12 - 1.0]))


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


def test_sensitivity_zero_at_ls_estimate():
    params = SystemParams(a=0.4 * np.eye(2), b=np.diag([1.0, 2.0]), n=10)
    noise = Stream(16).generator().standard_normal((params.n, params.d))
    _, chunk = one_trajectory(params.a, params.b, noise)
    at_hat = SystemParams(a=ls_estimate(chunk), b=params.b, n=params.n)
    score = _data_score(at_hat, chunk.gamma, chunk.sigma)[0]
    assert np.max(np.abs(score)) < 1e-9


def test_sensitivity_zero_trajectory():
    params = scalar_params(0.5)
    _, chunk = one_trajectory(params.a, params.b, np.zeros((params.n, 1)))
    assert np.all(_data_score(params, chunk.gamma, chunk.sigma) == 0.0)


def test_sensitivity_matches_noise_form():
    params = SystemParams(
        a=np.array([[0.5, 0.2], [-0.1, 0.6]]), b=np.array([[1.0, 0.3], [0.0, 2.0]]), n=15
    )
    for k in range(10):
        noise = Stream(17).child(k).generator().standard_normal((params.n, params.d))
        states, chunk = one_trajectory(params.a, params.b, noise)
        got = _data_score(params, chunk.gamma, chunk.sigma)[0]
        want = noise_form_score(params, states, noise)
        assert np.max(np.abs(got - want)) < 1e-10 * (1 + np.max(np.abs(want)))
        # the kernel's e_i x_i^T sum is the noise form before (B*)^{-1}
        want_gram = noise.T @ states[:-1]
        np.testing.assert_allclose(chunk.noise_gram[0], want_gram, rtol=1e-12, atol=1e-12)


def test_loglik_gradient_is_sensitivity():
    params = SystemParams(a=np.array([[0.5, 0.1], [0.0, 0.4]]), b=np.diag([1.0, 2.0]), n=10)
    noise = Stream(20).generator().standard_normal((params.n, params.d))
    states, chunk = one_trajectory(params.a, params.b, noise)
    score = _data_score(params, chunk.gamma, chunk.sigma)[0]
    h = 1e-5
    fd = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2))
            e[i, j] = h
            up = transition_log_density(dataclasses.replace(params, a=params.a + e), states)
            dn = transition_log_density(dataclasses.replace(params, a=params.a - e), states)
            fd[i, j] = (up - dn) / (2 * h)
    assert np.max(np.abs(fd - score)) < 1e-5 * (1 + np.max(np.abs(score)))


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


RANDOM_SYSTEMS = given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 4),
    radius=st.sampled_from([0.0, 0.5, 0.95, 1.0, 1.05, 1.3]),
    extra=st.integers(0, 60),
)


def random_params(seed, d, radius, extra) -> SystemParams:
    # A scaled to spectral radius `radius`: stable, limit-stable and unstable
    g = np.random.default_rng(seed)
    a = g.standard_normal((d, d))
    a *= radius / max(np.abs(np.linalg.eigvals(a)))
    b = np.diag(g.uniform(0.5, 2.0, d)) + np.triu(0.3 * g.standard_normal((d, d)), 1)
    return SystemParams(a=a, b=b, n=d + 1 + extra)


@settings(max_examples=80, deadline=None)
@RANDOM_SYSTEMS
def test_information_scalar_is_trace_of_psi(seed, d, radius, extra):
    params = random_params(seed, d, radius, extra)
    assert information_scalar(params) == pytest.approx(np.trace(psi(params)), rel=1e-12)


def separate_walks(params: SystemParams) -> tuple[np.ndarray, float]:
    """Psi and the information scalar as two walks of A^(k-1) B, the reference."""
    out, c = np.zeros((params.d, params.d)), params.b.copy()
    for k in range(1, params.n):
        out += (params.n - k) * (c @ c.T)
        c = params.a @ c
    total, c = 0.0, params.b.copy()
    for k in range(1, params.n):
        total += (params.n - k) * float(np.sum(c * c))
        c = params.a @ c
    return 0.5 * (out + out.T), total


@settings(max_examples=80, deadline=None)
@RANDOM_SYSTEMS
def test_expected_gram_is_bitwise_the_separate_walks(seed, d, radius, extra):
    params = random_params(seed, d, radius, extra)
    psi_m, info = expected_gram(params)
    ref_psi, ref_info = separate_walks(params)
    assert np.array_equal(psi_m, ref_psi) and info == ref_info
    assert np.array_equal(psi(params), psi_m) and information_scalar(params) == info


@pytest.mark.parametrize(
    "a, b, cause",
    [
        (np.diag([0.5, 1.2]), np.eye(2), "rho(A) = 1.2 > 1"),
        # the overflow is also reported when A is stable
        (0.5 * np.eye(2), 1e160 * np.eye(2), "rho(A) = 0.5"),
    ],
)
def test_expected_gram_overflow_is_one_typed_error_without_warnings(a, b, cause):
    params = SystemParams(a=a, b=b, n=2048)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PsiOverflowError) as info:
            expected_gram(params)
    assert str(info.value) == f"Psi overflows float64 for {cause} at N = 2048"
    assert isinstance(info.value, ValueError)


def test_params_do_not_freeze_caller_arrays():
    a = 0.5 * np.eye(2)
    params = SystemParams(a=a, b=np.eye(2), n=8)
    a[0, 0] = 0.9  # caller's array stays writable
    assert params.a[0, 0] == 0.5  # the stored copy is unaffected
    with pytest.raises(ValueError):
        params.a[0, 0] = 0.7  # the stored copy is immutable
