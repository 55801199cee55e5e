import math
import sys

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from ltibounds.bounds import geom_sum
from ltibounds.minimax import (
    PriorSample,
    PriorSpec,
    minimax_regimes,
    sample_prior,
    sample_prior_batch,
    score_identity_lhs,
    van_trees_bound,
)
from ltibounds.rng import Stream
from oracles import grad_log_prior, prior_density, prior_fisher, z_const


# ---------------------------------------------------------------------------
# z_const
# ---------------------------------------------------------------------------


def test_z_const_hand_values():
    assert z_const(2, 1.0) == pytest.approx(12.0)
    assert z_const(1, 1.0) == pytest.approx(3.0)
    integral, _ = scipy.integrate.quad(lambda s: (1.0 - s) ** 2 * s, 0.0, 1.0)
    assert integral == pytest.approx(1.0 / 12.0)


def test_z_const_quadrature_oracle():
    for d in range(1, 9):
        for eps in (0.25, 1.0, 2.0):
            integral, err = scipy.integrate.quad(
                lambda s: (eps - s) ** 2 * s ** (d - 1), 0.0, eps
            )
            assert err < 1e-12
            assert z_const(d, eps) * integral == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# prior_density
# ---------------------------------------------------------------------------


def test_density_at_center_is_max():
    spec = PriorSpec(s=0.7, eps=0.5, d=3)
    center = prior_density(0.7 * np.eye(3), spec)
    assert center == pytest.approx((z_const(3, 0.5) * 0.25) ** 3)
    g = Stream(40).generator()
    for _ in range(20):
        a = sample_prior(spec, Stream(41).child(int(g.integers(0, 1000)))).a
        assert prior_density(a, spec) <= center + 1e-12


def test_density_vanishes_on_boundary():
    spec = PriorSpec(s=0.0, eps=1.0, d=2)
    a = np.diag([1.0, 0.3])  # sigma_max exactly eps
    assert prior_density(a, spec) == pytest.approx(0.0, abs=1e-15)
    assert prior_density(np.diag([1.7, 0.3]), spec) == 0.0  # outside


def test_density_scalar_hand_value():
    spec = PriorSpec(s=0.0, eps=1.0, d=1)
    assert prior_density(np.array([[0.5]]), spec) == pytest.approx(0.75)


def test_density_normalization_factorized_quadrature():
    # per-coordinate quadrature of the sigma law; the Haar factors integrate
    # to one, so the product must be 1 for every d
    for d in range(1, 9):
        eps = 0.8
        z = z_const(d, eps)
        integral, _ = scipy.integrate.quad(
            lambda s: z * (eps - s) ** 2 * s ** (d - 1), 0.0, eps
        )
        assert integral**d == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# sample_prior
# ---------------------------------------------------------------------------


def test_sample_sigma_mean():
    spec = PriorSpec(s=0.0, eps=1.0, d=2)
    sigmas = sample_prior_batch(spec, Stream(42), 100_000).sigmas
    mean = sigmas.mean()
    se = sigmas.std(ddof=1) / math.sqrt(sigmas.size)
    assert abs(mean - 0.4) < 3 * se  # Beta(2,3) mean = 2/5


def test_sample_singular_value_range():
    spec = PriorSpec(s=0.0, eps=1.0, d=3)
    for k in range(200):
        sample = sample_prior(spec, Stream(43).child(k))
        sv = np.linalg.svd(sample.a, compute_uv=False)
        assert sv[0] <= spec.s + spec.eps + 1e-10
        assert sv[-1] >= spec.s - 1e-10
        # reconstruction: singular values of a - sI equal the drawn sigmas
        sv_tilde = np.linalg.svd(sample.a - spec.s * np.eye(3), compute_uv=False)
        assert np.allclose(np.sort(sv_tilde), np.sort(sample.sigmas), atol=1e-10)
        assert prior_density(sample.a, spec) > 0.0


def test_sample_prior_draws_do_not_depend_on_count():
    spec = PriorSpec(s=0.5, eps=0.8, d=3)
    one = sample_prior(spec, Stream(48))
    many = sample_prior_batch(spec, Stream(48), 10)
    for name in ("u", "sigmas", "v", "a"):
        assert np.array_equal(getattr(one, name), getattr(many, name)[0])
    more = sample_prior_batch(spec, Stream(48), 25)
    for name in ("u", "sigmas", "v", "a"):
        assert np.array_equal(getattr(many, name), getattr(more, name)[:10])


def test_sample_prior_requires_stream():
    with pytest.raises(TypeError):
        sample_prior(PriorSpec(s=0.0, eps=1.0, d=2), np.random.default_rng(0))


def test_score_identity_lhs_batch_matches_per_draw():
    spec = PriorSpec(s=0.3, eps=0.8, d=2)
    batch = sample_prior_batch(spec, Stream(49), 50)
    lhs = score_identity_lhs(batch, spec)
    for k in range(50):
        a = batch.a[k]
        assert np.allclose(lhs[k], -a @ grad_log_prior(a, spec).T, rtol=1e-9, atol=1e-9)


def test_sample_max_singular_value_any_s():
    spec = PriorSpec(s=2.0, eps=0.5, d=2)
    for k in range(100):
        sample = sample_prior(spec, Stream(44).child(k))
        sv = np.linalg.svd(sample.a, compute_uv=False)
        assert sv[0] <= spec.s + spec.eps + 1e-10


def test_sample_sigma_ks_matches_beta():
    for d in (1, 2):
        spec = PriorSpec(s=0.0, eps=1.0, d=d)
        sigmas = sample_prior_batch(spec, Stream(45).child(d), 100_000).sigmas
        stat = scipy.stats.kstest(sigmas[:, 0], scipy.stats.beta(d, 3).cdf).statistic
        assert stat < 0.01


# ---------------------------------------------------------------------------
# grad_log_prior
# ---------------------------------------------------------------------------


def test_grad_scalar_positive():
    spec = PriorSpec(s=0.0, eps=1.0, d=1)
    assert grad_log_prior(np.array([[0.5]]), spec)[0, 0] == pytest.approx(-4.0)


def test_grad_scalar_negative_argument():
    spec = PriorSpec(s=0.0, eps=1.0, d=1)
    got = grad_log_prior(np.array([[-0.3]]), spec)[0, 0]
    assert got == pytest.approx(2.0 / 0.7)


def test_grad_rejects_boundary():
    spec = PriorSpec(s=0.0, eps=1.0, d=2)
    with pytest.raises(ValueError):
        grad_log_prior(np.diag([1.0 - 1e-10, 0.2]), spec)


def test_grad_finite_difference_oracle():
    spec = PriorSpec(s=0.3, eps=0.8, d=2)
    root = Stream(46)
    checked = 0
    k = 0
    h = 1e-6
    while checked < 1000:
        sample = sample_prior(spec, root.child(k))
        k += 1
        if sample.sigmas.max() > 0.95 * spec.eps or sample.sigmas.min() < 0.02 * spec.eps:
            continue
        grad = grad_log_prior(sample.a, spec)
        fd = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                e = np.zeros((2, 2))
                e[i, j] = h
                up = math.log(prior_density(sample.a + e, spec))
                dn = math.log(prior_density(sample.a - e, spec))
                fd[i, j] = (up - dn) / (2 * h)
        assert np.max(np.abs(fd - grad)) < 1e-5 * (1 + np.max(np.abs(grad)))
        checked += 1


# ---------------------------------------------------------------------------
# prior_fisher
# ---------------------------------------------------------------------------


def test_prior_fisher_values():
    assert np.allclose(prior_fisher(2, 0.5), 96.0 * np.eye(2))
    assert np.allclose(prior_fisher(1, 1.0), 12.0 * np.eye(1))


def test_prior_fisher_quadrature_oracle():
    # E[4 (eps - sigma)^{-2}] under the sigma law reduces to 4 Z eps^d / d
    for d in (1, 2, 5):
        for eps in (0.5, 1.0):
            z = z_const(d, eps)
            integral, _ = scipy.integrate.quad(
                lambda s: 4.0 / (eps - s) ** 2 * z * (eps - s) ** 2 * s ** (d - 1),
                0.0,
                eps,
            )
            assert integral == pytest.approx(
                prior_fisher(d, eps)[0, 0], abs=1e-10 * prior_fisher(d, eps)[0, 0]
            )


# ---------------------------------------------------------------------------
# van_trees_bound
# ---------------------------------------------------------------------------


def test_van_trees_hand_value():
    assert van_trees_bound(2, 3, 0.0, 1.0).value == pytest.approx(4.0 / 35.0, abs=1e-12)


def test_van_trees_monotone_in_n():
    vals = [van_trees_bound(2, n, 0.0, 0.5).value for n in range(2, 40)]
    assert np.all(np.diff(vals) <= 0)


def test_van_trees_monotone_in_eps_toward_cr_shape():
    vals = [van_trees_bound(2, 8, 0.0, e).value for e in (0.1, 0.2, 0.4, 0.8)]
    assert np.all(np.diff(vals) > 0)


def test_van_trees_point_mass_limit():
    assert van_trees_bound(2, 8, 0.0, 1e-9).value < 1e-15


def van_trees_log_reference(d, n, s, eps):
    """log van_trees_bound at 50 digits, the sum added term by term."""
    with mpmath.workdps(50):
        x = mpmath.mpf(s + eps) ** 2
        total = mpmath.fsum((n - 1 - i) * x**i for i in range(n - 1))
        return mpmath.log(d**2 / (total + 2 * mpmath.mpf(d + 2) ** 2 / mpmath.mpf(eps) ** 2))


def ramp_sum_log_reference(x, n):
    """log of the ramp sum at the float ``x``, at 50 digits, added term by term."""
    with mpmath.workdps(50):
        x, power, total = mpmath.mpf(x), mpmath.mpf(1), mpmath.mpf(0)
        for w in range(n - 1, 0, -1):
            total += w * power
            power *= x
        return mpmath.log(total)


# (s+eps)^2 = 0.3, 1-1e-12, 1.02 and 2, to the float, for the added s = 0 systems
@pytest.mark.parametrize("n", [2, 3, 64, 500, 2048, 3000, 5000])
@pytest.mark.parametrize(
    "d, s, eps",
    [(2, 1.0, 0.1), (3, 0.2, 0.3), (2, 0.0, 1.0)]
    + [(2, 0.0, math.sqrt(x)) for x in (0.3, 1.0 - 1e-12, 1.02, 2.0)],
)
def test_van_trees_log_matches_mpmath_where_the_sum_overflows(d, s, eps, n):
    # (s+eps)^2 = 1.21 for the first system: its sum overflows float64 near N = 3700
    x = (s + eps) ** 2
    ramp = geom_sum(x, n)
    assert ramp.log_value == pytest.approx(float(ramp_sum_log_reference(x, n)), rel=1e-14)
    ref = van_trees_log_reference(d, n, s, eps)
    bound = van_trees_bound(d, n, s, eps)
    assert bound.value == pytest.approx(float(mpmath.exp(ref)), rel=1e-12)
    if bound.log_value is not None:
        assert bound.log_value == pytest.approx(float(ref), rel=1e-14)


def test_van_trees_past_overflow_is_its_log_not_a_silent_zero():
    bound = van_trees_bound(2, 5000, 1.0, 0.1)
    assert bound.log_value == pytest.approx(-954.8368, abs=1e-4)
    assert bound.value == 0.0  # exp(-954.8) is below float64
    # a sum beyond float64 range with a subnormal bound: the bound is exp of its log
    subnormal = van_trees_bound(2, 3850, 1.0, 0.1)
    assert 0.0 < subnormal.value < np.finfo(float).tiny
    assert subnormal.value == math.exp(subnormal.log_value)


# ---------------------------------------------------------------------------
# minimax_regimes
# ---------------------------------------------------------------------------


def test_regime_limit_hand_value():
    out = minimax_regimes(2, 10, 1.0)
    assert out.regime == "limit" and out.valid
    assert out.value == pytest.approx(math.log(4.0) ** 2 / 1200.0, abs=1e-12)
    assert out.value == pytest.approx(0.0016015100463940047, abs=1e-9)


def test_regime_stable_hand_value():
    out = minimax_regimes(2, 2048, 0.0, 0.5)
    assert out.regime == "stable" and out.valid
    assert out.value == pytest.approx(4.0 * 0.75 / (1.5 * 2048), abs=1e-12)
    assert not minimax_regimes(2, 256, 0.0, 0.5).valid  # 256 < 512


def test_regime_unstable_hand_value():
    out = minimax_regimes(2, 10, 3.0, 0.5)
    assert out.regime == "unstable" and out.valid  # 10 >= log2(8) + 3 = 6
    assert out.value == pytest.approx(4.0 * 225.0 / (1.5 * 4.0**20), rel=1e-12)
    assert not minimax_regimes(2, 5, 3.0, 0.5).valid


def test_regime_requires_alpha_off_limit():
    with pytest.raises(ValueError):
        minimax_regimes(2, 10, 0.5)


# ---------------------------------------------------------------------------
# score identity
# ---------------------------------------------------------------------------


def test_score_identity_scalar_sample():
    spec = PriorSpec(s=0.0, eps=1.0, d=1)
    sample = PriorSample(
        u=np.array([[1.0]]),
        sigmas=np.array([0.5]),
        v=np.array([[1.0]]),
        a=np.array([[0.5]]),
    )
    assert score_identity_lhs(sample, spec)[0, 0] == pytest.approx(2.0)


def _score_identity_mean(spec: PriorSpec, trials: int, seed: int):
    acc = score_identity_lhs(sample_prior_batch(spec, Stream(seed), trials), spec)
    mean = acc.mean(axis=0)
    se = acc.std(axis=0, ddof=1) / math.sqrt(trials)
    return mean, se


@pytest.mark.parametrize("d,s", [(1, 0.0), (2, 0.0), (1, 5.0), (2, 5.0)])
def test_score_identity_mc(d, s):
    spec = PriorSpec(s=s, eps=1.0, d=d)
    mean, se = _score_identity_mean(spec, 40_000, seed=47 + d + int(s))
    target = d * np.eye(d)
    assert np.all(np.abs(mean - target) < 4 * se + 1e-12)


def test_regime_unstable_carries_its_log_through_underflow():
    d, n, s, alpha = 2, 1000, 1.5, 0.5
    out = minimax_regimes(d, n, s, alpha)
    assert out.regime == "unstable" and out.value == 0.0
    expected = math.log(d**2 * ((s + 1) ** 2 - 1) ** 2 / (1 + alpha)) - 2 * n * math.log(s + 1)
    assert out.log_value == pytest.approx(expected, rel=1e-12)
    small = minimax_regimes(2, 10, 3.0, 0.5)
    assert math.exp(small.log_value) == pytest.approx(small.value, rel=1e-12)
    assert minimax_regimes(2, 10, 1.0).log_value is None
    assert minimax_regimes(2, 2048, 0.0, 0.5).log_value is None


def test_regime_unstable_large_horizon_underflows_to_zero():
    out = minimax_regimes(2, 2000, 3.0, 0.5)
    assert out.regime == "unstable" and out.valid
    assert out.value == 0.0
    assert van_trees_bound(2, 2000, 3.0, 1.0).value == 0.0


def test_van_trees_bound_stops_exactly_where_s_plus_eps_squared_leaves_float64():
    edge = math.sqrt(sys.float_info.max)  # edge**2 is a float64, the next float's square is not
    bound = van_trees_bound(2, 8, edge, 1e-100)
    assert bound.value == 0.0 and math.isfinite(bound.log_value)
    with pytest.raises(ValueError, match=r"\(s \+ eps\)\^2 at s = .* float64 range"):
        van_trees_bound(2, 8, math.nextafter(edge, math.inf), 1e-100)
