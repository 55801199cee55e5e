"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s``; each criterion prints a
PASS line once all of its assertions hold (a failed criterion shows up as the
test's FAILED line).
"""

import math
import time
from functools import partial

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from ltibounds.bounds import cr_bound, geom_sum, l_ab, lab_upper_bound, phi
from ltibounds.cli import main
from ltibounds.minimax import (
    PriorSpec,
    minimax_regimes,
    sample_prior,
    sample_prior_batch,
    van_trees_bound,
)
from ltibounds.model import SystemParams, fisher_information
from ltibounds.montecarlo import (
    Draws,
    bayes_risk_experiment,
    dominance_plan,
    empirical_risk,
    identity_plan,
    prior_identity_check,
    risk_plan,
    run_plans,
)
from ltibounds.rng import Stream
from oracles import (
    grad_log_prior,
    inflated_cr_bound,
    norm_ineq_fuzz,
    prior_density,
    prior_fisher,
    rotation,
    z_const,
)

TRIALS_IDENTITY = 100_000
TRIALS_DOMINANCE = 10_000
SEED = 20260810


def _system(a, b, n) -> SystemParams:
    return SystemParams(a=np.atleast_2d(np.asarray(a, dtype=float)), b=np.atleast_2d(np.asarray(b, dtype=float)), n=n)


# the default family: d <= 3, N <= 32, covering zero, contractive, rotating
# and mixed stable/unstable dynamics with isotropic and anisotropic noise
IDENTITY_FAMILY = [
    ("scalar a=0.5", _system([[0.5]], [[1.0]], 32)),
    ("0.9-rotation", _system(rotation(np.pi / 5, 0.9), np.eye(2), 8)),
    ("mixed diag(0.5,1.2)", _system(np.diag([0.5, 1.2]), np.diag([1.0, 3.0]), 8)),
    ("3d memoryless", _system(np.zeros((3, 3)), np.eye(3), 32)),
]


def test_criterion_1_exact_identity_suite():
    """(a) self-normalized mean d*I, (b) MC information within 5% relative
    Frobenius, (c) zero score mean, (d) prior score identity; 4 SE, 1e5
    trials, seed-pinned, under 5 minutes."""
    t0 = time.perf_counter()
    root = Stream(SEED)
    for idx, (label, params) in enumerate(IDENTITY_FAMILY):
        # one run of the identity chunks: the checks, and the Fisher samples
        # reduced to a relative Frobenius distance instead of an entrywise check
        identity = identity_plan(params)
        plan = identity._replace(reduce=lambda data: (identity.reduce(data), data))
        draws = Draws(root.child(10, idx), params.n, params.d, params)
        ((checks, samples),) = run_plans(draws, TRIALS_IDENTITY, [plan])
        checks = {c.name: c for c in checks}
        assert checks["selfnorm_identity"].passed, (label, checks["selfnorm_identity"])
        assert checks["score_mean_zero"].passed, (label, checks["score_mean_zero"])
        mc = samples["fisher"].mean(axis=0)
        closed = fisher_information(params)
        rel = np.linalg.norm(mc - closed) / np.linalg.norm(closed)
        assert rel < 0.05, (label, rel)
        print(f"  criterion 1 [{label}]: selfnorm/score 4-SE ok, fisher rel {rel:.4f}")
    for idx, (d, s) in enumerate([(1, 0.0), (2, 0.0), (3, 0.0), (2, 5.0)]):
        spec = PriorSpec(s=s, eps=1.0, d=d)
        check = prior_identity_check(spec, TRIALS_IDENTITY, root.child(12, idx))
        assert check.passed, (d, s, check)
        print(f"  criterion 1 [prior d={d} s={s}]: worst {check.statistic:.2f} SE")
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"identity suite took {elapsed:.0f}s"
    print(f"ACCEPTANCE 1 (exact-identity MC suite, {elapsed:.0f}s): PASS")


def test_criterion_2_prior_machinery():
    """Normalization to 1e-10 for d <= 8; sigma/eps is Beta(d,3) with
    KS < 0.01 at 1e5 draws; gradient matches central differences to 1e-5 at
    1e3 interior points; the prior-information constant to 1e-10."""
    for d in range(1, 9):
        eps = 0.7
        z = z_const(d, eps)
        integral, _ = scipy.integrate.quad(
            lambda x: z * (eps - x) ** 2 * x ** (d - 1), 0.0, eps
        )
        assert abs(integral**d - 1.0) < 1e-10, d

    spec = PriorSpec(s=0.0, eps=1.0, d=2)
    sigmas = sample_prior_batch(spec, Stream(SEED).child(20), 100_000).sigmas
    ks = scipy.stats.kstest(sigmas[:, 0], scipy.stats.beta(2, 3).cdf).statistic
    assert ks < 0.01, ks

    spec = PriorSpec(s=0.3, eps=0.8, d=2)
    root = Stream(SEED).child(21)
    checked, k, h = 0, 0, 1e-6
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
                fd[i, j] = (
                    math.log(prior_density(sample.a + e, spec))
                    - math.log(prior_density(sample.a - e, spec))
                ) / (2 * h)
        assert np.max(np.abs(fd - grad)) < 1e-5 * (1 + np.max(np.abs(grad)))
        checked += 1

    for d, eps in [(1, 1.0), (2, 0.5), (5, 0.8)]:
        z = z_const(d, eps)
        integral, _ = scipy.integrate.quad(
            lambda x: 4.0 * z * x ** (d - 1), 0.0, eps
        )
        target = prior_fisher(d, eps)[0, 0]
        assert abs(integral - target) < 1e-10 * target, (d, eps)
    print(f"ACCEPTANCE 2 (prior machinery, KS {ks:.4f}): PASS")


def test_criterion_3_deterministic_formula_checks():
    """Rate-function dominance on the 200x49 grid; closed-form frequency
    bound dominates the grid value whenever valid; rank-one norm fuzz over
    1e5 pairs; hand-evaluated Bayesian bound and explicit rates to 1e-9."""
    for a in np.linspace(0.0, 3.0, 200):
        for n in range(2, 51):
            g = geom_sum(float(a), n).value
            assert phi(float(a), n) >= g - 1e-9 - 1e-12 * g

    family = [
        (np.diag([0.5, 0.3]), np.eye(2), (16, 64, 128)),
        (np.diag([0.9, 0.2]), np.diag([1.0, 2.0]), (16, 64, 128)),
        (np.diag([2.0, 4.0]), np.eye(2), (8, 12, 16)),
        (rotation(0.5), np.eye(2), (16, 64, 128)),
        (np.diag([0.5, 1.5]), np.eye(2), (16, 24, 32)),
        (np.array([[2.0]]), np.array([[1.0]]), (16, 64, 128)),
        (np.array([[0.99]]), np.array([[1.0]]), (16, 64, 128)),
    ]
    compared = 0
    for a_mat, b_mat, horizons in family:
        for n in horizons:
            params = SystemParams(a=a_mat, b=b_mat, n=n)
            valid, value = lab_upper_bound(params, alpha=0.5)
            if valid:
                assert l_ab(params) <= value * (1 + 1e-9), (a_mat, n)
                compared += 1
    assert compared >= 15

    worst = norm_ineq_fuzz(5, 100_000, Stream(SEED).child(30))
    assert worst >= -1e-12, worst

    assert abs(van_trees_bound(2, 3, 0.0, 1.0).value - 4.0 / 35.0) < 1e-9
    limit = minimax_regimes(2, 10, 1.0)
    assert abs(limit.value - math.log(4.0) ** 2 / 1200.0) < 1e-9
    assert abs(limit.value - 0.0016015100463940047) < 1e-9
    print(f"ACCEPTANCE 3 (formula checks, fuzz slack {worst:.2e}): PASS")


DOMINANCE_FAMILY = [
    ("scalar a=0.5", _system([[0.5]], [[1.0]], 500)),
    ("2d 0.5*I", _system(0.5 * np.eye(2), np.eye(2), 500)),
    ("2d diag(0.5,0.8)", _system(np.diag([0.5, 0.8]), np.eye(2), 500)),
]


def test_criterion_4_dominance_suite():
    """Empirical error matrix dominates the bound (C=1, eps=0.1) at N=500;
    the least-squares Bayes MSE dominates the Bayesian bound; both negative
    controls (10x inflated bounds) fail."""
    root = Stream(SEED)
    for idx, (label, params) in enumerate(DOMINANCE_FAMILY):
        # the three checks share one set of trajectories
        plans = [
            dominance_plan(params, TRIALS_DOMINANCE, partial(cr_bound, params, 0.1, 1.0)),
            dominance_plan(params, TRIALS_DOMINANCE, partial(inflated_cr_bound, params, 0.1)),
            risk_plan(params, TRIALS_DOMINANCE),
        ]
        draws = Draws(root.child(40, idx), params.n, params.d, params)
        result, inflated, est = run_plans(draws, TRIALS_DOMINANCE, plans)
        assert result.holds and result.margin > 0, (label, result)
        print(f"  criterion 4 [{label}]: margin {result.margin:.3e}")
        assert not inflated.holds, (label, inflated)
        # scalarized form with the heuristic 1/2 constant
        floor = 0.5 * params.d**2 / phi(np.linalg.norm(params.a, 2) ** 2, params.n)
        assert est.mse >= floor, (label, est.mse, floor)

    bayes = bayes_risk_experiment(
        PriorSpec(s=0.0, eps=0.5, d=2), 8, TRIALS_DOMINANCE, root.child(41)
    )
    assert bayes.bayes_mse >= bayes.vt_bound.value, bayes
    print(
        f"  criterion 4 [bayes]: mse {bayes.bayes_mse:.4f} >= bound {bayes.vt_bound.value:.4f}"
    )
    print("ACCEPTANCE 4 (dominance suite + negative controls): PASS")


def test_criterion_5_rate_checks():
    """Doubling N halves the empirical MSE and the frequency supremum for a
    stable scalar system (factor in [1.7, 2.3]); for a pure rotation the
    supremum stays bounded away from zero."""
    root = Stream(SEED)
    mse = {}
    for n in (50, 100):
        params = _system([[0.5]], [[1.0]], n)
        mse[n] = empirical_risk(params, TRIALS_DOMINANCE, root.child(50, n)).mse
    ratio = mse[50] / mse[100]
    assert 1.7 < ratio < 2.3, ratio

    lab = {n: l_ab(_system([[0.5]], [[1.0]], n)) for n in (64, 128)}
    lab_ratio = lab[64] / lab[128]
    assert 1.7 < lab_ratio < 2.3, lab_ratio

    rotation_vals = [
        l_ab(SystemParams(a=rotation(0.7), b=np.eye(2), n=n)) for n in (16, 32, 64)
    ]
    assert min(rotation_vals) > 1.0, rotation_vals
    print(
        f"ACCEPTANCE 5 (rates: mse ratio {ratio:.2f}, l_ab ratio {lab_ratio:.2f}, "
        f"rotation min {min(rotation_vals):.2f}): PASS"
    )


def test_criterion_6_reproducibility(tmp_path):
    """`verify` with a fixed seed emits byte-identical reports for
    --workers 1 and --workers 8."""
    import json

    config = {
        "system": {"d": 2, "n": 16, "a": {"kind": "identity", "scale": 0.5}, "b": {"kind": "identity"}},
        "run": {"trials": 5000, "seed": 424242, "epsilon": 0.3},
        "output": {"format": "csv", "path": None},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out1 = tmp_path / "w1.csv"
    out8 = tmp_path / "w8.csv"
    code1 = main(["verify", "--config", str(path), "--out", str(out1), "--workers", "1"])
    code8 = main(["verify", "--config", str(path), "--out", str(out8), "--workers", "8"])
    assert code1 == 0 and code8 == 0
    assert out1.read_bytes() == out8.read_bytes()
    print("ACCEPTANCE 6 (byte-identical reports across workers): PASS")
