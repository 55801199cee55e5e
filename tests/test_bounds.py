import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ltibounds.model
from ltibounds.bounds import (
    NotDiagonalizableError,
    _freq_norm_sq,
    _grid_freq_norm_sq,
    _matrix_powers,
    cr_bound,
    delta1,
    delta2,
    geom_sum,
    geom_sum_lower,
    l_ab,
    lab_upper_bound,
    phi,
    prop_bound_no_limit,
    prop_bound_with_limit,
    psi,
    spectral_split,
)
from ltibounds.linalg import haar_orthogonal, sym_inv_sqrt
from ltibounds.model import SystemParams, expected_gram
from ltibounds.rng import Stream


def rotation(theta: float, scale: float = 1.0) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return scale * np.array([[c, -s], [s, c]])


def scalar_params(a: float, b: float = 1.0, n: int = 8) -> SystemParams:
    return SystemParams(a=np.array([[a]]), b=np.array([[b]]), n=n)


# ---------------------------------------------------------------------------
# psi
# ---------------------------------------------------------------------------


def test_psi_memoryless():
    params = SystemParams(a=np.zeros((3, 3)), b=np.eye(3), n=7)
    assert np.allclose(psi(params), 6.0 * np.eye(3))


def test_psi_hand_sum():
    params = SystemParams(a=0.5 * np.eye(2), b=np.eye(2), n=3)
    assert np.allclose(psi(params), 2.25 * np.eye(2))


def test_psi_matches_monte_carlo():
    a = rotation(0.3, scale=0.5)
    params = SystemParams(a=a, b=np.eye(2), n=6)
    target = psi(params)
    trials = 100_000
    g = Stream(30).generator()
    noise = g.standard_normal((trials, 6, 2))
    states = np.zeros((trials, 7, 2))
    for i in range(6):
        states[:, i + 1] = states[:, i] @ a.T + noise[:, i]
    emp = np.einsum("tnd,tne->de", states[:, 1:6], states[:, 1:6]) / trials
    assert np.linalg.norm(emp - target) / np.linalg.norm(target) < 0.02


def test_psi_dominates_first_term():
    g = Stream(31).generator()
    for _ in range(10):
        a = 0.5 * g.standard_normal((2, 2))
        b = np.eye(2) + 0.1 * g.standard_normal((2, 2))
        params = SystemParams(a=a, b=b, n=9)
        # (N-1) BB* <= Psi in the Loewner order: lambda_min(Psi - (N-1) BB*) >= -1e-9
        diff = psi(params) - (params.n - 1) * b @ b.T
        assert np.linalg.eigvalsh(0.5 * (diff + diff.T))[0] >= -1e-9


# ---------------------------------------------------------------------------
# l_ab
# ---------------------------------------------------------------------------


def test_lab_memoryless():
    for d, n in [(1, 5), (2, 10), (3, 8)]:
        params = SystemParams(a=np.zeros((d, d)), b=np.eye(d), n=n)
        assert l_ab(params) == pytest.approx(1.0 / (n - 1), rel=1e-12)


def scalar_freq_sup_dense(a: float, b: float, n: int, grid: int = 2**20) -> float:
    """Brute-force oracle: dense-grid frequency sup for scalar systems."""
    params = scalar_params(a, b, n)
    psi_val = psi(params)[0, 0]
    theta = 2 * np.pi * np.arange(grid) / grid
    z = a * np.exp(1j * theta)
    series = np.where(np.abs(1 - z) < 1e-15, n - 1, (1 - z ** (n - 1)) / (1 - z))
    return float(np.max(np.abs(series) ** 2) * b**2 / psi_val)


def test_lab_scalar_dense_grid_oracle():
    for a in (0.3, 0.7, -0.5):
        got = l_ab(scalar_params(a, 1.0, 16))
        want = scalar_freq_sup_dense(a, 1.0, 16)
        assert got == pytest.approx(want, rel=1e-9)


def test_lab_grid_convergence():
    g = Stream(32).generator()
    for _ in range(5):
        a = 0.6 * g.standard_normal((2, 2))
        params = SystemParams(a=a, b=np.eye(2), n=12)
        v1 = l_ab(params, 4096)
        v2 = l_ab(params, 8192)
        assert abs(v1 - v2) / v2 < 1e-3


def test_lab_rejects_small_grid():
    with pytest.raises(ValueError):
        l_ab(scalar_params(0.5), grid_points=32)


def test_lab_stable_halves_with_n():
    v64 = l_ab(scalar_params(0.5, n=64))
    v128 = l_ab(scalar_params(0.5, n=128))
    assert 1.7 < v64 / v128 < 2.3


def test_lab_rotation_stays_bounded_below():
    for n in (16, 32, 64):
        params = SystemParams(a=rotation(0.7), b=np.eye(2), n=n)
        assert l_ab(params) > 1.0


def bq_systems(seed, d, spectrum, extra):
    """(A, B, Q, N): A scaled to spectral radius ``spectrum`` (at most 1), or orthogonal."""
    g = np.random.default_rng(seed)
    if spectrum == "orthogonal":
        a = haar_orthogonal(d, g, canonical_signs=False)  # every |lambda| = 1
    else:
        a = g.standard_normal((d, d))
        a *= spectrum / max(np.abs(np.linalg.eigvals(a)))
    b = np.diag(g.uniform(0.5, 2.0, d)) + np.triu(0.3 * g.standard_normal((d, d)), 1)
    return a, b, haar_orthogonal(d, g, canonical_signs=False), d + 1 + extra


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 4),
    spectrum=st.sampled_from([0.0, 0.5, 0.95, 1.0, "orthogonal"]),
    extra=st.integers(0, 295),
)
def test_lab_is_invariant_under_b_times_orthogonal(seed, d, spectrum, extra):
    # Psi(BQ) = Psi(B) and |W F(s) B Q| = |W F(s) B| for orthogonal Q, so l_ab
    # moves by rounding only. The worst relative change measured was 1.8e-14
    # over 3000 systems of bq_systems (600 per spectrum) and 9.0e-14 over 1500
    # other random systems at spectral radius 1, so rtol 1e-12 leaves a
    # margin of 11x. Unstable spectra are left out: they drift by about 1e-7
    # through the ill-conditioned Psi until the scaled walk of ROADMAP item 1.
    a, b, q, n = bq_systems(seed, d, spectrum, extra)
    want = l_ab(SystemParams(a=a, b=b, n=n))
    assert l_ab(SystemParams(a=a, b=b @ q, n=n)) == pytest.approx(want, rel=1e-12, abs=0)


# the uniform l_ab grid: one FFT of the power sequence against the direct sum


def direct_grid(w, powers, b, grid_points, stride=1, block=256):
    """Reference: the direct sum ``_freq_norm_sq`` at s = m / grid_points, m = 0, stride, ..."""
    grid = np.arange(0, grid_points, stride) / grid_points
    return np.concatenate(
        [_freq_norm_sq(w, powers, b, grid[i : i + block]) for i in range(0, len(grid), block)]
    )


def random_system(d: int, kind: str, count: int, seed: int):
    """(W, A^0..A^{count-1}, B) with A stable, on the unit circle or unstable."""
    g = np.random.default_rng([seed, d, count])
    if kind == "limit":
        a, _ = np.linalg.qr(g.standard_normal((d, d)))  # every |lambda| = 1
    else:
        # unstable growth capped at e^3 over the whole sequence
        radius = 0.9 if kind == "stable" else math.exp(3.0 / max(count, 30))
        a = g.standard_normal((d, d))
        a *= radius / np.max(np.abs(np.linalg.eigvals(a)))
    w = g.standard_normal((d, d))
    b = g.standard_normal((d, d))
    return w, _matrix_powers(a, count), b


def assert_grid_matches(w, powers, b, grid_points, stride=1):
    want = direct_grid(w, powers, b, grid_points, stride)
    got = _grid_freq_norm_sq(w, powers, b, grid_points)
    assert got.shape == (grid_points,)
    np.testing.assert_allclose(got[::stride], want, rtol=0, atol=1e-12 * want.max())


@pytest.mark.parametrize("grid_points", [64, 1000, 4096])
@pytest.mark.parametrize("kind", ["stable", "limit", "unstable"])
@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_lab_fft_grid_matches_direct_sum(d, kind, grid_points):
    assert_grid_matches(*random_system(d, kind, 39, seed=1), grid_points)


FOLD_SYSTEMS = [(1, "limit"), (2, "unstable"), (3, "stable"), (8, "limit")]
# the direct-sum reference costs grid_points * count phases: at 4096 points
# each length gets one of the systems instead of all four, checked at every
# 4th frequency (a misplaced fold moves the values at almost every one)
FOLD_CASES = [
    (m, count, *system)
    for m in (64, 1000, 4096)
    for i, count in enumerate((1, m - 1, m, m + 1, 3 * m + 5))
    for system in (FOLD_SYSTEMS if m < 4096 else FOLD_SYSTEMS[i % 4 : i % 4 + 1])
]


@pytest.mark.parametrize("grid_points,count,d,kind", FOLD_CASES)
def test_lab_fft_grid_folds_long_power_sequences(grid_points, count, d, kind):
    # N = 2 (one power) and N - 1 around and beyond the grid, where the powers
    # are folded modulo grid_points before the FFT
    stride = 4 if grid_points == 4096 else 1
    assert_grid_matches(*random_system(d, kind, count, seed=2), grid_points, stride)


def d8_similarity(seed: int) -> np.ndarray:
    q = haar_orthogonal(8, Stream(seed))
    return (q * np.linspace(0.3, 0.95, 8)) @ q.T


# the bounds_sweep benchmark systems that do not exit 3
SWEEP_SYSTEMS = [
    (np.diag([0.5, 0.9]), np.diag([1.0, 3.0]), 256),
    (np.diag([0.3, 0.95]), np.eye(2), 2048),
    (d8_similarity(37), np.eye(8), 256),
    (d8_similarity(38), np.eye(8), 2048),
    (np.diag([1.0, 0.5]), np.eye(2), 512),
    (np.diag([1.0, 0.5]), np.eye(2), 2048),
    (rotation(0.5), np.eye(2), 512),
    (np.diag([0.5, 1.2]), np.eye(2), 16),
    (np.diag([0.5, 1.2]), np.eye(2), 64),
    (np.diag([0.5, 1.02]), np.eye(2), 512),
]


@pytest.mark.parametrize("a,b,n", SWEEP_SYSTEMS)
def test_lab_fft_grid_keeps_the_argmax(a, b, n):
    # the golden-section refinement starts from the same grid point
    params = SystemParams(a=a, b=b, n=n)
    w = sym_inv_sqrt(psi(params))
    powers = _matrix_powers(params.a, n - 1)
    want = direct_grid(w, powers, params.b, 4096)
    got = _grid_freq_norm_sq(w, powers, params.b, 4096)
    assert np.argmax(got) == np.argmax(want)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * want.max())


def one_shot_grid(w, powers, b, grid_points):
    """``_grid_freq_norm_sq`` with W F B and its SVD formed over the whole grid at once."""
    count = powers.shape[0]
    if count > grid_points:
        pad = np.zeros((-count % grid_points,) + powers.shape[1:])
        powers = np.concatenate([powers, pad])
        powers = powers.reshape((-1, grid_points) + powers.shape[1:]).sum(axis=0)
    f = grid_points * np.fft.ifft(powers, n=grid_points, axis=0)
    return np.linalg.svd(w @ f @ b, compute_uv=False)[:, 0] ** 2


@pytest.mark.parametrize("grid_points", [64, 1000, 4096])
@pytest.mark.parametrize("d, kind", [(1, "stable"), (2, "limit"), (3, "unstable"), (8, "stable")])
def test_sliced_grid_is_bitwise_the_one_shot_product(grid_points, d, kind):
    # a power sequence shorter than the grid and one folded onto it
    for count in (39, grid_points + 5):
        w, powers, b = random_system(d, kind, count, seed=3)
        got = _grid_freq_norm_sq(w, powers, b, grid_points)
        assert np.array_equal(got, one_shot_grid(w, powers, b, grid_points)), count


def test_d8_lab_grid_peaks_below_8_mb():
    # the (4096, 8, 8) complex F alone is 4 MB; its products and SVDs run a
    # slice of frequencies at a time, where the whole grid at once peaked at 13 MB
    params = SystemParams(a=d8_similarity(38), b=np.eye(8), n=2048)
    params.psi_inv_sqrt  # the walk and Psi^{-1/2} are cached before the grid is measured
    tracemalloc.start()
    try:
        l_ab(params, 4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_lab_grid_memory_stays_small():
    params = SystemParams(a=np.diag([0.3, 0.95]), b=np.eye(2), n=2048)
    params.psi_inv_sqrt  # the walk and Psi^{-1/2} are cached before the grid is measured
    tracemalloc.start()
    try:
        l_ab(params, 4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# delta rates
# ---------------------------------------------------------------------------


def test_delta1_zero():
    assert delta1(scalar_params(0.5), 1.0, 0.0) == 0.0


def test_delta1_hand_value():
    params = SystemParams(a=np.zeros((2, 2)), b=np.eye(2), n=4)
    assert delta1(params, 1.0, 1.0) == pytest.approx(2.0 + math.sqrt(2.0))


def test_delta1_monotone():
    params = SystemParams(a=np.zeros((2, 2)), b=np.eye(2), n=4)
    ts = np.linspace(0.0, 8.0, 9)
    ls = np.linspace(0.0, 4.0, 9)
    for l in ls:
        vals = [delta1(params, t, l) for t in ts]
        assert np.all(np.diff(vals) >= -1e-15)
    for t in ts:
        vals = [delta1(params, t, l) for l in ls]
        assert np.all(np.diff(vals) >= -1e-15)


def test_delta2():
    params = SystemParams(a=np.zeros((3, 3)), b=np.eye(3), n=4)
    assert delta2(params, 0.0) == 0.0
    assert delta2(params, 0.5) == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# phi / geom_sum
# ---------------------------------------------------------------------------


def test_phi_values():
    assert phi(0.0, 10) == pytest.approx(11.0)
    assert phi(1.0, 10) == pytest.approx(45.0)
    assert phi(2.0, 3) == pytest.approx(8.0)
    assert phi(1.0 + 5e-13, 10) == pytest.approx(45.0)  # tolerance branch


def test_geom_sum_values():
    assert geom_sum(1.0, 10) == pytest.approx(45.0)
    assert geom_sum(0.0, 10) == pytest.approx(9.0)
    assert geom_sum(2.0, 3) == pytest.approx(4.0)


def test_phi_dominates_geom_sum_grid():
    # relative slack covers ULP rounding where the two sides agree to ~16
    # digits (large a*N); any real violation would be O(1) relative
    for a in np.linspace(0.0, 3.0, 200):
        for n in range(2, 51):
            g = geom_sum(float(a), n)
            assert phi(float(a), n) >= g - 1e-9 - 1e-12 * g


def test_geom_sum_lower():
    valid, lower = geom_sum_lower(0.5, 10, 0.5)
    assert valid and lower == pytest.approx(10.0)
    valid, _ = geom_sum_lower(0.5, 3, 0.5)
    assert not valid
    for a in np.linspace(0.05, 0.95, 10):
        for alpha in (0.25, 0.5, 0.75):
            for n in (4, 16, 64, 256):
                valid, lower = geom_sum_lower(float(a), n, alpha)
                if valid:
                    assert geom_sum(float(a), n) >= lower - 1e-9


# ---------------------------------------------------------------------------
# cr_bound
# ---------------------------------------------------------------------------


def test_cr_bound_memoryless_shape():
    d, n, eps = 2, 10, 0.1
    params = SystemParams(a=np.zeros((d, d)), b=np.eye(d), n=n)
    report = cr_bound(params, eps)
    l_val = 1.0 / (n - 1)
    t = max(math.log(l_val / eps), 0.0)
    delta = delta1(params, t, l_val)
    expected = d * (1 - eps) ** 2 / ((1 + delta) ** 2 * (n - 1)) * np.eye(d)
    assert np.allclose(report.cr_matrix, expected, rtol=1e-12)
    assert report.delta2 == pytest.approx(d * l_val)


def test_cr_bound_ideal_limit():
    params = SystemParams(a=0.4 * np.eye(2), b=np.diag([1.0, 2.0]), n=12)
    report = cr_bound(params, 1e-9, constant=1e-12)
    from ltibounds.model import information_scalar

    ideal = 4.0 * params.noise_cov() / information_scalar(params)
    assert np.allclose(report.cr_matrix, ideal, rtol=1e-6)


def test_cr_bound_scalarization_chain():
    g = Stream(33).generator()
    for _ in range(10):
        a = 0.5 * g.standard_normal((2, 2))
        b = np.eye(2) + 0.2 * g.standard_normal((2, 2))
        params = SystemParams(a=a, b=b, n=10)
        report = cr_bound(params, 0.1)
        assert report.mse_lower <= np.trace(report.cr_matrix) + 1e-12
        w = np.linalg.eigvalsh(report.cr_matrix)
        assert w[0] > 0  # PSD, in fact PD for full-rank B


def test_cr_bound_noise_scale_invariance():
    g = Stream(34).generator()
    a = 0.5 * g.standard_normal((2, 2))
    b = np.eye(2) + 0.2 * g.standard_normal((2, 2))
    r1 = cr_bound(SystemParams(a=a, b=b, n=9), 0.1)
    r3 = cr_bound(SystemParams(a=a, b=3.0 * b, n=9), 0.1)
    assert r1.mse_lower == pytest.approx(r3.mse_lower, rel=1e-10)
    assert np.allclose(r1.cr_matrix, r3.cr_matrix, rtol=1e-10)


def test_cr_bound_walks_a_k_b_once(monkeypatch):
    walks = []

    def counting_walk(params):
        walks.append(params.n)
        return expected_gram(params)

    monkeypatch.setattr(ltibounds.model, "expected_gram", counting_walk)
    params = SystemParams(a=rotation(0.6, 0.8), b=np.diag([1.0, 2.0]), n=40)
    first = cr_bound(params, 0.1, grid_points=128)
    again = cr_bound(params, 0.2, grid_points=128)
    assert walks == [40]
    assert again.psi is first.psi and not first.psi.flags.writeable


def test_pickled_params_carry_the_walk(monkeypatch):
    params = SystemParams(a=rotation(0.6, 0.8), b=np.diag([1.0, 2.0]), n=40)
    want = cr_bound(params, 0.1, grid_points=128)
    copy = pickle.loads(pickle.dumps(params))
    calls = []

    def record(*args):
        calls.append(args)

    monkeypatch.setattr(ltibounds.model, "expected_gram", record)
    monkeypatch.setattr(ltibounds.model, "sym_inv_sqrt", record)
    got = cr_bound(copy, 0.1, grid_points=128)
    assert calls == []
    assert np.array_equal(got.psi, want.psi) and got.l_ab == want.l_ab
    assert np.array_equal(got.cr_matrix, want.cr_matrix)


def test_cr_bound_epsilon_validation():
    with pytest.raises(ValueError):
        cr_bound(scalar_params(0.5), 1.5)


# ---------------------------------------------------------------------------
# spectral_split
# ---------------------------------------------------------------------------


def test_split_diagonal():
    split = spectral_split(np.diag([0.5, 2.0]), tol=0.05)
    assert split.stable_indices == (0,)
    assert split.unstable_indices == (1,)
    assert split.limit_indices == ()


def test_split_rotation_is_limit():
    split = spectral_split(rotation(0.4), tol=0.05)
    assert split.limit_indices == (0, 1)


def test_split_reconstruction_random():
    g = Stream(35).generator()
    for _ in range(20):
        a = g.standard_normal((4, 4))
        split = spectral_split(a, tol=0.05)
        recon = (split.s_basis * split.eigenvalues) @ np.linalg.inv(split.s_basis)
        assert np.linalg.norm(recon - a) / (1 + np.linalg.norm(a)) < 1e-8


def test_split_rejects_jordan_block():
    with pytest.raises(NotDiagonalizableError):
        spectral_split(np.array([[1.0, 1.0], [0.0, 1.0]]), tol=0.05)


def test_split_b_tilde():
    b = np.diag([1.0, 3.0])
    split = spectral_split(np.diag([0.5, 0.2]), tol=0.05, b=b)
    assert np.allclose(split.b_tilde.real, b)


# ---------------------------------------------------------------------------
# lab_upper_bound
# ---------------------------------------------------------------------------


def test_lab_upper_dominates_scalar_stable():
    params = scalar_params(0.5, n=64)
    split = spectral_split(params.a, tol=1.0 / params.n, b=params.b)
    valid, value = lab_upper_bound(split, params.n, alpha=0.5)
    assert valid
    assert l_ab(params) <= value


def test_lab_upper_cond_scaling():
    a = np.diag([0.5, 0.3])
    s1 = spectral_split(a, tol=0.05, b=np.eye(2))
    s3 = spectral_split(a, tol=0.05, b=np.diag([1.0, 3.0]))
    v1 = lab_upper_bound(s1, 32, 0.5)
    v3 = lab_upper_bound(s3, 32, 0.5)
    assert v3.value == pytest.approx(9.0 * v1.value, rel=1e-9)


def test_lab_upper_invalid_below_threshold():
    # threshold N >= 1/(0.1 * (1 - 0.81)) = 52.6
    split = spectral_split(np.array([[0.9]]), tol=0.01)
    assert not lab_upper_bound(split, 16, 0.1).valid
    assert lab_upper_bound(split, 64, 0.1).valid


def test_lab_upper_dominates_family():
    # stable, unstable, limit, and mixed blocks; grid value never exceeds the
    # closed form whenever the validity flag is on
    # horizons for systems with unstable blocks stay moderate so the expected
    # Gram matrix keeps a float-representable condition number
    cases = []
    for a_mat, b_mat, horizons in [
        (np.diag([0.5, 0.3]), np.eye(2), (16, 64, 128)),
        (np.diag([0.9, 0.2]), np.diag([1.0, 2.0]), (16, 64, 128)),
        (np.diag([2.0, 4.0]), np.eye(2), (8, 12, 16)),
        (rotation(0.5), np.eye(2), (16, 64, 128)),
        (np.diag([0.5, 1.5]), np.eye(2), (16, 24, 32)),
        (np.array([[2.0]]), np.array([[1.0]]), (16, 64, 128)),
        (np.array([[0.99]]), np.array([[1.0]]), (16, 64, 128)),
    ]:
        for n in horizons:
            cases.append((a_mat, b_mat, n))
    for a_mat, b_mat, n in cases:
        params = SystemParams(a=a_mat, b=b_mat, n=n)
        split = spectral_split(a_mat, tol=1.0 / n, b=b_mat)
        valid, value = lab_upper_bound(split, n, alpha=0.5)
        if valid:
            assert l_ab(params) <= value * (1 + 1e-9), (a_mat, n)


# ---------------------------------------------------------------------------
# explicit regime bounds
# ---------------------------------------------------------------------------


def test_no_limit_hand_threshold():
    params = scalar_params(0.5, n=500)
    split = spectral_split(params.a, tol=0.01, b=params.b)
    n_min, mse = prop_bound_no_limit(params, split, 0.1)
    assert n_min == 461
    assert mse == pytest.approx((0.9 / 1.1) ** 2 / phi(0.25, 500))


def test_no_limit_small_epsilon_limit():
    params = scalar_params(0.5, n=100)
    split = spectral_split(params.a, tol=0.01, b=params.b)
    _, mse = prop_bound_no_limit(params, split, 1e-6)
    assert mse == pytest.approx(1.0 / phi(0.25, 100), rel=1e-4)


def test_no_limit_below_ideal_scalarization():
    params = scalar_params(0.5, n=64)
    split = spectral_split(params.a, tol=0.01, b=params.b)
    _, mse = prop_bound_no_limit(params, split, 0.1)
    assert mse < 1.0 / phi(0.25, 64)


def test_no_limit_rejects_limit_part():
    params = SystemParams(a=rotation(0.3), b=np.eye(2), n=16)
    split = spectral_split(params.a, tol=0.05, b=params.b)
    with pytest.raises(ValueError):
        prop_bound_no_limit(params, split, 0.1)


def test_with_limit_pure_rotation():
    params = SystemParams(a=rotation(0.3), b=np.eye(2), n=16)
    split = spectral_split(params.a, tol=0.05, b=params.b)
    n_min, delta_eps, mse = prop_bound_with_limit(params, split, 0.1)
    assert n_min == 2  # no stable/unstable gap terms
    assert delta_eps >= params.d
    assert mse > 0


def test_with_limit_mixed_block():
    a = np.zeros((3, 3))
    a[0, 0] = 0.5
    a[1:, 1:] = rotation(0.4)
    params = SystemParams(a=a, b=np.eye(3), n=16)
    split = spectral_split(a, tol=0.05, b=np.eye(3))
    n_min, delta_eps, mse = prop_bound_with_limit(params, split, 0.1)
    assert np.isfinite(delta_eps) and mse > 0
    assert n_min == math.ceil(2.0 / (1.0 - 0.25))


def test_with_limit_dimension_factor_lost():
    # d / delta_eps <= 1 whenever a limit part is present
    g = Stream(36).generator()
    for _ in range(10):
        theta = g.uniform(0.1, 1.0)
        lam = g.uniform(0.1, 0.9)
        a = np.zeros((3, 3))
        a[0, 0] = lam
        a[1:, 1:] = rotation(theta)
        params = SystemParams(a=a, b=np.eye(3), n=20)
        split = spectral_split(a, tol=0.05, b=np.eye(3))
        _, delta_eps, _ = prop_bound_with_limit(params, split, float(g.uniform(0.05, 0.5)))
        assert params.d / delta_eps <= 1.0


def test_with_limit_rejects_no_limit_part():
    params = scalar_params(0.5)
    split = spectral_split(params.a, tol=0.01, b=params.b)
    with pytest.raises(ValueError):
        prop_bound_with_limit(params, split, 0.1)


def test_phi_saturates_instead_of_raising():
    assert phi(2.0, 2000) == float("inf")
    assert phi(1.5, 64) == pytest.approx(1.5**64 / 0.25)
