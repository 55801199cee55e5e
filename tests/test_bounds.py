import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ltibounds.bounds
import ltibounds.model
from ltibounds.bounds import (
    NotDiagonalizableError,
    _freq_norm_sq,
    _grid_freq_norm_sq,
    _matrix_powers,
    cr_bound,
    delta1,
    delta2,
    explicit_bound,
    geom_sum,
    geom_sum_lower,
    l_ab,
    lab_upper_bound,
    phi,
    psi,
    spectral_split,
)
from ltibounds.linalg import haar_orthogonal, sym_inv_sqrt
from ltibounds.model import SystemParams, expected_gram
from ltibounds.rng import Stream
from oracles import rotation, scalar_params


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


# the uniform l_ab grid: one real FFT of the power sequence against the direct sum


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


def padded_fold(powers, grid_points):
    """The powers folded modulo grid_points by a zero pad and one reshaped sum."""
    count = powers.shape[0]
    if count <= grid_points:
        return powers
    pad = np.zeros((-count % grid_points,) + powers.shape[1:])
    powers = np.concatenate([powers, pad])
    return powers.reshape((-1, grid_points) + powers.shape[1:]).sum(axis=0)


def ifft_grid(w, powers, b, grid_points):
    """The whole grid from one complex ifft, with W F B and its SVD at every frequency."""
    f = grid_points * np.fft.ifft(padded_fold(powers, grid_points), n=grid_points, axis=0)
    return np.linalg.svd(w @ f @ b, compute_uv=False)[:, 0] ** 2


def one_shot_grid(w, powers, b, grid_points):
    """``_grid_freq_norm_sq`` with W F B and its SVD formed over the half spectrum at once."""
    f = np.fft.rfft(padded_fold(powers, grid_points), n=grid_points, axis=0)
    half = np.linalg.svd(w @ f @ b, compute_uv=False)[:, 0] ** 2
    return np.concatenate([half, half[grid_points - len(half) : 0 : -1]])


@pytest.mark.parametrize("grid_points", [64, 1000, 1001, 4096, 4097])
@pytest.mark.parametrize("kind", ["stable", "limit", "unstable"])
@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_half_spectrum_grid_matches_the_full_complex_grid(d, kind, grid_points):
    # the upper half is the mirror of the lower, for even and odd grids; the
    # tolerance scales with the maximum, since points cancelled to ~1e-28 of
    # it carry no relative accuracy
    for count in (39, grid_points + 5):
        w, powers, b = random_system(d, kind, count, seed=5)
        want = ifft_grid(w, powers, b, grid_points)
        got = _grid_freq_norm_sq(w, powers, b, grid_points)
        assert got.shape == (grid_points,)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * want.max(), err_msg=str(count))


@pytest.mark.parametrize("grid_points", [64, 1000, 4096])
@pytest.mark.parametrize("d, kind", [(1, "stable"), (2, "limit"), (3, "unstable"), (8, "stable")])
def test_sliced_grid_is_bitwise_the_one_shot_product(grid_points, d, kind):
    # a power sequence shorter than the grid and one folded onto it
    for count in (39, grid_points + 5):
        w, powers, b = random_system(d, kind, count, seed=3)
        got = _grid_freq_norm_sq(w, powers, b, grid_points)
        assert np.array_equal(got, one_shot_grid(w, powers, b, grid_points)), count


def test_fold_adds_the_blocks_in_order_bitwise_as_the_padded_sum(monkeypatch):
    # the fold adds each grid-sized block into a copy of the first, with no
    # padded copy of the stack, and leaves the caller's powers untouched
    w, powers, b = random_system(8, "stable", 3 * 4096 + 7, seed=4)
    before = powers.copy()
    transformed = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda x, **kw: transformed.append(x.copy()) or rfft(x, **kw))
    _grid_freq_norm_sq(w, powers, b, 4096)
    assert np.array_equal(transformed[0], padded_fold(powers, 4096))
    assert np.array_equal(powers, before)


def test_d8_lab_grid_peaks_below_4_5_mb():
    # the (2049, 8, 8) complex half-spectrum F is 2 MB and the power stack 1 MB;
    # the products and SVDs run a slice of frequencies at a time
    params = SystemParams(a=d8_similarity(38), b=np.eye(8), n=2048)
    params.psi_inv_sqrt  # the walk and Psi^{-1/2} are cached before the grid is measured
    tracemalloc.start()
    try:
        l_ab(params, 4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2**20


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
    assert geom_sum(1.0, 10).value == pytest.approx(45.0)
    assert geom_sum(0.0, 10).value == pytest.approx(9.0)
    assert geom_sum(2.0, 3).value == pytest.approx(4.0)


@pytest.mark.parametrize("n", [2, 3, 64, 2048, 5000])
@pytest.mark.parametrize("x", [0.0, 0.3, 1.0 - 1e-12, 1.0, 1.02, 1.21, 2.0])
def test_geom_sum_value_is_the_direct_accumulation(x, n):
    # the accumulation loop geom_sum ran before it also returned the log
    total, power = 0.0, 1.0
    for w in range(n - 1, 0, -1):
        total += w * power
        power *= x
    ramp = geom_sum(x, n)
    assert ramp.value == total  # bitwise, inf included
    assert math.isfinite(ramp.log_value)
    if math.isfinite(total):
        assert ramp.log_value == pytest.approx(math.log(total), rel=1e-14)


def test_phi_dominates_geom_sum_grid():
    # relative slack covers ULP rounding where the two sides agree to ~16
    # digits (large a*N); any real violation would be O(1) relative
    for a in np.linspace(0.0, 3.0, 200):
        for n in range(2, 51):
            g = geom_sum(float(a), n).value
            assert phi(float(a), n) >= g - 1e-9 - 1e-12 * g


def test_geom_sum_lower():
    valid, lower = geom_sum_lower(0.5, 10, 0.5)
    assert valid and lower == pytest.approx(10.0)
    valid, _ = geom_sum_lower(0.5, 3, 0.5)
    assert not valid
    for a in [0.0, *np.linspace(0.05, 0.95, 10)]:
        for alpha in (0.25, 0.5, 0.75):
            for n in (4, 16, 64, 256):
                valid, lower = geom_sum_lower(float(a), n, alpha)
                if valid:
                    assert geom_sum(float(a), n).value >= lower - 1e-9


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
    split = spectral_split(SystemParams(a=np.diag([0.5, 2.0]), b=np.eye(2), n=20))
    assert split.stable_indices == (0,)
    assert split.unstable_indices == (1,)
    assert split.limit_indices == ()


def test_split_rotation_is_limit():
    split = spectral_split(SystemParams(a=rotation(0.4), b=np.eye(2), n=20))
    assert split.limit_indices == (0, 1)


def test_split_reconstruction_random():
    g = Stream(35).generator()
    for _ in range(20):
        a = g.standard_normal((4, 4))
        split = spectral_split(SystemParams(a=a, b=np.eye(4), n=20))
        recon = (split.s_basis * split.eigenvalues) @ np.linalg.inv(split.s_basis)
        assert np.linalg.norm(recon - a) / (1 + np.linalg.norm(a)) < 1e-8


def test_split_rejects_jordan_block():
    with pytest.raises(NotDiagonalizableError):
        spectral_split(SystemParams(a=np.array([[1.0, 1.0], [0.0, 1.0]]), b=np.eye(2), n=20))


def test_split_b_tilde():
    b = np.diag([1.0, 3.0])
    split = spectral_split(SystemParams(a=np.diag([0.5, 0.2]), b=b, n=20))
    assert np.allclose(split.b_tilde.real, b)


def test_params_split_is_made_once(monkeypatch):
    calls = []

    def counting_split(params):
        calls.append(params.n)
        return spectral_split(params)

    monkeypatch.setattr(ltibounds.bounds, "spectral_split", counting_split)
    a = np.zeros((3, 3))
    a[0, 0] = 0.5
    a[1:, 1:] = rotation(0.4)
    params = SystemParams(a=a, b=np.eye(3), n=16)
    first = params.split
    lab_upper_bound(params, 0.5)
    explicit_bound(params, 0.1)
    assert params.split is first
    assert calls == [16]


def test_params_split_is_read_only_and_pickled():
    params = SystemParams(a=rotation(0.6, 0.8), b=np.diag([1.0, 2.0]), n=40)
    split = params.split
    assert not any(m.flags.writeable for m in (split.s_basis, split.eigenvalues, split.b_tilde))
    params.psi_inv_sqrt, params.noise_cov_inv  # fill the other caches (psi_info with them)
    copy = pickle.loads(pickle.dumps(params))
    assert "split" in vars(copy)
    assert np.array_equal(copy.split.b_tilde, split.b_tilde)
    assert copy.split.limit_indices == split.limit_indices == ()
    assert (copy.split.gap, copy.split.cond_sq) == (split.gap, split.cond_sq)
    # unpickled arrays are frozen again, the cached ones and the split's too
    frozen = (copy.a, copy.b, copy.psi_info[0], copy.psi_inv_sqrt, copy.noise_cov_inv)
    frozen += (copy.split.s_basis, copy.split.eigenvalues, copy.split.b_tilde)
    assert not any(m.flags.writeable for m in frozen)


# ---------------------------------------------------------------------------
# lab_upper_bound
# ---------------------------------------------------------------------------


def test_lab_upper_dominates_scalar_stable():
    params = scalar_params(0.5, n=64)
    valid, value = lab_upper_bound(params, alpha=0.5)
    assert valid
    assert l_ab(params) <= value


def test_lab_upper_cond_scaling():
    a = np.diag([0.5, 0.3])
    v1 = lab_upper_bound(SystemParams(a=a, b=np.eye(2), n=32), 0.5)
    v3 = lab_upper_bound(SystemParams(a=a, b=np.diag([1.0, 3.0]), n=32), 0.5)
    assert v3.value == pytest.approx(9.0 * v1.value, rel=1e-9)


def test_lab_upper_invalid_below_threshold():
    # threshold N >= 1/(0.1 * (1 - 0.81)) = 52.6
    assert not lab_upper_bound(scalar_params(0.9, n=16), 0.1).valid
    assert lab_upper_bound(scalar_params(0.9, n=64), 0.1).valid


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
        valid, value = lab_upper_bound(params, alpha=0.5)
        if valid:
            assert l_ab(params) <= value * (1 + 1e-9), (a_mat, n)


# ---------------------------------------------------------------------------
# explicit regime bounds
# ---------------------------------------------------------------------------


def test_explicit_bound_takes_the_limit_form_iff_the_split_has_a_limit_part():
    for params, limit in [
        (SystemParams(a=rotation(0.3), b=np.eye(2), n=16), True),
        (scalar_params(0.5), False),
    ]:
        assert bool(params.split.limit_indices) is limit
        assert (explicit_bound(params, 0.1).delta_eps is not None) is limit


@pytest.mark.parametrize(
    "a, epsilon, named",
    [
        (np.diag([0.5, 0.3]), 1e-200, "n_min"),  # epsilon^2 is 0.0
        (np.diag([0.5, 0.3]), 1e-160, "n_min"),  # n_min is inf
        (np.diag([1.0, 0.5]), 5e-324, "delta_eps"),  # epsilon * gap is 0.0
        (np.diag([1.0, 0.5]), 1e-320, "delta_eps"),  # cond^2 / (epsilon * gap) is inf
    ],
)
def test_explicit_bound_names_run_epsilon_where_the_regime_bound_leaves_float64(a, epsilon, named):
    params = SystemParams(a=a, b=np.eye(2), n=64)
    with pytest.raises(ValueError, match=rf"^{named} at run\.epsilon = {epsilon!r} is beyond the float64 range"):
        explicit_bound(params, epsilon)


def test_cr_bound_names_run_epsilon_where_l_ab_over_epsilon_leaves_float64():
    params = SystemParams(a=np.diag([1.0, 0.5]), b=np.eye(2), n=64)
    with pytest.raises(ValueError, match=r"^l_ab / run\.epsilon at run\.epsilon = 1e-320 is beyond"):
        cr_bound(params, 1e-320, grid_points=128)
    assert math.isfinite(cr_bound(params, 1e-300, grid_points=128).delta1)


def test_cr_bound_names_run_constant_c_where_its_square_leaves_float64():
    # Delta1 is about 1: (1 + C Delta1)^2 fits float64 at C = 1e153, not at 1e154
    params = SystemParams(a=np.diag([1.0, 0.5]), b=np.eye(2), n=64)
    assert cr_bound(params, 0.1, 1e153, grid_points=128).mse_lower > 0.0
    with pytest.raises(
        ValueError, match=r"^\(1 \+ C Delta1\)\^2 at run\.constant_c = 1e\+154 is beyond the float64 range"
    ):
        cr_bound(params, 0.1, 1e154, grid_points=128)


def test_no_limit_hand_threshold():
    params = scalar_params(0.5, n=500)
    bound = explicit_bound(params, 0.1)
    assert bound.n_min == 461
    assert bound.mse_lower == pytest.approx((0.9 / 1.1) ** 2 / phi(0.25, 500))


def test_no_limit_small_epsilon_limit():
    params = scalar_params(0.5, n=100)
    mse = explicit_bound(params, 1e-6).mse_lower
    assert mse == pytest.approx(1.0 / phi(0.25, 100), rel=1e-4)


def test_no_limit_below_ideal_scalarization():
    params = scalar_params(0.5, n=64)
    mse = explicit_bound(params, 0.1).mse_lower
    assert mse < 1.0 / phi(0.25, 64)


def test_with_limit_pure_rotation():
    params = SystemParams(a=rotation(0.3), b=np.eye(2), n=16)
    bound = explicit_bound(params, 0.1)
    assert bound.n_min == 2  # no stable/unstable gap terms
    assert bound.delta_eps >= params.d
    assert bound.mse_lower > 0


def test_with_limit_mixed_block():
    a = np.zeros((3, 3))
    a[0, 0] = 0.5
    a[1:, 1:] = rotation(0.4)
    params = SystemParams(a=a, b=np.eye(3), n=16)
    bound = explicit_bound(params, 0.1)
    assert np.isfinite(bound.delta_eps) and bound.mse_lower > 0
    assert bound.n_min == math.ceil(2.0 / (1.0 - 0.25))


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
        delta_eps = explicit_bound(params, float(g.uniform(0.05, 0.5))).delta_eps
        assert params.d / delta_eps <= 1.0


def test_phi_saturates_instead_of_raising():
    assert phi(2.0, 2000) == float("inf")
    assert phi(1.5, 64) == pytest.approx(1.5**64 / 0.25)
