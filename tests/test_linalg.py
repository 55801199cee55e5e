import numpy as np
import pytest

from ltibounds.linalg import (
    eig_sym,
    haar_from_gaussian,
    haar_orthogonal,
    is_psd_dominated,
    schatten_norm,
    svd,
    sym_inv_sqrt,
    validate_matrix,
)
from ltibounds.rng import Stream


def test_validate_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        validate_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        validate_matrix(np.array([[np.inf]]))


# ---------------------------------------------------------------------------
# svd
# ---------------------------------------------------------------------------


def test_svd_identity():
    r = svd(np.eye(3))
    assert np.allclose(r.sigma, [1.0, 1.0, 1.0])


def test_svd_diagonal_with_sign():
    m = np.diag([3.0, -2.0])
    r = svd(m)
    assert np.allclose(r.sigma, [3.0, 2.0])
    assert np.allclose(r.reconstruct(), m, atol=1e-12)


def test_svd_permutation_exact():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    r = svd(m)
    assert np.allclose(r.sigma, [1.0, 1.0])
    assert np.allclose(r.reconstruct(), m, atol=1e-14)


def test_svd_rejects_nonsquare():
    with pytest.raises(ValueError):
        svd(np.ones((2, 3)))


def test_svd_invariants_random():
    # reconstruction, orthogonality, ordering and the sign convention on a
    # large random sample
    g = Stream(101).generator()
    worst = 0.0
    for _ in range(10_000):
        d = int(g.integers(1, 9))
        m = g.uniform(-10.0, 10.0, size=(d, d))
        r = svd(m)
        delta = np.linalg.norm(r.reconstruct() - m) / max(np.linalg.norm(m), 1e-30)
        worst = max(worst, delta)
        assert np.max(np.abs(r.u @ r.u.T - np.eye(d))) < 1e-12
        assert np.max(np.abs(r.v @ r.v.T - np.eye(d))) < 1e-12
        assert np.all(r.sigma >= 0)
        assert np.all(np.diff(r.sigma) <= 1e-300 + 0.0)  # nonincreasing
        for j in range(d):
            i = int(np.argmax(np.abs(r.u[:, j])))
            assert r.u[i, j] >= 0
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# schatten_norm
# ---------------------------------------------------------------------------


def test_schatten_identity():
    assert schatten_norm(np.eye(4), 2) == pytest.approx(2.0)
    assert schatten_norm(np.eye(4), np.inf) == pytest.approx(1.0)


def test_schatten_diagonal():
    m = np.diag([3.0, 4.0])
    assert schatten_norm(m, np.inf) == pytest.approx(4.0)
    assert schatten_norm(m, 2) == pytest.approx(5.0)
    assert schatten_norm(m, 4) == pytest.approx((3.0**4 + 4.0**4) ** 0.25)


def test_schatten_rejects_bad_order():
    with pytest.raises(ValueError):
        schatten_norm(np.eye(2), 3)


def test_schatten_norm_ordering():
    g = Stream(102).generator()
    for _ in range(300):
        d = int(g.integers(1, 7))
        m = g.standard_normal((d, d))
        inf = schatten_norm(m, np.inf)
        s4 = schatten_norm(m, 4)
        s2 = schatten_norm(m, 2)
        assert inf <= s4 + 1e-12
        assert s4 <= s2 + 1e-12


# ---------------------------------------------------------------------------
# is_psd_dominated
# ---------------------------------------------------------------------------


def test_psd_dominated_simple():
    eye = np.eye(3)
    assert is_psd_dominated(eye, 2 * eye, 0.0)
    assert not is_psd_dominated(2 * eye, eye, 0.0)
    assert is_psd_dominated(eye, eye, 0.0)


def test_psd_dominated_rejects_asymmetric():
    with pytest.raises(ValueError):
        is_psd_dominated(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))


def test_psd_partial_order_properties():
    g = Stream(103).generator()
    mats = []
    for _ in range(6):
        r = g.standard_normal((3, 3))
        mats.append(r @ r.T)
    tol = 1e-10
    for m in mats:
        assert is_psd_dominated(m, m, tol)  # reflexive
    for a in mats:
        for b in mats:
            if is_psd_dominated(a, b, tol) and is_psd_dominated(b, a, tol):
                # antisymmetric up to tol
                assert np.max(np.abs(a - b)) < 1e-6 or np.allclose(a, b)
            for c in mats:
                if is_psd_dominated(a, b, tol) and is_psd_dominated(b, c, tol):
                    assert is_psd_dominated(a, c, 1e2 * tol)  # transitive


# ---------------------------------------------------------------------------
# sym_inv_sqrt
# ---------------------------------------------------------------------------


def test_sym_inv_sqrt_scaled_identity():
    assert np.allclose(sym_inv_sqrt(4.0 * np.eye(2)), 0.5 * np.eye(2))


def test_sym_inv_sqrt_diagonal():
    assert np.allclose(sym_inv_sqrt(np.diag([1.0, 9.0])), np.diag([1.0, 1.0 / 3.0]))


def test_sym_inv_sqrt_round_trip():
    g = Stream(104).generator()
    for _ in range(50):
        d = int(g.integers(1, 7))
        q = np.linalg.qr(g.standard_normal((d, d)))[0]
        r = q @ np.diag(g.uniform(0.3, 3.0, size=d)) @ q.T
        r = 0.5 * (r + r.T)
        m = np.linalg.inv(r @ r)
        m = 0.5 * (m + m.T)
        got = sym_inv_sqrt(m)
        assert np.linalg.norm(got @ m @ got - np.eye(d)) < 1e-10
        assert np.linalg.norm(got - r) / np.linalg.norm(r) < 1e-8


def test_sym_inv_sqrt_rejects_indefinite():
    with pytest.raises(ValueError):
        sym_inv_sqrt(np.diag([1.0, -1.0]))


def test_sym_inv_sqrt_error_names_the_failed_condition():
    with pytest.raises(ValueError, match=r"not positive definite: smallest eigenvalue -1\.000e\+00"):
        sym_inv_sqrt(np.diag([1.0, -1.0]))
    # positive definite, but the eigenvalue ratio is at the rtol cut
    with pytest.raises(ValueError, match=r"eigenvalue ratio 1\.000e-12 <= rtol 1\.0e-12"):
        sym_inv_sqrt(np.diag([1e-12, 1.0]))
    assert np.isfinite(sym_inv_sqrt(np.diag([2e-12, 1.0]))).all()


# ---------------------------------------------------------------------------
# haar_orthogonal
# ---------------------------------------------------------------------------


def test_haar_dimension_one_is_plus_one():
    for k in range(20):
        u = haar_orthogonal(1, Stream(105).child(k))
        assert np.allclose(u, [[1.0]])


def test_haar_orthogonality():
    for k in range(200):
        u = haar_orthogonal(4, Stream(106).child(k))
        assert np.max(np.abs(u @ u.T - np.eye(4))) < 1e-12


def test_haar_first_row_norm_mean():
    # rows are unit vectors, so |row 1|^2 = 1 exactly; checked as stated
    draws = np.array(
        [np.sum(haar_orthogonal(3, Stream(107).child(k))[0] ** 2) for k in range(2000)]
    )
    assert np.allclose(draws, 1.0, atol=1e-12)


def test_haar_entry_square_mean():
    # for d=2 the (1,1) entry is cos(theta) with theta uniform: E cos^2 = 1/2
    n = 100_000
    z = Stream(108).generator().standard_normal((n, 2, 2))
    vals = haar_from_gaussian(z)[:, 0, 0] ** 2
    se = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean() - 0.5) < 3 * se


def _haar_reference(z: np.ndarray, canonical_signs: bool) -> np.ndarray:
    """Per-matrix QR, R-diagonal sign fix and column-by-column sign convention."""
    q, r = np.linalg.qr(z)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs
    if canonical_signs:
        for j in range(q.shape[1]):
            i = int(np.argmax(np.abs(q[:, j])))
            if q[i, j] < 0:
                q[:, j] = -q[:, j]
    return q


@pytest.mark.parametrize("canonical_signs", [True, False])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_haar_from_gaussian_matches_per_matrix_loop(d, canonical_signs):
    z = Stream(109).child(d).generator().standard_normal((64, d, d))
    got = haar_from_gaussian(z, canonical_signs=canonical_signs)
    want = np.stack([_haar_reference(m, canonical_signs) for m in z])
    assert np.array_equal(got, want)


def test_haar_orthogonal_is_batch_of_one():
    z = Stream(110).generator().standard_normal((1, 3, 3))
    assert np.array_equal(haar_orthogonal(3, Stream(110)), haar_from_gaussian(z)[0])


def test_haar_from_gaussian_rejects_non_square_stack():
    with pytest.raises(ValueError):
        haar_from_gaussian(np.ones((2, 3)))
    with pytest.raises(ValueError):
        haar_from_gaussian(np.ones((2, 3, 2)))


# ---------------------------------------------------------------------------
# eig_sym
# ---------------------------------------------------------------------------


def test_eig_sym_diagonal():
    w, _ = eig_sym(np.diag([2.0, 5.0]))
    assert np.allclose(w, [2.0, 5.0])


def test_eig_sym_identity():
    w, _ = eig_sym(np.eye(3))
    assert np.allclose(w, 1.0)


def test_eig_sym_hand_case():
    # char. polynomial of [[2,1],[1,2]] gives eigenvalues 1 and 3
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    w, v = eig_sym(m)
    assert np.allclose(w, [1.0, 3.0])
    for i in range(2):
        assert np.linalg.norm(m @ v[:, i] - w[i] * v[:, i]) < 1e-10


def test_eig_sym_rejects_asymmetric():
    with pytest.raises(ValueError):
        eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))
