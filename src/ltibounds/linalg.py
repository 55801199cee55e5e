"""Dense real-matrix primitives shared by the model, bound, and prior code.

Two conventions are fixed here once and used everywhere else:

* singular values are stored in nonincreasing order;
* SVD factors are made unique by forcing the entry of largest magnitude in
  each left-singular column to be nonnegative, pushing the signs into V.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import as_generator

SYMMETRY_RTOL = 1e-10
INV_SQRT_RTOL = 1e-12  # sym_inv_sqrt needs smallest/largest eigenvalue above this


def validate_matrix(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return ``m`` as a float 2-D array, rejecting NaN/Inf entries."""
    out = np.asarray(m, dtype=float)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} has non-finite entries")
    return out


def validate_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    out = validate_matrix(m, name)
    if out.shape[0] != out.shape[1]:
        raise ValueError(f"{name} must be square, got shape {out.shape}")
    return out


def require_symmetric(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    out = validate_square(m, name)
    scale = 1.0 + np.max(np.abs(out))
    if np.max(np.abs(out - out.T)) > SYMMETRY_RTOL * scale:
        raise ValueError(f"{name} is not symmetric within tolerance")
    return out


@dataclass(frozen=True)
class SvdResult:
    """Factors of m = u @ diag(sigma) @ v.T with sigma nonincreasing."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.u @ (self.sigma[:, None] * self.v.T)


def _canonical_column_signs(u: np.ndarray) -> np.ndarray:
    """Signs (+1/-1) making the largest-magnitude entry of each column of u >= 0.

    Works on one matrix or a stack; the result has u's shape without the row
    axis, one sign per column.
    """
    rows = np.argmax(np.abs(u), axis=-2)[..., None, :]
    peak = np.take_along_axis(u, rows, axis=-2)[..., 0, :]
    return np.where(peak < 0, -1.0, 1.0)


def svd(m: np.ndarray) -> SvdResult:
    """Singular value decomposition of a square matrix with canonical signs."""
    m = validate_square(m, "svd input")
    try:
        u, s, vt = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological input
        raise np.linalg.LinAlgError(f"SVD failed to converge: {exc}") from exc
    signs = _canonical_column_signs(u)
    return SvdResult(u=u * signs, sigma=s, v=vt.T * signs)


def sym_inv_sqrt(m: np.ndarray) -> np.ndarray:
    """Inverse square root of a symmetric positive definite matrix."""
    m = require_symmetric(m, "sym_inv_sqrt input")
    w, v = np.linalg.eigh(m)
    if w[0] <= 0.0:
        raise ValueError(f"matrix is not positive definite: smallest eigenvalue {w[0]:.3e}")
    if w[0] <= INV_SQRT_RTOL * w[-1]:
        raise ValueError(
            f"matrix is too ill-conditioned: smallest/largest eigenvalue ratio "
            f"{w[0] / w[-1]:.3e} <= rtol {INV_SQRT_RTOL:.1e} (eigenvalues {w[0]:.3e}..{w[-1]:.3e})"
        )
    r = (v / np.sqrt(w)) @ v.T
    return 0.5 * (r + r.T)


def haar_from_gaussian(z: np.ndarray, *, canonical_signs: bool = True) -> np.ndarray:
    """Haar orthogonal matrices from a stack ``z`` of standard Gaussian matrices.

    One stacked QR with R-diagonal sign correction; slice k depends on
    ``z[k]`` alone. With ``canonical_signs`` the column-sign uniqueness
    convention is applied on top (largest-magnitude entry of each column
    nonnegative), so the law is Haar modulo column signs; pass False for the
    plain Haar draw.
    """
    if z.ndim != 3 or z.shape[1] != z.shape[2] or z.shape[1] < 1:
        raise ValueError(f"z must be a stack of square matrices, got shape {z.shape}")
    q, r = np.linalg.qr(z)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    q = q * signs[:, None, :]
    if canonical_signs:
        q = q * _canonical_column_signs(q)[:, None, :]
    return q


def haar_orthogonal(d: int, rng, *, canonical_signs: bool = True) -> np.ndarray:
    """One Haar orthogonal d x d matrix: :func:`haar_from_gaussian` of one draw."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    z = as_generator(rng).standard_normal((1, d, d))
    return haar_from_gaussian(z, canonical_signs=canonical_signs)[0]
