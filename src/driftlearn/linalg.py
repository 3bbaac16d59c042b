"""Dense symmetric-matrix kernels shared by all learners.

Everything here operates on plain float64 numpy arrays: square symmetric
matrices and 1-d vectors. Matrices handed to a solve or log-det must be
SPD; failure raises :class:`~driftlearn.errors.NotPositiveDefinite` rather
than returning garbage. Dimensions stay small (d of a few hundred at most),
so Cholesky serves every solve, and QR and triangular solves the
square-root information form of `laser`. `laser` certifies through
`tri_inverse` at every d, and through `_cholesky` from d = `laser.MEMBERWISE_D`
on; below it one batched `np.linalg.cholesky` costs less than a call per member.
"""

import math

import numpy as np
import scipy.linalg

from .errors import DimMismatch, NotPositiveDefinite

def as_matrix(A) -> np.ndarray:
    """Validate and return A as a square float64 matrix."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    return A


def as_vector(v, dim: int | None = None) -> np.ndarray:
    """Validate and return v as a 1-d float64 vector, optionally of length dim."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise DimMismatch(f"expected a 1-d vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimMismatch(f"expected length {dim}, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise ValueError("vector has non-finite entries")
    return v


def symmetrize(A: np.ndarray) -> np.ndarray:
    """(A + A^T)/2, of each matrix in a stack. Applied after every update;
    recursions are exactly symmetric but floating point drifts."""
    return 0.5 * (A + A.mT)


def add_to_diagonal(A: np.ndarray, v, where=True) -> None:
    """A[..., i, i] += v in place where where holds, for a C-contiguous square
    matrix or stack; v and where broadcast against the (..., d) diagonals."""
    if not A.flags.c_contiguous:  # reshape would copy, losing the update
        raise ValueError("add_to_diagonal needs a C-contiguous array")
    diag = A.reshape(A.shape[:-2] + (A.shape[-1] ** 2,))[..., :: A.shape[-1] + 1]
    np.add(diag, v, out=diag, where=where)


def _cholesky(A: np.ndarray, clean: bool = False) -> np.ndarray:
    """Lower Cholesky factor of A (the strict upper triangle is cleared only
    with clean), straight from LAPACK potrf: scipy's cho_factor/cho_solve
    wrappers cost several times the factorization itself at small d. potrf
    lets inf and NaN entries through to the diagonal, whose square roots sum
    to a finite trace exactly when each is finite; summed as a list, since a
    numpy reduction costs more than potrf itself at small d."""
    L, info = scipy.linalg.lapack.dpotrf(A, lower=1, clean=clean)
    if info != 0 or not math.isfinite(sum(L.diagonal().tolist())):
        raise NotPositiveDefinite(f"no finite Cholesky factor (potrf info {info})")
    return L


def factors(A: np.ndarray) -> bool:
    """Whether _cholesky factorizes symmetric A, reading its lower triangle."""
    L, info = scipy.linalg.lapack.dpotrf(A, lower=1, clean=0)
    return info == 0 and math.isfinite(sum(L.diagonal().tolist()))


def cholesky_upper(A: np.ndarray) -> np.ndarray:
    """Upper-triangular U with A = U U^T (the strict lower triangle is not
    cleared): the Cholesky factor of A reversed in rows and columns."""
    return _cholesky(A[::-1, ::-1])[::-1, ::-1]


def tri_solve(R: np.ndarray, B: np.ndarray, trans: int = 0) -> np.ndarray:
    """Solve R Z = B, or R^T Z = B with trans=1, for upper-triangular R
    (its strict lower triangle is not read), straight from LAPACK trtrs."""
    Z, info = scipy.linalg.lapack.dtrtrs(R, B, lower=0, trans=trans)
    if info != 0:
        raise NotPositiveDefinite(f"triangular factor is singular (trtrs info {info})")
    return Z


def tri_inverse(L: np.ndarray) -> np.ndarray:
    """L^{-1} for lower-triangular L, straight from LAPACK trtri; the strict
    upper triangle is copied from L, so a cleared one stays zero."""
    Z, info = scipy.linalg.lapack.dtrtri(L, lower=1)
    if info != 0:
        raise NotPositiveDefinite(f"triangular factor is singular (trtri info {info})")
    return Z


def qr_stacked(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """R of the QR of [A; B], for A (n, n) upper triangular and B (m, n)
    upper trapezoidal, straight from LAPACK tpqrt: only the upper triangle
    of A is read or written. Block size 16: unblocked is slower at n > 64."""
    R, _, _, info = scipy.linalg.lapack.dtpqrt(B.shape[0], min(A.shape[0], 16), A, B,
                                               overwrite_a=1, overwrite_b=1)
    if info != 0:
        raise ValueError(f"tpqrt failed (info {info})")
    return R


def _cho_solve(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    Z, info = scipy.linalg.lapack.dpotrs(L, B, lower=1)
    if info != 0:
        raise ValueError(f"potrs failed (info {info})")
    return Z


def spd_solve(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Solve A z = v for SPD A via Cholesky.

    Raises NotPositiveDefinite if the factorization fails and DimMismatch
    if shapes disagree.
    """
    A = as_matrix(A)
    v = as_vector(v, A.shape[0])
    return _cho_solve(_cholesky(A), v)


def spd_solve_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve A Z = B for SPD A and a matrix right-hand side."""
    A = as_matrix(A)
    B = as_matrix(B)
    if B.shape[0] != A.shape[0]:
        raise DimMismatch(f"rhs rows {B.shape[0]} != dim {A.shape[0]}")
    return _cho_solve(_cholesky(A), B)


def spd_inverse(A: np.ndarray) -> np.ndarray:
    """Inverse of SPD A (one solve against the identity), symmetrized."""
    A = as_matrix(A)
    return symmetrize(_cho_solve(_cholesky(A), np.eye(A.shape[0])))


def logdet(A: np.ndarray) -> float:
    """ln det(A) for SPD A."""
    A = as_matrix(A)
    return float(2.0 * np.sum(np.log(np.diag(_cholesky(A)))))


def eig_extremes(A: np.ndarray) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a symmetric matrix."""
    A = as_matrix(A)
    w = np.linalg.eigvalsh(symmetrize(A))
    return float(w[0]), float(w[-1])
