"""Dense complex linear-algebra kernels shared across the package.

Everything operates on double-precision complex numpy arrays. Storage is
dense row-major throughout: the dimensions of interest (a few hundred at
most) never justify sparse formats.
"""

import math

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import zpotrf

__all__ = [
    "NumericalError",
    "require_hermitian",
    "hermitian_evd",
    "hpd_solve",
    "hankel_from_vector",
    "covariance_factor",
    "complex_standard_normal",
]

HERMITIAN_RTOL = 1e-12
# absolute fallback when the reference scale is zero
_ABS_FLOOR = 1e-12


class NumericalError(RuntimeError):
    """A numerically well-posed routine failed on the data it was given."""


def require_hermitian(a, rtol: float = HERMITIAN_RTOL, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is square, finite and Hermitian within tolerance.

    Returns the exactly Hermitian symmetrization (a + a^H)/2 so downstream
    factorizations see a clean input.

    Raises:
        ValueError: if ``a`` is not two-dimensional, not square, or deviates
            from Hermitian symmetry by more than ``rtol * max|a|``.
        NumericalError: if ``a`` has a NaN or infinite entry.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {a.shape}")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    scale = float(np.abs(a).max()) if a.size else 0.0
    if not math.isfinite(scale):
        raise NumericalError(f"{name} has a non-finite entry")
    deviation = float(np.abs(a - a.conj().T).max()) if a.size else 0.0
    if deviation > max(rtol * scale, _ABS_FLOOR):
        raise ValueError(
            f"{name} is not Hermitian: max asymmetry {deviation:.3e} "
            f"exceeds {rtol:g} of scale {scale:.3e}"
        )
    return 0.5 * (a + a.conj().T)


def hermitian_evd(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, sorted by descending eigenvalue.

    Args:
        a: square Hermitian matrix (validated within tolerance).

    Returns:
        ``(values, vectors)``: eigenvalues nonincreasing, and the matching
        orthonormal eigenvectors as the columns of ``vectors``, so that
        ``a ≈ vectors @ diag(values) @ vectors^H``.
    """
    h = require_hermitian(a)
    try:
        values, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed to converge: {exc}") from exc
    return values[::-1], vectors[:, ::-1]


def hpd_solve(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` for Hermitian positive-definite ``a`` via Cholesky.

    ``b`` may be a vector or a matrix of stacked right-hand sides.

    Raises:
        NumericalError: if ``a`` has a non-finite entry or is not positive
            definite; in the second case the message names the failing
            Cholesky pivot (1-based).
    """
    h = require_hermitian(a)
    rhs = np.asarray(b, dtype=complex)
    if rhs.shape[0] != h.shape[0]:
        raise ValueError(
            f"right-hand side length {rhs.shape[0]} does not match matrix size {h.shape[0]}"
        )
    factor, info = zpotrf(h, lower=0, clean=0, overwrite_a=0)
    if info > 0:
        raise NumericalError(f"matrix is not positive definite: Cholesky pivot {info} failed")
    if info < 0:
        raise NumericalError(f"Cholesky factorization rejected argument {-info}")
    return cho_solve((factor, False), rhs, check_finite=False)


def hankel_from_vector(x, width: int) -> np.ndarray:
    """Hankel matrix whose (m, i) entry is x[m+i], zero once m+i runs past the end.

    Args:
        x: length-M vector.
        width: number of columns, 1 <= width <= M.

    Returns:
        M x width matrix with constant anti-diagonals and zero fill below the
        main anti-diagonal.
    """
    vec = np.asarray(x, dtype=complex)
    if vec.ndim != 1 or vec.size == 0:
        raise ValueError("input must be a nonempty vector")
    m = vec.size
    if not 1 <= width <= m:
        raise ValueError(f"width must be in [1, {m}], got {width}")
    padded = np.concatenate([vec, np.zeros(width - 1, dtype=complex)])
    idx = np.arange(m)[:, None] + np.arange(width)[None, :]
    return padded[idx]


def covariance_factor(r) -> np.ndarray:
    """Hermitian principal square root F of a Hermitian PSD ``r``: F @ F = F @ F^H = r.

    Computed as V sqrt(L) V^H from the eigendecomposition r = V L V^H. It is
    the unique Hermitian PSD square root of ``r``, so unlike V sqrt(L) it does
    not depend on which basis LAPACK returns inside a repeated eigenvalue's
    eigenspace: draws made with it depend only on the covariance and the
    generator, not on the LAPACK build or the BLAS thread count. Cholesky is
    not used because PSD input may be exactly rank-deficient (structured
    interference, or an all-zero covariance).
    Eigenvalues below 1e-12 of the largest are clamped to zero.

    Raises:
        NumericalError: if an eigenvalue is negative beyond tolerance
            (1e-10 of the largest eigenvalue).
    """
    h = require_hermitian(r, name="covariance")
    try:
        values, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed to converge: {exc}") from exc
    top = max(float(values.max()), 0.0) if values.size else 0.0
    if values.size and float(values.min()) < -1e-10 * max(top, _ABS_FLOOR):
        raise NumericalError(
            f"covariance has negative eigenvalue {values.min():.3e} beyond tolerance"
        )
    clamped = np.where(values < 1e-12 * top, 0.0, values)
    return (vectors * np.sqrt(clamped)) @ vectors.conj().T


def complex_standard_normal(rng: np.random.Generator, shape=()) -> np.ndarray:
    """Circular complex standard normal draws: E[z z*] = 1 per entry."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
