"""Dense complex linear-algebra kernels shared across the package.

Everything operates on double-precision complex numpy arrays. Storage is
dense throughout: the dimensions of interest (a few hundred at most) never
justify sparse formats.

The positive-definite kernels call LAPACK's ``zposv`` (``hpd_solve``, and
``cholesky`` with no right-hand side) and ``zpotrs`` (``cholesky_solve``)
through ``ctypes``, in the OpenBLAS that numpy's own linear-algebra extension
links, so the package loads no second LAPACK. The numpy wheels bundle it as a
64-bit-integer (ILP64) build whose symbols carry a ``scipy_`` prefix and a
``64_`` suffix.
"""

import ctypes
import math
import threading

import numpy as np
from numpy.linalg import _umath_linalg

__all__ = [
    "NumericalError",
    "require_hermitian",
    "eigh_descending",
    "hpd_solve",
    "cholesky",
    "cholesky_solve",
    "covariance_factor",
    "complex_standard_normal",
]

HERMITIAN_RTOL = 1e-12
# absolute fallback when the reference scale is zero
_ABS_FLOOR = 1e-12


class NumericalError(RuntimeError):
    """A numerically well-posed routine failed on the data it was given."""


# Symbol lookup through this handle also searches the libraries the extension
# links, numpy's bundled OpenBLAS among them.
_NUMPY_LINALG = ctypes.CDLL(_umath_linalg.__file__)


def _openblas(name: str):
    """The routine ``name`` of numpy's OpenBLAS."""
    try:
        return getattr(_NUMPY_LINALG, name)
    except AttributeError:
        raise ImportError(f"numpy's OpenBLAS does not export {name}") from None


def _lapack(name: str):
    """The Fortran routine ``name`` of numpy's OpenBLAS, taking zposv's
    arguments: a one-character option, seven addresses (every integer is a
    64-bit int passed by address) and the option's hidden ``size_t`` length."""
    routine = _openblas(f"scipy_{name}_64_")
    routine.argtypes = [ctypes.c_char_p] + [ctypes.c_void_p] * 7 + [ctypes.c_size_t]
    routine.restype = None
    return routine


_zposv, _zpotrs = _lapack("zposv"), _lapack("zpotrs")
# One thread for the whole process, whatever the environment or import order:
# threaded zgemm, zposv and zheevd round differently at each thread count.
_openblas("scipy_openblas_set_num_threads64_")(1)
# The integer arguments, allocated once and passed by address. A LAPACK call
# releases the interpreter lock, so the lock keeps two threads from sharing them.
_N, _NRHS, _LD, _INFO = (ctypes.c_int64() for _ in range(4))
_N_P, _NRHS_P, _LD_P, _INFO_P = (ctypes.addressof(v) for v in (_N, _NRHS, _LD, _INFO))
_ARGS_LOCK = threading.Lock()


def require_hermitian(a, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is square, finite and Hermitian within tolerance.

    Returns the exactly Hermitian symmetrization (a + a^H)/2 so downstream
    factorizations see a clean input.

    Raises:
        ValueError: if ``a`` is not two-dimensional, not square, or deviates
            from Hermitian symmetry by more than ``HERMITIAN_RTOL * max|a|``.
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
    if deviation > max(HERMITIAN_RTOL * scale, _ABS_FLOOR):
        raise ValueError(
            f"{name} is not Hermitian: max asymmetry {deviation:.3e} "
            f"exceeds {HERMITIAN_RTOL:g} of scale {scale:.3e}"
        )
    return 0.5 * (a + a.conj().T)


def _eigh(h) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh``, with a failure to converge raised as NumericalError."""
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed to converge: {exc}") from exc


def eigh_descending(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian ``h``, sorted by descending eigenvalue.

    Unchecked: ``h`` must already be exactly Hermitian and finite (the output
    of :func:`require_hermitian`, or Hermitian by construction). Returns
    ``(values, vectors)``: eigenvalues nonincreasing, and the matching
    orthonormal eigenvectors as the columns of ``vectors``, so that
    ``h ≈ vectors @ diag(values) @ vectors^H``.
    """
    values, vectors = _eigh(h)
    return values[::-1], vectors[:, ::-1]


def _upper_call(routine, a: np.ndarray, b) -> np.ndarray:
    """``b`` solved by ``routine`` in a new column-major copy: ``_zposv``, which
    also overwrites the column-major ``a`` with its upper factor, or ``_zpotrs``."""
    x = np.array(b, dtype=complex, order="F")
    if a.ndim != 2 or x.ndim not in (1, 2) or not a.shape[0] == a.shape[1] == x.shape[0]:
        raise ValueError(f"cannot solve: need a square matrix and matching rows, got {a.shape}, {x.shape}")
    with _ARGS_LOCK:
        _N.value, _LD.value = a.shape[0], max(a.shape[0], 1)
        _NRHS.value = 1 if x.ndim == 1 else x.shape[1]
        routine(b"U", _N_P, _NRHS_P, a.ctypes.data, _LD_P, x.ctypes.data, _LD_P, _INFO_P, 1)
        info = _INFO.value
    if info > 0:
        raise NumericalError(f"matrix is not positive definite: Cholesky pivot {info} failed")
    if info < 0:
        raise NumericalError(f"LAPACK rejected argument {-info}")
    return x


def hpd_solve(h, b) -> np.ndarray:
    """Solve h x = b for a Hermitian positive-definite ``h`` in one LAPACK
    call, bit for bit ``cholesky_solve(cholesky(h), b)``; ``b`` may be a
    vector or a matrix of stacked right-hand sides.

    Unchecked: ``h`` must already be exactly Hermitian and finite (the output
    of :func:`require_hermitian`, or Hermitian by construction); only its
    upper triangle is read. Neither argument is written to.

    Raises:
        NumericalError: if ``h`` is not positive definite, naming the failing
            pivot (1-based).
    """
    return _upper_call(_zposv, np.array(h, dtype=complex, order="F"), b)


def cholesky(h) -> np.ndarray:
    """Upper Cholesky factor U of ``h`` = U^H U, made and checked as in
    :func:`hpd_solve`, for :func:`cholesky_solve` to reuse. A new column-major
    array, whose strict lower triangle is left as ``h`` had it."""
    factor = np.array(h, dtype=complex, order="F")
    _upper_call(_zposv, factor, np.empty(factor.shape[:1] + (0,)))
    return factor


def cholesky_solve(factor: np.ndarray, b) -> np.ndarray:
    """Solve U^H U x = b with the upper factor U from :func:`cholesky`, for a
    vector or stacked ``b``; neither argument is written to."""
    return _upper_call(_zpotrs, np.asarray(factor, dtype=complex, order="F"), b)


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

    Unchecked: ``r`` must already be exactly Hermitian and finite (a
    ``scene.CovarianceSet`` matrix).

    Raises:
        NumericalError: if an eigenvalue is negative beyond tolerance
            (1e-10 of the largest eigenvalue).
    """
    values, vectors = _eigh(r)
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
