"""Quantized uplink data phase and MMSE multiuser detection.

With every AP quantizing at the same bit depth, the forwarded vector obeys
the linearized model y = alpha*G*s + alpha*n + d, where the distortion d
has a diagonal covariance set by the per-AP received variance.  The
central unit applies the MMSE receiver for this model.  One K x K kernel
serves receiver, error covariance and SINR: it factors the Hermitian
positive definite information matrix by Cholesky and inverts the factor,
giving an upper-triangular Y with Y*Y^H the error covariance.  Per-user
SINR reads only the error variances, the squared row norms of Y, so the
campaign never forms the covariance.  The legacy receiver, whose noise
term is not scaled by alpha**2, gets its error covariance from the same
kernel without being formed.

The kernel calls LAPACK's zherk, zpotrf and ztrtri through ctypes in the
OpenBLAS that numpy bundles, so no array wrapper runs per call and the
interpreter lock is released while they run.  Where numpy has no such
library, it takes the inverse of numpy's Cholesky factor instead.
"""

import ctypes
from collections import namedtuple
from functools import cache
from pathlib import Path

import numpy as np

from .channel import _check_powers, complex_normal, received_variance
from .quantizer import distortion_power, fronthaul

__all__ = [
    "simulate_uplink",
    "distortion_covariance",
    "mmse_weights",
    "error_covariance",
    "error_variances",
    "per_user_sinr",
]


def simulate_uplink(G, symbols, sigma_s2, sigma_n2, bits, rng, beta):
    """Uplink observation as forwarded over a ``bits``-bit fronthaul,
    shape (M,) or (..., M, T).

    ``symbols`` holds one transmit vector (K,) or blocks (..., K, T) of
    power sigma_s2; ``G`` may carry the same leading trial axes.  Receiver
    noise of variance sigma_n2 is drawn from ``rng`` and each AP quantizes at
    the step optimal for its data-phase variance sigma_s2 * sum_k beta_mk +
    sigma_n2, from the large-scale gains ``beta``; ``bits == 0`` leaves the
    samples unquantized.
    """
    _check_powers(sigma_n2, sigma_s2)
    symbols = np.asarray(symbols)
    vector = symbols.ndim == 1
    x = (G @ (symbols[:, None] if vector else symbols)).astype(complex, copy=False)
    complex_normal(rng, x.shape, np.sqrt(sigma_n2 / 2.0), add_to=x)
    y = fronthaul(x, bits, received_variance(beta, sigma_s2, sigma_n2), out=x)
    return y[:, 0] if vector else y


def distortion_covariance(beta, gap, sigma_s2, sigma_n2):
    """Diagonal of the quantization distortion covariance, shape (M,).

    Entry m is the row's gap gamma - alpha**2 (``bussgang_row``) times the
    received variance at AP m; the distortion is uncorrelated across APs, so
    the diagonal fully describes the covariance.  All entries are zero in
    the distortion-free limit gap == 0.
    """
    return distortion_power(gap, received_variance(beta, sigma_s2, sigma_n2))


# Symbol, argument types and result type of each routine.  The BLAS and
# LAPACK routines take ILP64 integers and scalars by pointer, and trailing
# hidden lengths of their character arguments.
_P, _CHAR, _LEN = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_size_t
_SYMBOLS = {
    "get_num_threads": ("scipy_openblas_get_num_threads64_", [], ctypes.c_int),
    "set_num_threads": ("scipy_openblas_set_num_threads64_", [ctypes.c_int], None),
    "zherk": ("scipy_zherk_64_", [_CHAR, _CHAR] + [_P] * 8 + [_LEN] * 2, None),
    "zpotrf": ("scipy_zpotrf_64_", [_CHAR] + [_P] * 4 + [_LEN], None),
    "ztrtri": ("scipy_ztrtri_64_", [_CHAR, _CHAR] + [_P] * 4 + [_LEN] * 2, None),
}
_OpenBLAS = namedtuple("_OpenBLAS", _SYMBOLS)


@cache
def _openblas():
    """The ``scipy_openblas64_`` library that numpy wheels bundle in
    ``numpy.libs``, opened once: its thread-count functions and the three
    routines of the receiver kernel, or None where numpy has no such library
    (numpy 1.x wheels, MKL or Accelerate builds)."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("lib*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        if not all(hasattr(lib, symbol) for symbol, _, _ in _SYMBOLS.values()):
            continue
        routines = {}
        for name, (symbol, argtypes, restype) in _SYMBOLS.items():
            fn = getattr(lib, symbol)
            fn.argtypes, fn.restype = argtypes, restype
            routines[name] = fn
        return _OpenBLAS(**routines)
    return None


def _inverse_factor(G, alpha, sigma_s2, b):
    """Upper-triangular Y, shape (..., K, K), with Y*Y^H the information-form inverse
    (I/sigma_s2 + alpha**2 * G^H * diag(b)^-1 * G)^-1, for b (..., M) and ``alpha``
    scalar or (..., 1): the one kernel behind the MMSE receiver, its error covariance
    and the error variances.  Real when G is real; on the numpy fallback, triangular
    only up to rounding.

    For each b, S = diag(b)^-1/2 * G is formed in C order, so that LAPACK's column
    order sees S^T: zherk adds alpha**2 * S^T * conj(S), the conjugate information
    matrix, onto I/sigma_s2 in the lower triangle, zpotrf factors it as L*L^H and
    ztrtri inverts L in place.  The buffer, read in C order, is then Y = L^-T.
    """
    if np.any(b <= 0.0):
        raise np.linalg.LinAlgError(
            "noise-plus-distortion diagonal is singular (distortion-free and "
            "noiseless corner); no MMSE receiver exists"
        )
    m, k = G.shape
    lead = b.shape[:-1]
    S = np.multiply(G, (1.0 / np.sqrt(b))[..., None], dtype=complex, order="C").reshape(-1, m, k)
    alpha2 = np.broadcast_to(np.asarray(alpha, dtype=float) ** 2, lead + (1,)).ravel()
    Y = np.zeros((len(S), k, k), dtype=complex)
    Y[:, range(k), range(k)] = 1.0 / sigma_s2
    lib = _openblas()
    if lib is None:
        information = alpha2[:, None, None] * (S.conj().swapaxes(-1, -2) @ S) + Y
        Y = np.linalg.inv(np.linalg.cholesky(information)).conj().swapaxes(-1, -2)
    else:
        scale, status = ctypes.c_double(), ctypes.c_int64()
        n, depth, ld, one, a2, info = map(ctypes.byref, (
            ctypes.c_int64(k), ctypes.c_int64(m), ctypes.c_int64(max(k, 1)),
            ctypes.c_double(1.0), scale, status))
        for i, alpha2_i in enumerate(alpha2.tolist()):
            scale.value = alpha2_i
            s, y = S.ctypes.data + i * S.strides[0], Y.ctypes.data + i * Y.strides[0]
            lib.zherk(b"L", b"N", n, depth, a2, s, ld, one, y, ld, 1, 1)
            lib.zpotrf(b"L", n, y, ld, info, 1)
            if status.value == 0:
                lib.ztrtri(b"L", b"N", n, y, ld, info, 1, 1)
            if status.value != 0:
                raise np.linalg.LinAlgError(
                    f"information matrix is not positive definite (LAPACK info {status.value})"
                )
    Y = Y.reshape(lead + (k, k))
    return Y if np.iscomplexobj(G) else Y.real


def _covariance(Y):
    """Y * Y^H, Hermitian-symmetrized, for a factor Y (..., K, K)."""
    P = Y @ Y.conj().swapaxes(-1, -2)
    return 0.5 * (P + P.conj().swapaxes(-1, -2))


def mmse_weights(G, alpha, sigma_n2, c_delta, sigma_s2=1.0):
    """MMSE receive matrix W, shape (K, M), for the linearized model.

    alpha*sigma_s2*G^H times the inverse M x M observation covariance,
    computed by the Woodbury identity as alpha*P*G^H*diag(b)^-1 with P the
    K x K information-form inverse and b = c_delta + alpha**2*sigma_n2.
    Raises LinAlgError unless b > 0.  A stack of bit depths, ``alpha`` (B,)
    and ``c_delta`` (B, M), gives (B, K, M).
    """
    alpha = np.asarray(alpha, dtype=float)[..., None]
    b = np.asarray(c_delta, dtype=float) + alpha**2 * sigma_n2
    P = _covariance(_inverse_factor(G, alpha, sigma_s2, b))
    return alpha[..., None] * (P @ G.conj().T) * (1.0 / b)[..., None, :]


def error_covariance(G, alpha, sigma_s2, sigma_n2, c_delta, legacy_eq21=False):
    """Error covariance of the MMSE detector given the channel, shape (K, K).

    Uses the K x K information form
    (I/sigma_s2 + alpha**2 * G^H * diag(B)^-1 * G)^-1 with B the noise-plus-
    distortion diagonal, which stays well conditioned whenever B is
    nonsingular.  Hermitian positive semidefinite with diagonal in
    (0, sigma_s2].  A stack of bit depths, ``alpha`` (B,) and ``c_delta`` (B, M), gives (B, K, K).

    ``legacy_eq21`` gives the error covariance of the alternative receiver
    whose noise term enters B unscaled by alpha**2, kept for comparison; the
    default scaling is the one consistent with the linearized model.  With
    P_L the kernel at B_L = c_delta + sigma_n2, that receiver has
    alpha*W*G - I = -P_L/sigma_s2, so its error covariance is
    P_L**2/sigma_s2 + alpha**2 * P_L * G^H * diag(B/B_L**2) * G * P_L.
    """
    alpha = np.asarray(alpha, dtype=float)[..., None]
    c_delta = np.asarray(c_delta, dtype=float)
    b = c_delta + alpha**2 * sigma_n2
    if not legacy_eq21:
        return _covariance(_inverse_factor(G, alpha, sigma_s2, b))
    b_legacy = c_delta + sigma_n2
    P = _covariance(_inverse_factor(G, alpha, sigma_s2, b_legacy))
    spread = alpha[..., None] ** 2 * (G.conj().T @ (G * (b / b_legacy**2)[..., :, None]))
    cov = P @ (P / sigma_s2 + spread @ P)
    return 0.5 * (cov + cov.conj().swapaxes(-1, -2))


def error_variances(G, alpha, sigma_s2, sigma_n2, c_delta, legacy_eq21=False):
    """Per-user error variances, the diagonal of ``error_covariance`` with the same
    arguments, shape (..., K).  On the default path they are the squared row norms of
    the kernel's factor, and no K x K covariance is formed."""
    if legacy_eq21:
        cov = error_covariance(G, alpha, sigma_s2, sigma_n2, c_delta, legacy_eq21=True)
        return np.real(np.diagonal(cov, axis1=-2, axis2=-1)).copy()
    alpha = np.asarray(alpha, dtype=float)[..., None]
    b = np.asarray(c_delta, dtype=float) + alpha**2 * sigma_n2
    Y = _inverse_factor(G, alpha, sigma_s2, b)
    return np.sum(Y.real**2 + Y.imag**2, axis=-1)


def per_user_sinr(error_var, sigma_s2):
    """Per-user SINR (linear) from the error variances, the diagonal of the
    error covariance (``error_variances``).

    sinr_k = sigma_s2/[C_e]_kk - 1, the SINR of the biased MMSE symbol
    estimate; zero when the observation carries no information about the
    user.  Variances of shape (..., K) give SINRs of the same shape.
    """
    var = np.asarray(error_var, dtype=float)
    if np.any(var <= 0.0) or np.any(var > sigma_s2 * (1.0 + 1e-9)):
        raise ValueError("error variances must lie in (0, sigma_s2]")
    return np.maximum(sigma_s2 / var - 1.0, 0.0)
