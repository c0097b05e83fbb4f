"""Quantized uplink data phase and MMSE multiuser detection.

With every AP quantizing at the same bit depth, the forwarded vector obeys
the linearized model y = alpha*G*s + alpha*n + d, where the distortion d
has a diagonal covariance c_delta, ``distortion_power(gap,
received_variance(beta, sigma_s2, sigma_n2))`` at each AP.  The central
unit applies the MMSE receiver for this model.  One K x K kernel serves
receiver, error covariance and SINR: it factors the Hermitian positive
definite information matrix by Cholesky and inverts the factor, giving an
upper-triangular Y with Y*Y^H the error covariance.  Per-user SINR reads
only the error variances, the squared row norms of Y.  The legacy
receiver, whose noise term is not scaled by alpha**2, reads its variances
from the same factor at its own diagonal, less a correction read from
G*Y*Y^H.  No campaign path forms an error covariance: only ``sim
validate`` forms the receiver and its error covariance, both from one
``mmse_receiver`` call.

The kernel calls LAPACK's zherk and the unblocked Cholesky factor zpotf2 and
triangular inverse ztrti2 through ctypes in the OpenBLAS that numpy bundles,
so no array wrapper runs per call and the interpreter lock is released while
they run.  At K = 40 the unblocked pair took three quarters of the time of
LAPACK's blocked pair.  At large K the blocked pair is faster: at M = 400 a
SINR campaign took about 5% longer at K = 200 and 16% longer at K = 400.
Where numpy has no such library, the kernel takes the inverse of numpy's
Cholesky factor instead.
"""

import ctypes
from collections import namedtuple
from functools import cache
from pathlib import Path

import numpy as np

from .channel import _check_powers, complex_normal, received_variance
from .quantizer import fronthaul

__all__ = [
    "simulate_uplink",
    "mmse_receiver",
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


# Symbol, argument types and result type of each routine.  The BLAS and
# LAPACK routines take ILP64 integers and scalars by pointer, and trailing
# hidden lengths of their character arguments.
_P, _CHAR, _LEN = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_size_t
_SYMBOLS = {
    "get_num_threads": ("scipy_openblas_get_num_threads64_", [], ctypes.c_int),
    "set_num_threads": ("scipy_openblas_set_num_threads64_", [ctypes.c_int], None),
    "zherk": ("scipy_zherk_64_", [_CHAR, _CHAR] + [_P] * 8 + [_LEN] * 2, None),
    "zpotf2": ("scipy_zpotf2_64_", [_CHAR] + [_P] * 4 + [_LEN], None),
    "ztrti2": ("scipy_ztrti2_64_", [_CHAR, _CHAR] + [_P] * 4 + [_LEN] * 2, None),
}
_OpenBLAS = namedtuple("_OpenBLAS", _SYMBOLS)


@cache
def _openblas():
    """The ``scipy_openblas64_`` library that numpy wheels bundle in
    ``numpy.libs``, opened once: its thread-count functions and the
    routines of the receiver kernel, or None unless all of them resolve (numpy
    1.x wheels, MKL or Accelerate builds have no such library)."""
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

    For each b, S = diag(b)^-1/2 * G is formed in one C-order (M, K) scratch, so
    that LAPACK's column order sees S^T: zherk adds alpha**2 * S^T * conj(S), the
    conjugate information matrix, onto I/sigma_s2 in the lower triangle, zpotf2
    factors it as L*L^H and ztrti2 inverts L in place.  The buffer, read in C
    order, is then Y = L^-T.
    """
    if not np.all(b > 0.0):
        raise np.linalg.LinAlgError(
            "noise-plus-distortion diagonal is singular (distortion-free and "
            "noiseless corner) or not a number; no MMSE receiver exists"
        )
    m, k = G.shape
    lead = b.shape[:-1]
    weights = (1.0 / np.sqrt(b)).reshape(-1, m, 1)
    alpha2 = np.broadcast_to(np.asarray(alpha, dtype=float) ** 2, lead + (1,)).ravel()
    Y = np.zeros((len(weights), k, k), dtype=complex)
    Y.reshape(len(Y), k * k)[:, :: k + 1] = 1.0 / sigma_s2
    S = np.empty((m, k), dtype=complex)
    lib = _openblas()
    if lib is None:
        for y, w, alpha2_i in zip(Y, weights, alpha2):
            np.multiply(G, w, out=S)
            y += alpha2_i * (S.conj().T @ S)
        Y = np.linalg.inv(np.linalg.cholesky(Y)).conj().swapaxes(-1, -2)
    else:
        scale, status = ctypes.c_double(), ctypes.c_int64()
        n, depth, ld, one, a2, info = map(ctypes.byref, (
            ctypes.c_int64(k), ctypes.c_int64(m), ctypes.c_int64(max(k, 1)),
            ctypes.c_double(1.0), scale, status))
        s = S.ctypes.data
        for i, (w, alpha2_i) in enumerate(zip(weights, alpha2.tolist())):
            np.multiply(G, w, out=S)
            scale.value = alpha2_i
            y = Y.ctypes.data + i * Y.strides[0]
            lib.zherk(b"L", b"N", n, depth, a2, s, ld, one, y, ld, 1, 1)
            lib.zpotf2(b"L", n, y, ld, info, 1)
            if status.value == 0:
                lib.ztrti2(b"L", b"N", n, y, ld, info, 1, 1)
            if status.value != 0:
                raise np.linalg.LinAlgError(
                    f"information matrix is not positive definite (LAPACK info {status.value})"
                )
    Y = Y.reshape(lead + (k, k))
    return Y if np.iscomplexobj(G) else Y.real


def mmse_receiver(G, alpha, sigma_s2, sigma_n2, c_delta):
    """MMSE receive matrix W, shape (K, M), and its error covariance P, shape
    (K, K), for the linearized model.

    P is the K x K information form
    (I/sigma_s2 + alpha**2 * G^H * diag(b)^-1 * G)^-1 with b = c_delta +
    alpha**2*sigma_n2 the noise-plus-distortion diagonal, which stays well
    conditioned whenever b is nonsingular: Hermitian positive semidefinite
    with diagonal in (0, sigma_s2].  W, alpha*sigma_s2*G^H times the inverse
    M x M observation covariance, is alpha*P*G^H*diag(b)^-1 by the Woodbury
    identity.  Raises LinAlgError unless b > 0.  A stack of bit depths,
    ``alpha`` (B,) and ``c_delta`` (B, M), gives (B, K, M) and (B, K, K).
    """
    alpha = np.asarray(alpha, dtype=float)[..., None]
    b = np.asarray(c_delta, dtype=float) + alpha**2 * sigma_n2
    Y = _inverse_factor(G, alpha, sigma_s2, b)
    P = Y @ Y.conj().swapaxes(-1, -2)
    P = 0.5 * (P + P.conj().swapaxes(-1, -2))
    return alpha[..., None] * (P @ G.conj().T) * (1.0 / b)[..., None, :], P


def error_variances(G, alpha, sigma_s2, sigma_n2, c_delta, legacy_eq21=False):
    """Per-user error variances, the diagonal of the error covariance, shape (..., K),
    read from the kernel's factor Y without forming the error covariance.

    On the default path they are the squared row norms of Y.  ``legacy_eq21`` gives
    those of the alternative receiver whose noise term enters b unscaled by
    alpha**2, kept for comparison.  Its diagonal b_L = c_delta + sigma_n2 exceeds
    b by (1 - alpha**2)*sigma_n2 at every AP, so with P_L = Y_L*Y_L^H from the
    kernel at b_L and U = diag(b_L)^-1*G*P_L its error covariance is
    P_L - alpha**2*(1 - alpha**2)*sigma_n2*U^H*U: the squared row norms of Y_L
    less that multiple of the squared column norms of U.  G*P_L is formed one bit
    depth at a time and its squared entries weighted by 1/b_L**2.
    """
    alpha = np.asarray(alpha, dtype=float)[..., None]
    b = np.asarray(c_delta, dtype=float) + (sigma_n2 if legacy_eq21 else alpha**2 * sigma_n2)
    Y = _inverse_factor(G, alpha, sigma_s2, b)
    squares = Y.real**2
    squares += Y.imag**2
    var = squares.sum(axis=-1)
    if legacy_eq21:
        weight = np.broadcast_to(alpha**2 * (1.0 - alpha**2) * sigma_n2, var.shape[:-1] + (1,))
        spread = np.zeros_like(var)
        for i in np.ndindex(var.shape[:-1]):
            if weight[i][0] != 0.0:  # the unquantized row (alpha = 1) takes no correction
                GP = G @ (Y[i] @ Y[i].conj().T)
                spread[i] = (1.0 / b[i] ** 2) @ (GP.real**2 + GP.imag**2)
        var -= weight * spread
    return var


def per_user_sinr(error_var, sigma_s2):
    """Per-user SINR (linear) from the error variances, the diagonal of the
    error covariance (``error_variances``).

    sinr_k = sigma_s2/[C_e]_kk - 1, the SINR of the biased MMSE symbol
    estimate; zero when the observation carries no information about the
    user.  Variances of shape (..., K) give SINRs of the same shape.
    """
    var = np.asarray(error_var, dtype=float)
    if not np.all((var > 0.0) & (var <= sigma_s2 * (1.0 + 1e-9))):
        raise ValueError("error variances must lie in (0, sigma_s2]")
    return np.maximum(sigma_s2 / var - 1.0, 0.0)
