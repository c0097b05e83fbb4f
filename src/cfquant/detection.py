"""Quantized uplink data phase and MMSE multiuser detection.

With every AP quantizing at the same bit depth, the forwarded vector obeys
the linearized model y = alpha*G*s + alpha*n + d, where the distortion d
has a diagonal covariance set by the per-AP received variance.  The
central unit applies the MMSE receiver for this model; receiver and error
covariance both come from one K x K information-form inverse, and per-user
SINR follows from the error covariance diagonal.  The legacy receiver, whose
noise term is not scaled by alpha**2, gets its error covariance from the same
kernel without being formed.
"""

import numpy as np

from .channel import complex_normal, received_variance
from .quantizer import distortion_power, fronthaul

__all__ = [
    "simulate_uplink",
    "distortion_covariance",
    "mmse_weights",
    "error_covariance",
    "per_user_sinr",
]


def simulate_uplink(G, symbols, noise, bits, rng, beta):
    """Uplink observation as forwarded over a ``bits``-bit fronthaul,
    shape (M,) or (..., M, T).

    ``symbols`` holds one transmit vector (K,) or blocks (..., K, T) of
    power sigma_s2; ``G`` may carry the same leading trial axes.  Receiver
    noise is drawn from ``rng`` and each AP quantizes at the step optimal
    for its data-phase variance sigma_s2 * sum_k beta_mk + sigma_n2, from
    the large-scale gains ``beta``; ``bits == 0`` leaves the samples
    unquantized.
    """
    symbols = np.asarray(symbols)
    vector = symbols.ndim == 1
    x = (G @ (symbols[:, None] if vector else symbols)).astype(complex, copy=False)
    complex_normal(rng, x.shape, np.sqrt(noise.sigma_n2 / 2.0), add_to=x)
    y = fronthaul(x, bits, received_variance(beta, noise.sigma_s2, noise.sigma_n2), out=x)
    return y[:, 0] if vector else y


def distortion_covariance(beta, alpha, gamma, sigma_s2, sigma_n2):
    """Diagonal of the quantization distortion covariance, shape (M,).

    Entry m is (gamma - alpha**2) times the received variance at AP m; the
    distortion is uncorrelated across APs, so the diagonal fully describes
    the covariance.  All entries are zero in the distortion-free limit.
    """
    return distortion_power(alpha, gamma, received_variance(beta, sigma_s2, sigma_n2))


def _weighted_gram(G, w):
    """G^H * diag(w) * G, shape (..., K, K), for weights w (..., M)."""
    return G.conj().T @ (G * w[..., :, None])


def _information_inverse(G, alpha, sigma_s2, b):
    """(I/sigma_s2 + alpha**2 * G^H * diag(b)^-1 * G)^-1, shape (..., K, K), for b (..., M)
    and ``alpha`` scalar or (..., 1): the one kernel behind the MMSE receiver and its error
    covariance.  G is scaled by 1/b, as numpy's complex division does, at a third of its cost."""
    if np.any(b <= 0.0):
        raise np.linalg.LinAlgError(
            "noise-plus-distortion diagonal is singular (distortion-free and "
            "noiseless corner); no MMSE receiver exists"
        )
    info = np.asarray(alpha)[..., None] ** 2 * _weighted_gram(G, 1.0 / b)
    k = np.arange(G.shape[1])
    info[..., k, k] += 1.0 / sigma_s2
    info = 0.5 * (info + info.conj().swapaxes(-1, -2))
    cov = np.linalg.inv(info)
    return 0.5 * (cov + cov.conj().swapaxes(-1, -2))


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
    P = _information_inverse(G, alpha, sigma_s2, b)
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
        return _information_inverse(G, alpha, sigma_s2, b)
    b_legacy = c_delta + sigma_n2
    P = _information_inverse(G, alpha, sigma_s2, b_legacy)
    spread = alpha[..., None] ** 2 * _weighted_gram(G, b / b_legacy**2)
    cov = P @ (P / sigma_s2 + spread @ P)
    return 0.5 * (cov + cov.conj().swapaxes(-1, -2))


def per_user_sinr(error_cov, sigma_s2):
    """Per-user SINR (linear) from the error covariance diagonal.

    sinr_k = sigma_s2/[C_e]_kk - 1, the SINR of the biased MMSE symbol
    estimate; zero when the observation carries no information about the
    user.  A stack of covariances (..., K, K) gives SINRs of shape (..., K).
    """
    diag = np.real(np.diagonal(error_cov, axis1=-2, axis2=-1)).copy()
    if np.any(diag <= 0.0) or np.any(diag > sigma_s2 * (1.0 + 1e-9)):
        raise ValueError("error covariance diagonal must lie in (0, sigma_s2]")
    return np.maximum(sigma_s2 / diag - 1.0, 0.0)
