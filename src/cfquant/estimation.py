"""Pilot phase simulation and LMMSE channel estimation from quantized samples.

Each user transmits an orthonormal pilot sequence scaled by sqrt(tau); the
APs quantize the received samples and forward them, and the central unit
correlates with each pilot and applies a per-coefficient LMMSE scaling.
Closed forms for the optimal scaling and the resulting per-coefficient MSE
follow from the Bussgang linearization of the quantizer, with the
distortion variance taken at the per-AP received variance.
"""

import math

import numpy as np

from .quantizer import _checked_gap

__all__ = [
    "make_pilot_book",
    "simulate_pilot_phase",
    "correlate_all",
    "lmmse_coefficient",
    "estimation_mse",
]


def make_pilot_book(k_users, tau):
    """The (tau, K) pilot matrix: the first K columns of the unitary DFT of
    size tau, scaled to unit norm.

    Columns are exactly orthonormal and every entry has modulus
    1/sqrt(tau), so the per-symbol pilot power is constant and matches the
    data-phase variance the quantizers are sized against.
    """
    if tau < k_users:
        raise ValueError(f"tau={tau} < k_users={k_users}: orthonormal pilots impossible")
    t = np.arange(tau)
    return np.exp(-2j * math.pi * np.outer(t, t[:k_users]) / tau) / math.sqrt(tau)


def simulate_pilot_phase(G, pilots, noise_samples):
    """Unquantized pilot observations, shape (..., M, tau), formed in place in
    ``noise_samples`` and returned.

    ``G`` is one (M, K) channel draw or a stack (..., M, K) of them, and
    ``pilots`` the (tau, K) pilot matrix of ``make_pilot_book``.  The clean
    sample at AP m and symbol t is sqrt(tau) * sum_k g_mk * pilots[t, k];
    ``noise_samples``, the complex receiver noise of that shape, is added to it: for
    example ``complex_normal(rng, shape, sqrt(sigma_n2 / 2))``, drawn in runs by the
    Monte Carlo check.  Pilot symbols have unit power, so the caller sizes each AP's
    fronthaul at its pilot-phase variance ``received_variance(beta, 1.0, sigma_n2)``.
    """
    k_users = G.shape[-1]
    tau, k_pilots = pilots.shape
    if k_pilots != k_users:
        raise ValueError(f"pilot book has {k_pilots} columns for {k_users} users")
    clean = _stacked_product(G, pilots.T)
    if noise_samples.shape != clean.shape or noise_samples.dtype != complex:
        raise ValueError(f"noise_samples must be a complex array of shape {clean.shape}")
    clean *= math.sqrt(tau)
    noise_samples += clean  # the bits of clean + noise_samples, without a third array
    return noise_samples


def correlate_all(y, pilots):
    """All AP-user pilot correlations at once, shape (..., M, K); scaled by
    ``lmmse_coefficient`` they are the channel estimates."""
    return _stacked_product(y, pilots.conj())


def _stacked_product(a, b):
    """``a @ b`` for a stack ``a`` (..., n) and one ``b`` (n, p) as one BLAS call: the bits
    of numpy's stacked matmul (a call per matrix).  ``math.prod``, not -1: n may be 0."""
    rows = a.reshape(math.prod(a.shape[:-1]), a.shape[-1]) @ b
    return rows.reshape(*a.shape[:-1], b.shape[-1])


def _interference_term(beta, alpha, gap, sigma_n2):
    """Noise-plus-distortion power seen by the correlator at each AP, shape
    (..., 1): it broadcasts against the gains ``beta`` (..., K) of that AP.
    A gap that is negative or not finite is rejected."""
    gap = _checked_gap(gap)
    return gap * beta.sum(axis=-1, keepdims=True) + (alpha * alpha + gap) * sigma_n2


def lmmse_coefficient(beta, tau, alpha, gap, sigma_n2):
    """Optimal scaling of the pilot correlations, shaped like ``beta``.

    ``beta`` holds the gains (..., K) of all K users at each AP: one AP's
    row, or the (M, K) matrix.  ``alpha`` and ``gap`` (gamma - alpha**2)
    come from the fronthaul's row (``bussgang_row``).  With alpha = 1 and
    gap = 0 this reduces to the textbook unquantized LMMSE coefficient.
    """
    beta = np.asarray(beta, dtype=float)
    interference = _interference_term(beta, alpha, gap, sigma_n2)
    return beta * math.sqrt(tau) * alpha / (tau * alpha**2 * beta + interference)


def estimation_mse(beta, tau, alpha, gap, sigma_n2):
    """Closed-form MSE of the LMMSE estimates and its normalized value.

    Returns (mse, nmse), each shaped like ``beta`` as in
    ``lmmse_coefficient``, with nmse = mse/beta, which lies in (0, 1) for
    every valid parameter set.
    """
    beta = np.asarray(beta, dtype=float)
    interference = _interference_term(beta, alpha, gap, sigma_n2)
    nmse = interference / (alpha**2 * tau * beta + interference)
    return beta * nmse, nmse
