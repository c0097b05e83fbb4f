"""Midrise uniform quantizer and its Bussgang linearization.

An L-level uniform quantizer applied to a zero-mean Gaussian input can be
written as g(x) = alpha*x + d, where the distortion d is uncorrelated with
the input.  This module provides the quantizer transfer function, closed
forms for the linear gain alpha and the output power ratio gamma, the
resulting distortion power and SDNR, and a numerical solver for the
SDNR-optimal step size.  A quantizer is its level count and its step.  The
coefficients depend on the step only through the normalized step
delta/sigma, so they and the solver take the step at unit input variance.
"""

import math
import warnings
from functools import lru_cache

import numpy as np
from scipy.special import erfc

__all__ = [
    "FlatObjectiveWarning",
    "quantize",
    "fronthaul",
    "bussgang_alpha",
    "power_gain_gamma",
    "distortion_power",
    "sdnr",
    "optimal_step",
    "MAX_LEVELS",
]

# Slack when testing gamma >= alpha**2; the closed forms satisfy the
# inequality exactly, so anything beyond this is a caller error.
_CONSISTENCY_TOL = 1e-12

# Canonical 2-level step: the objective alpha**2/gamma is constant in the
# step, so we return the minimum-distortion choice 2*E|x| for unit-variance
# Gaussian input (the classical table value 1.596).
_TWO_LEVEL_STEP = 2.0 * math.sqrt(2.0 / math.pi)

# Largest level count the step solver accepts.  Its coarse grid starts at
# _COARSE_RES, above the 2**14 optimum (6.70e-4), so at 2**14 the golden
# section runs on [1e-6, 2e-3] and relies on the objective being unimodal there.
MAX_LEVELS = 2**14
_SEARCH_HI = 8.0
_COARSE_RES = 1e-3
_REFINE_TOL = 1e-6

# From l*d = 38.6 on, exp(-(l*d)**2/2) and Q(l*d) are below half the
# smallest subnormal and round to 0.0; the margin absorbs rounding in l*d.
_UNDERFLOW_ARG = 40.0

# Grid points per objective evaluation of the coarse scan.  Each run's
# series stops at its own smallest step, and its term tables hold at most
# 200*(MAX_LEVELS/2 - 1) = 1.6e6 entries.  A multiple of 4, because
# OpenBLAS rounds a matrix-vector product's last bit by the row's position
# modulo 4: so the scan's values are the same floats as in one pass.
_SCAN_RUN = 200


class FlatObjectiveWarning(UserWarning):
    """Raised when the step-size objective does not depend on the step."""


def _gaussian_tail(x):
    """P(N(0,1) > x), vectorized."""
    return 0.5 * erfc(x / math.sqrt(2.0))


def _check_levels(levels):
    if levels < 2 or levels % 2 != 0:
        raise ValueError(f"levels must be even and >= 2, got {levels}")


def _valid_steps(levels, step):
    """``step`` as a float array, once it and ``levels`` name a quantizer."""
    _check_levels(levels)
    step = np.asarray(step, dtype=float)
    if not np.all(np.isfinite(step) & (step > 0.0)):
        raise ValueError(f"step must be positive and finite, got {step}")
    return step


def quantize(x, levels, step, out=None):
    """The L-level midrise quantizer with step ``step``, applied to real
    samples, or to the in-phase and quadrature rails of complex ones.

    Output alphabet {(l + 1/2)*step : l = -L/2, ..., L/2 - 1}: bins are half
    open, (l*step, (l+1)*step], so x = 0 maps to -step/2, and the output
    saturates at +/-(L-1)/2*step.  ``step`` is one step or an array that
    broadcasts against ``x``, so every row (AP) may carry its own.  Rejects
    non-finite input.  A complex input goes through one pass over its
    interleaved floats.  The result goes into ``out`` when given (an array
    of the result's shape and of the input's kind, real or complex, which
    may be ``x`` itself); a 0-d input gives a Python scalar.
    """
    steps = _valid_steps(levels, step)[..., None]
    kind = complex if np.iscomplexobj(x) else float
    parts = np.asarray(x, dtype=kind)[..., None].view(float)
    if not np.all(np.isfinite(parts)):
        raise ValueError("quantizer input must be finite")
    shape = np.broadcast_shapes(parts.shape[:-1], steps.shape[:-1])
    if steps.size > 1 and steps.ndim < parts.ndim:
        # Steps reused over leading (trial) axes: lay them out once over the trailing
        # axes they span, so each pass runs long contiguous inner loops, not a stride-0
        # broadcast over a few samples.  Elementwise, so the bits are the same.
        steps = np.ascontiguousarray(
            np.broadcast_to(steps, np.broadcast_shapes(steps.shape, parts.shape[-steps.ndim :]))
        )
    if out is None:
        out = np.empty(shape, dtype=kind)
    elif out.shape != shape or out.dtype != kind:
        raise ValueError(f"out must be a {kind.__name__} array of shape {shape}")
    half = levels // 2
    dst = out[..., None].view(float)
    np.divide(parts, steps, out=dst)
    np.ceil(dst, out=dst)
    dst -= 1.0
    np.clip(dst, -half, half - 1, out=dst)
    dst += 0.5
    dst *= steps
    return out if out.ndim else kind(out)


def fronthaul(x, bits, variance, out=None):
    """Samples as forwarded over a ``bits``-bit fronthaul, same shape as ``x``.

    ``x`` holds complex samples shaped (..., M, T), AP m in row m, with any
    leading trial axes.  AP m quantizes I and Q at the SDNR-optimal step
    for its complex variance ``variance[m]``, i.e. the normalized optimum
    times sqrt(variance[m]/2).  ``bits == 0`` is the unquantized fronthaul
    and returns ``x`` itself.  ``out``, which may be ``x``, receives the
    quantized samples (``quantize``).
    """
    if bits == 0:
        return x
    variance = np.asarray(variance, dtype=float)
    if variance.shape != np.shape(x)[-2:-1]:
        raise ValueError(
            f"expected one variance per AP row of the samples {np.shape(x)}, got {variance.shape}"
        )
    if not np.all(variance > 0.0):
        raise ValueError("per-AP variances must be positive")
    levels = 2**bits
    steps = np.sqrt(variance / 2.0) * optimal_step(levels)
    return quantize(x, levels, steps[:, None], out)


def _series_orders(levels, d):
    """Orders l = 1, ..., L/2 - 1 of the alpha and gamma series with
    l*min(d) < _UNDERFLOW_ARG, for a positive array ``d``.

    Every later term is exactly 0.0 at every point of ``d``, so the series
    over these orders is the same float as over all of them.
    """
    ls = np.arange(1, levels // 2, dtype=float)
    return ls[ls * d.min() < _UNDERFLOW_ARG]


def bussgang_alpha(levels, step):
    """Linear gain E[x*g(x)] of the L-level quantizer g with step ``step``
    for a unit-variance Gaussian input x; for an input of std sigma, pass
    step/sigma.  ``step`` may be an array.  The series skips only
    underflowed terms (_series_orders)."""
    d = np.atleast_1d(_valid_steps(levels, step))
    ls = _series_orders(levels, d)
    if ls.size:
        series = 2.0 * np.exp(-0.5 * np.multiply.outer(ls**2, d**2)).sum(axis=0)
    else:
        series = np.zeros_like(d)
    out = d / math.sqrt(2.0 * math.pi) * (series + 1.0)
    return out if np.ndim(step) else float(out[0])


def power_gain_gamma(levels, step):
    """Output power E[g(x)**2] of the L-level quantizer g with step ``step``
    for a unit-variance Gaussian input x; for an input of std sigma, pass
    step/sigma.  ``step`` may be an array.  The series skips only
    underflowed terms (_series_orders)."""
    d = np.atleast_1d(_valid_steps(levels, step))
    ls = _series_orders(levels, d)
    if ls.size:
        series = 4.0 * (ls @ _gaussian_tail(np.multiply.outer(ls, d)))
    else:
        series = np.zeros_like(d)
    out = d**2 * (0.25 + series)
    return out if np.ndim(step) else float(out[0])


def distortion_power(alpha, gamma, sigma_x2):
    """Variance of the Bussgang distortion term, sigma_x2*(gamma - alpha**2),
    for one input variance or an array of them."""
    if not np.all(sigma_x2 > 0.0):
        raise ValueError("sigma_x2 must be positive")
    return sigma_x2 * max(_distortion_gap(alpha, gamma), 0.0)


def sdnr(alpha, gamma):
    """Signal-to-distortion ratio alpha**2/(gamma - alpha**2).

    Returns ``math.inf`` in the distortion-free limit gamma == alpha**2.
    """
    a2 = alpha * alpha
    if not a2 > 0.0:
        raise ValueError("alpha must be nonzero")
    gap = _distortion_gap(alpha, gamma)
    if gap <= 0.0:
        return math.inf
    return a2 / gap


def _distortion_gap(alpha, gamma):
    """gamma - alpha**2, rejecting factors whose gap is below zero by more than rounding."""
    a2 = alpha * alpha
    gap = gamma - a2
    if gap < -_CONSISTENCY_TOL * max(1.0, a2):
        raise ValueError(f"inconsistent factors: gamma={gamma} < alpha^2={a2}")
    return gap


def _sdnr_objective(levels, step_norm):
    """alpha**2/gamma at unit variance; the quantity maximized over the step."""
    a = bussgang_alpha(levels, step_norm)
    return a * a / power_gain_gamma(levels, step_norm)


def _golden_max(f, lo, hi, tol):
    """Golden-section maximization of a unimodal f on [lo, hi]."""
    inv_phi = 0.5 * (math.sqrt(5.0) - 1.0)
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = f(c)
    fd = f(d)
    while b - a > tol:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
    return 0.5 * (a + b)


@lru_cache(maxsize=None)
def _optimal_step_cached(levels):
    grid = np.arange(_COARSE_RES, _SEARCH_HI + 0.5 * _COARSE_RES, _COARSE_RES)
    vals = np.concatenate(
        [_sdnr_objective(levels, grid[i : i + _SCAN_RUN]) for i in range(0, grid.size, _SCAN_RUN)]
    )
    best_idx = int(np.argmax(vals))
    lo = float(grid[best_idx - 1]) if best_idx > 0 else _COARSE_RES * 1e-3
    hi = float(grid[best_idx + 1]) if best_idx + 1 < grid.size else _SEARCH_HI
    return _golden_max(lambda d: _sdnr_objective(levels, d), lo, hi, _REFINE_TOL)


def optimal_step(levels):
    """SDNR-optimal normalized step (step/sigma) for an L-level quantizer.

    Solved by a scan of the grid 1e-3, 2e-3, ..., 8 and golden-section
    refinement between the neighbours of its best point, or on [1e-6, 2e-3]
    when the best is the first point.  That is the case at MAX_LEVELS, whose
    optimum 6.70e-4 lies below the grid, so there the refinement relies on
    the objective being unimodal on that interval; larger level counts are
    rejected.  The alpha and gamma series of L/2 - 1 terms keep only the
    orders l with l*step < 40 at the smallest step evaluated together: every
    later term is exactly 0.0 in float64, so the result is the same float as
    with all terms, while the coarse scan at MAX_LEVELS evaluates 2.8% of
    them.  For levels == 2 the objective is flat in the step; the canonical
    minimum-distortion value 2*sqrt(2/pi) is returned and a
    FlatObjectiveWarning is issued.
    """
    _check_levels(levels)
    if levels > MAX_LEVELS:
        raise ValueError(
            f"levels={levels} exceeds {MAX_LEVELS}, the largest level count the step "
            "solver is validated for"
        )
    if levels == 2:
        warnings.warn(
            "SDNR objective is constant in the step for a 2-level quantizer; "
            "returning the canonical minimum-distortion step 2*sqrt(2/pi)",
            FlatObjectiveWarning,
            stacklevel=2,
        )
        return _TWO_LEVEL_STEP
    return _optimal_step_cached(levels)
