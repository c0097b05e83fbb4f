"""Midrise uniform quantizer and its Bussgang linearization.

An L-level uniform quantizer applied to a zero-mean Gaussian input can be
written as g(x) = alpha*x + d, where the distortion d is uncorrelated with
the input.  This module provides the quantizer transfer function, closed
forms for the linear gain alpha and the output power ratio gamma, the
resulting distortion power and SDNR, and the Bussgang row of each level
count: the SDNR-optimal step, solved once, with alpha and gamma there.
A quantizer is its level count and its step.  The coefficients depend on
the step only through the normalized step delta/sigma, so they and the
solver take the step at unit input variance.
"""

import math
import warnings
from functools import lru_cache

import numpy as np

__all__ = [
    "FlatObjectiveWarning",
    "quantize",
    "fronthaul",
    "bussgang_alpha",
    "power_gain_gamma",
    "distortion_power",
    "sdnr",
    "optimal_step",
    "bussgang_row",
    "MAX_LEVELS",
]

# Slack when testing gamma >= alpha**2; the closed forms satisfy the
# inequality exactly, so anything beyond this is a caller error.
_CONSISTENCY_TOL = 1e-12

# Largest level count the step solver accepts, and the bracket of normalized
# steps its bisection starts from: gamma < alpha at its lower end and
# gamma > alpha at its upper end for every even level count from 2 to
# MAX_LEVELS (tests/test_quantizer.py checks each).
MAX_LEVELS = 2**14
_BRACKET = (1e-6, 8.0)


class FlatObjectiveWarning(UserWarning):
    """Raised when the step-size objective does not depend on the step."""


def _gaussian_tail(x):
    """P(N(0,1) > x) for an array ``x``, elementwise by libm's erfc (numpy has none)."""
    return 0.5 * np.frompyfunc(math.erfc, 1, 1)(x / math.sqrt(2.0)).astype(float)


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


def bussgang_alpha(levels, step):
    """Linear gain E[x*g(x)] of the L-level quantizer g with step ``step``
    for a unit-variance Gaussian input x; for an input of std sigma, pass
    step/sigma.  ``step`` may be an array."""
    d = _valid_steps(levels, step)
    ls = np.arange(1, levels // 2, dtype=float)
    series = 2.0 * np.exp(-0.5 * np.multiply.outer(ls**2, d**2)).sum(axis=0)
    out = d / math.sqrt(2.0 * math.pi) * (series + 1.0)
    return out if np.ndim(step) else float(out)


def power_gain_gamma(levels, step):
    """Output power E[g(x)**2] of the L-level quantizer g with step ``step``
    for a unit-variance Gaussian input x; for an input of std sigma, pass
    step/sigma.  ``step`` may be an array."""
    d = _valid_steps(levels, step)
    ls = np.arange(1, levels // 2, dtype=float)
    out = d**2 * (0.25 + 4.0 * (_gaussian_tail(np.multiply.outer(d, ls)) @ ls))
    return out if np.ndim(step) else float(out)


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


@lru_cache(maxsize=None)
def _solved_row(levels):
    """(step, alpha, gamma) at the SDNR-optimal step of an L-level quantizer, solved once."""
    _check_levels(levels)
    if levels > MAX_LEVELS:
        raise ValueError(
            f"levels={levels} exceeds {MAX_LEVELS}, the largest level count the step "
            "solver is validated for"
        )

    def excess(d):  # gamma - alpha: negative below the optimum, positive above it
        return power_gain_gamma(levels, d) - bussgang_alpha(levels, d)

    lo, hi = _BRACKET
    if not excess(lo) < 0.0 < excess(hi):
        raise ValueError(f"the step bracket {_BRACKET} does not hold the optimum at {levels} levels")
    while lo < (mid := math.sqrt(lo * hi)) < hi:
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return lo, bussgang_alpha(levels, lo), power_gain_gamma(levels, lo)


def _row(levels):
    """``_solved_row``, warning at the public function's caller on every 2-level call."""
    row = _solved_row(levels)
    if levels == 2:
        warnings.warn(
            "SDNR objective is constant in the step for a 2-level quantizer; "
            "returning the canonical minimum-distortion step 2*sqrt(2/pi)",
            FlatObjectiveWarning,
            stacklevel=3,
        )
    return row


def optimal_step(levels):
    """SDNR-optimal normalized step (step/sigma) for an L-level quantizer.

    The objective alpha**2/gamma has the slope
    4*d**2*S*alpha*(alpha - gamma)/(sqrt(2*pi)*gamma**2) in the step d, with
    S = sum(l**2*exp(-(l*d)**2/2)) over the orders l = 1..L/2 - 1, so
    for L >= 4 (S > 0) its maximum is the one root of gamma - alpha.
    Bisection at the geometric mean finds it in the bracket [1e-6, 8], whose
    sign change is checked first (a ValueError if it fails), until that mean
    rounds to an end; the lower end is returned.  Level counts above
    MAX_LEVELS, the deepest at which the bracket is proven, are rejected.
    At 2 levels the objective is flat in the step (S = 0), and
    gamma - alpha = d**2/4 - d/sqrt(2*pi) has the one root 2*sqrt(2/pi), the
    minimum-distortion step 2*E|x|; the same bisection returns it, with a
    FlatObjectiveWarning on every call.
    """
    return _row(levels)[0]


def bussgang_row(levels):
    """{"step", "alpha", "gamma"} of an L-level quantizer: the SDNR-optimal
    normalized step (``optimal_step``) and the linear gain and power ratio
    there, at unit input variance.  All three are solved once per level
    count and cached; each call returns a new dict, and at 2 levels each
    call warns as ``optimal_step`` does."""
    step, alpha, gamma = _row(levels)
    return {"step": step, "alpha": alpha, "gamma": gamma}
