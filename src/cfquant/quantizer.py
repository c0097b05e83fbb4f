"""Midrise uniform quantizer and its Bussgang linearization.

An L-level uniform quantizer applied to a zero-mean Gaussian input can be
written as g(x) = alpha*x + d, where the distortion d is uncorrelated with
the input.  This module provides the quantizer transfer function, closed
forms for the linear gain alpha and the output power ratio gamma, the
resulting distortion power and SDNR, and the Bussgang row of each level
count: the SDNR-optimal step, solved once, with alpha, gamma and the
distortion gap gamma - alpha**2 there.  The gap is summed without
cancellation, and every closed form that reads it takes it from the row.
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

# Largest level count the step solver accepts, and the bracket of normalized
# steps its search keeps: gamma < alpha at its lower end and gamma > alpha at
# its upper end for every even level count from 2 to MAX_LEVELS
# (tests/test_quantizer.py checks each).
MAX_LEVELS = 2**14
_BRACKET = (1e-6, 8.0)

# The overload tails stop where (l*d)**2 exceeds its first value by
# _TAIL_DECAY: their terms have fallen by exp(-40), so those beyond sum to
# less than 1e-17 of each tail.  No evaluation sums more than _MAX_TERMS
# orders, the direct series' length at MAX_LEVELS: where a tail would be
# longer (steps far below the optimum), the direct series are summed instead.
_TAIL_DECAY = 80.0
_MAX_TERMS = MAX_LEVELS // 2 - 1
# Orders n of psi_n = exp(-2*(pi*n/d)**2); psi_17 < 1e-34 at every step up to 8.
_PSI_ORDERS = np.arange(1.0, 17.0)
# The solver's first step has its overload point (L/2)*d at 6, above the
# optimum's at every level count up to MAX_LEVELS (5.49 at MAX_LEVELS); from
# there the Newton steps fall onto the root from above.
_FIRST_OVERLOAD_POINT = 6.0


class FlatObjectiveWarning(UserWarning):
    """Raised when the step-size objective does not depend on the step."""


def _erfc(z):
    """libm's erfc of each entry of a 1-D array ``z`` (numpy has none)."""
    return np.fromiter(map(math.erfc, z.tolist()), float, count=z.size)


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
    with np.errstate(over="ignore"):  # x/step beyond the largest float saturates alike
        np.divide(parts, steps, out=dst)
    np.ceil(dst, out=dst)
    # The level is l + 1/2 for the bin index l = ceil(x/step) - 1 clipped to
    # [-L/2, L/2 - 1]: ceil(x/step) clipped to [1 - L/2, L/2], less 1/2, exactly.
    np.clip(dst, 1 - half, half, out=dst)
    dst -= 0.5
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
    step/sigma."""
    return _excess(levels, _one_step(levels, step))[0]


def power_gain_gamma(levels, step):
    """Output power E[g(x)**2] of the L-level quantizer g with step ``step``
    for a unit-variance Gaussian input x; for an input of std sigma, pass
    step/sigma."""
    return _excess(levels, _one_step(levels, step))[1]


def _one_step(levels, step):
    """``step`` as a Python float, once it is one step of an L-level quantizer."""
    d = _valid_steps(levels, step)
    if d.ndim:
        raise ValueError(f"step must be one step, got an array of shape {d.shape}")
    return float(d)


def distortion_power(gap, sigma_x2):
    """Variance of the Bussgang distortion term, sigma_x2*gap, for the gap
    gamma - alpha**2 of a row (``bussgang_row``) and one input variance or
    an array of them."""
    if not np.all(sigma_x2 > 0.0):
        raise ValueError("sigma_x2 must be positive")
    return sigma_x2 * _checked_gap(gap)


def sdnr(alpha, gap):
    """Signal-to-distortion ratio alpha**2/gap, for the gap gamma - alpha**2
    of a row (``bussgang_row``).

    Returns ``math.inf`` in the distortion-free limit gap == 0.
    """
    a2 = alpha * alpha
    if not a2 > 0.0:
        raise ValueError("alpha must be nonzero")
    if _checked_gap(gap) == 0.0:
        return math.inf
    return a2 / gap


def _checked_gap(gap):
    """``gap``, once it is a distortion gap gamma - alpha**2: finite and not below zero."""
    if not 0.0 <= gap < math.inf:
        raise ValueError(f"the distortion gap gamma - alpha**2 must be finite and >= 0, got {gap}")
    return gap


def _excess(levels, d):
    """(alpha, gamma, 1 - alpha, gamma - alpha, gamma - alpha**2, newton) of the
    L-level quantizer at the normalized step ``d``, with newton a Newton estimate
    of the root of gamma - alpha (nan where there is none): the one evaluation
    behind the row, its step solver and the two primitives.

    The quantizer with infinitely many levels has gamma - alpha = G, with
    Sheppard's d**2/12 in the granular part G = d**2/12 + 2*S0 + d**2*S2/pi**2
    and alpha = 1 + 2*S0, where S0 = sum(psi_n), S2 = sum(psi_n/n**2) and
    psi_n = exp(-2*(pi*n/d)**2).  The L levels differ from it only beyond
    +-(L/2)*d, by the overload tails T_alpha = 2*d*sum(phi(l*d)) and
    T_gamma = 4*d**2*sum(l*Q(l*d)) over l >= L/2: 1 - alpha = T_alpha - 2*S0
    and gamma - alpha = G - O, with O = T_gamma - T_alpha.  Every term is
    small, so nothing cancels (``_terms`` sums them).  The estimate is a
    Newton step on ln(G/O) in ln d, which is close to quadratic in d; its
    slope comes from the same sums.

    The terms serve where ``_tail_end`` gives the tails an end and the summed
    1 - alpha is at most 1/4, so that alpha = 1 - (1 - alpha) does not cancel,
    nor does gamma = alpha + (gamma - alpha), as gamma - alpha >= alpha**2 -
    alpha >= -alpha/4 (gamma >= alpha**2).  That holds at every row's step, so
    the primitives there are the row's alpha and gamma to the bit.  Elsewhere
    (deep overload far below the optimum, 2 levels, steps above the bracket)
    alpha and gamma come from their direct series over the orders
    l = 1..L/2 - 1, d*sqrt(2/pi)*(1/2 + sum(exp(-(l*d)**2/2))) and
    d**2*(1/4 + 2*sum(l*erfc(l*d/sqrt(2)))), with no estimate.
    """
    tail_end = _tail_end(levels, d)
    if tail_end:
        # Python floats: granular / overload overflows to inf, unwarned, far above the optimum.
        one_minus_alpha, excess, granular, overload, d_granular, d_overload = _terms(
            levels, d, tail_end
        )
        if one_minus_alpha <= 0.25:
            newton = math.nan
            if overload > 0.0:  # d*G'(d) and d*O'(d) give the slope of ln(G/O) in ln d
                slope = d_granular / granular - d_overload / overload
                if slope > 0.0:
                    newton = d + d * math.expm1(-math.log(granular / overload) / slope)
            alpha = 1.0 - one_minus_alpha
            gap = excess + one_minus_alpha * alpha
            return alpha, alpha + excess, one_minus_alpha, excess, gap, newton
    ls = np.arange(1.0, levels // 2)
    ld = d * ls
    alpha = d / math.sqrt(2.0 * math.pi) * (2.0 * float(np.exp(-0.5 * ld * ld).sum()) + 1.0)
    gamma = d * d * (0.25 + 2.0 * float((ls * _erfc(d / math.sqrt(2.0) * ls)).sum()))
    one_minus_alpha, excess = 1.0 - alpha, gamma - alpha
    return alpha, gamma, one_minus_alpha, excess, excess + one_minus_alpha * alpha, math.nan


def _terms(levels, d, end):
    """(1 - alpha, gamma - alpha, G, O, d*G'(d), d*O'(d)) of ``_excess`` at the
    step ``d``, whose overload tails end at the order ``end``, as Python floats."""
    ls = np.arange(levels // 2, end + 1, dtype=float)
    # phi(l*d) = exp(-z**2)/sqrt(2*pi), Q(l*d) = erfc(z)/2
    z = ls * (d / math.sqrt(2.0))
    e = np.exp(-z * z)
    e_sum, l2e_sum, lerfc_sum = (float(t.sum()) for t in (e, ls * ls * e, ls * _erfc(z)))
    psi = np.exp(-2.0 * (math.pi / d) ** 2 * _PSI_ORDERS**2)
    s0, s2, n2_psi = (float(t.sum()) for t in (psi, psi / _PSI_ORDERS**2, _PSI_ORDERS**2 * psi))
    c = math.sqrt(2.0 / math.pi)
    t_alpha = c * d * e_sum
    t_gamma = 2.0 * d * d * lerfc_sum
    granular = d * d / 12.0 + 2.0 * s0 + (d / math.pi) ** 2 * s2
    overload = t_gamma - t_alpha
    d_granular = (
        d * d / 6.0 + 8.0 * (math.pi / d) ** 2 * n2_psi + 2.0 * (d / math.pi) ** 2 * s2 + 4.0 * s0
    )
    d_overload = 2.0 * t_gamma - t_alpha - c * d**3 * l2e_sum
    return t_alpha - 2.0 * s0, granular - overload, granular, overload, d_granular, d_overload


def _tail_end(levels, d):
    """The last order of the overload tails that ``_excess`` sums at the step
    ``d``, or 0 where it takes the direct series instead: at 2 levels, where
    they are the closed forms d/sqrt(2*pi) and d**2/4; below the 3/4 reach
    (L - 1)*d < 0.75*sqrt(2*pi), where |g(x)| <= (L - 1)*d/2 bounds alpha by
    (L - 1)*d/sqrt(2*pi) < 3/4, so that 1 - alpha > 1/4; where the tails would
    be longer than _MAX_TERMS orders; and above the bracket, where _PSI_ORDERS
    no longer holds."""
    half = levels // 2
    if half == 1 or d > _BRACKET[1] or d < 0.75 * math.sqrt(2.0 * math.pi) / (levels - 1):
        return 0
    tail_end = math.ceil(math.sqrt((half * d) ** 2 + _TAIL_DECAY) / d)
    return 0 if tail_end - half >= _MAX_TERMS else tail_end


@lru_cache(maxsize=None)
def _solved_row(levels):
    """(step, alpha, gamma, gamma - alpha**2) at the SDNR-optimal step of an
    L-level quantizer, solved once: all from one ``_excess`` at the step, or
    in closed form at 2 levels, where alpha = gamma = 2/pi."""
    _check_levels(levels)
    if levels > MAX_LEVELS:
        raise ValueError(
            f"levels={levels} exceeds {MAX_LEVELS}, the largest level count the step "
            "solver is validated for"
        )
    if levels == 2:
        gain = 2.0 / math.pi
        return 2.0 * math.sqrt(gain), gain, gain, gain - gain * gain
    step = _excess_root(levels)
    alpha, gamma, _, _, gap, _ = _excess(levels, step)
    return step, alpha, gamma, gap


def _excess_root(levels):
    """The one root of gamma - alpha at L >= 4 levels, by safeguarded Newton."""
    lo, hi = _BRACKET
    if not _excess(levels, lo)[3] < 0.0 < _excess(levels, hi)[3]:
        raise ValueError(f"the step bracket {_BRACKET} does not hold the optimum at {levels} levels")
    d = _FIRST_OVERLOAD_POINT / (levels // 2)
    while True:
        *_, excess, _, newton = _excess(levels, d)
        if abs(newton - d) <= 1e-10 * d:  # Newton's error after so short a step is far below an ulp
            return newton
        if excess < 0.0:
            lo = d
        else:
            hi = d
        if lo < newton < hi:
            d = newton
        elif lo < (mid := math.sqrt(lo * hi)) < hi:
            d = mid
        else:
            return lo


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
    for L >= 4 (S > 0) its maximum is the one root of gamma - alpha.  That
    root is solved with gamma - alpha summed without cancellation, as
    Sheppard's d**2/12 and its small corrections less the overload beyond
    +-(L/2)*d, so it is found to within an ulp or two, not where rounding
    noise in a difference of two O(1) sums hides its sign.  Safeguarded
    Newton steps on the log of the granular-to-overload ratio, in the log
    of the step, start above the root and take 5-7 evaluations; a step
    outside the current sign bracket is replaced by its geometric mean.
    The bracket [1e-6, 8] is checked first (a ValueError if it fails), and
    one more evaluation at the root gives the row's alpha, gamma and gap
    (``bussgang_row``).
    Level counts above MAX_LEVELS, the deepest at which the bracket is
    proven, are rejected.  At 2 levels the objective is flat in the step
    (S = 0), and gamma - alpha = d**2/4 - d/sqrt(2*pi) has the one root
    2*sqrt(2/pi), the minimum-distortion step 2*E|x|, which is returned
    with a FlatObjectiveWarning on every call.
    """
    return _row(levels)[0]


def bussgang_row(levels):
    """{"step", "alpha", "gamma", "gap"} of an L-level quantizer: the
    SDNR-optimal normalized step (``optimal_step``), and the linear gain,
    power ratio and distortion gap gamma - alpha**2 there, at unit input
    variance.  The gap is summed without cancellation, so read it from here,
    not as gamma - alpha**2, which loses its digits at high bit depths.  All
    four are solved once per level count and cached; each call returns a new
    dict, and at 2 levels each call warns as ``optimal_step`` does."""
    step, alpha, gamma, gap = _row(levels)
    return {"step": step, "alpha": alpha, "gamma": gamma, "gap": gap}
