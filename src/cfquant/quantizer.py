"""Midrise uniform quantizer and its Bussgang linearization.

An L-level uniform quantizer applied to a zero-mean Gaussian input can be
written as g(x) = alpha*x + d, where the distortion d is uncorrelated with
the input.  This module provides the quantizer transfer function, closed
forms for the linear gain alpha and the output power ratio gamma, the
resulting distortion power and SDNR, and a numerical solver for the
SDNR-optimal step size.  All coefficients depend on the step only through
the normalized step delta/sigma, so the solver works in normalized units.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import erfc

__all__ = [
    "FlatObjectiveWarning",
    "UniformQuantizer",
    "BussgangFactors",
    "quantize",
    "quantize_complex",
    "fronthaul",
    "bussgang_alpha",
    "power_gain_gamma",
    "bussgang_factors",
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

# Largest level count the step solver accepts: its search interval
# (0, _SEARCH_HI] is validated to bracket the optimum only up to here.
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


@dataclass(frozen=True)
class UniformQuantizer:
    """L-level midrise quantizer with step size ``step``.

    Output alphabet is {(l + 1/2)*step : l = -L/2, ..., L/2 - 1}, symmetric
    about zero and saturating at +/-(L-1)/2*step.
    """

    levels: int
    step: float

    def __post_init__(self):
        if self.levels < 2 or self.levels % 2 != 0:
            raise ValueError(f"levels must be even and >= 2, got {self.levels}")
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise ValueError(f"step must be positive and finite, got {self.step}")

    @property
    def bits(self):
        """Fronthaul bits per real sample, log2(levels)."""
        return math.log2(self.levels)

    @property
    def saturation(self):
        """Largest output magnitude, (L-1)/2 * step."""
        return 0.5 * (self.levels - 1) * self.step


@dataclass(frozen=True)
class BussgangFactors:
    """Linearization coefficients of a quantizer for a Gaussian input.

    alpha is the linear gain, gamma the output/input power ratio,
    distortion_power the variance of the uncorrelated distortion term and
    sdnr = alpha**2/(gamma - alpha**2) the signal-to-distortion ratio
    (infinite in the distortion-free limit).
    """

    alpha: float
    gamma: float
    distortion_power: float
    sdnr: float


def quantize(x, q):
    """Apply the midrise transfer function of ``q`` to real samples.

    Bins are half open, (l*step, (l+1)*step], so x = 0 maps to -step/2.
    Saturates at +/-(L-1)/2*step.  Accepts scalars or arrays; rejects
    non-finite input.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("quantizer input must be finite")
    out = _midrise(x, q.levels, q.step)
    return out if out.ndim else float(out)


def _midrise(x, levels, step):
    """Core midrise map; ``step`` may be an array broadcast against ``x``."""
    half = levels // 2
    idx = np.clip(np.ceil(x / step) - 1.0, -half, half - 1)
    return (idx + 0.5) * step


def quantize_complex(x, levels, steps):
    """Quantize in-phase and quadrature components independently.

    ``steps`` is one step or an array that broadcasts against ``x``, so
    every row (AP) may carry its own step.  Rejects non-finite input.
    """
    x = np.asarray(x)
    if not np.all(np.isfinite(x)):
        raise ValueError("quantizer input must be finite")
    out = _midrise(x.real, levels, steps) + 1j * _midrise(x.imag, levels, steps)
    return out if out.ndim else complex(out)


def fronthaul(x, bits, variance):
    """Samples as forwarded over a ``bits``-bit fronthaul, same shape as ``x``.

    ``x`` holds complex samples shaped (..., M, T), AP m in row m, with any
    leading trial axes.  AP m quantizes I and Q at the SDNR-optimal step
    for its complex variance ``variance[m]``, i.e. the normalized optimum
    times sqrt(variance[m]/2).  ``bits == 0`` is the unquantized fronthaul
    and returns ``x`` itself.
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
    return quantize_complex(x, levels, steps[:, None])


def _series_orders(levels, d):
    """Orders l = 1, ..., L/2 - 1 of the alpha and gamma series with
    l*min(d) < _UNDERFLOW_ARG, for a positive array ``d``.

    Every later term is exactly 0.0 at every point of ``d``, so the series
    over these orders is the same float as over all of them.
    """
    ls = np.arange(1, levels // 2, dtype=float)
    return ls[ls * d.min() < _UNDERFLOW_ARG]


def _alpha_normalized(levels, step_norm):
    """Linear gain for unit input variance; step_norm may be an array.
    The series skips only underflowed terms (_series_orders)."""
    d = np.atleast_1d(np.asarray(step_norm, dtype=float))
    ls = _series_orders(levels, d)
    if ls.size:
        series = 2.0 * np.exp(-0.5 * np.multiply.outer(ls**2, d**2)).sum(axis=0)
    else:
        series = np.zeros_like(d)
    out = d / math.sqrt(2.0 * math.pi) * (series + 1.0)
    return out if np.ndim(step_norm) else float(out[0])


def _gamma_normalized(levels, step_norm):
    """Output power ratio for unit input variance; step_norm may be an array.
    The series skips only underflowed terms (_series_orders)."""
    d = np.atleast_1d(np.asarray(step_norm, dtype=float))
    ls = _series_orders(levels, d)
    if ls.size:
        series = 4.0 * (ls @ _gaussian_tail(np.multiply.outer(ls, d)))
    else:
        series = np.zeros_like(d)
    out = d**2 * (0.25 + series)
    return out if np.ndim(step_norm) else float(out[0])


def bussgang_alpha(q, sigma_x):
    """Linear gain of ``q`` for zero-mean Gaussian input with std sigma_x.

    Equals E[x*g(x)]/sigma_x**2 and depends only on the normalized step
    step/sigma_x and the level count.
    """
    if not sigma_x > 0.0:
        raise ValueError("sigma_x must be positive")
    return float(_alpha_normalized(q.levels, q.step / sigma_x))


def power_gain_gamma(q, sigma_x):
    """Output/input power ratio E[g(x)**2]/sigma_x**2 for Gaussian input."""
    if not sigma_x > 0.0:
        raise ValueError("sigma_x must be positive")
    return float(_gamma_normalized(q.levels, q.step / sigma_x))


def distortion_power(alpha, gamma, sigma_x2):
    """Variance of the Bussgang distortion term, sigma_x2*(gamma - alpha**2)."""
    if not sigma_x2 > 0.0:
        raise ValueError("sigma_x2 must be positive")
    gap = gamma - alpha * alpha
    if gap < -_CONSISTENCY_TOL * max(1.0, alpha * alpha):
        raise ValueError(f"inconsistent factors: gamma={gamma} < alpha^2={alpha * alpha}")
    return sigma_x2 * max(gap, 0.0)


def sdnr(alpha, gamma):
    """Signal-to-distortion ratio alpha**2/(gamma - alpha**2).

    Returns ``math.inf`` in the distortion-free limit gamma == alpha**2.
    """
    a2 = alpha * alpha
    if not a2 > 0.0:
        raise ValueError("alpha must be nonzero")
    gap = gamma - a2
    if gap < -_CONSISTENCY_TOL * max(1.0, a2):
        raise ValueError(f"inconsistent factors: gamma={gamma} < alpha^2={a2}")
    if gap <= 0.0:
        return math.inf
    return a2 / gap


def bussgang_factors(q, sigma_x):
    """All linearization coefficients of ``q`` at input std sigma_x."""
    a = bussgang_alpha(q, sigma_x)
    g = power_gain_gamma(q, sigma_x)
    return BussgangFactors(
        alpha=a,
        gamma=g,
        distortion_power=distortion_power(a, g, sigma_x * sigma_x),
        sdnr=sdnr(a, g),
    )


def _sdnr_objective(levels, step_norm):
    """alpha**2/gamma at unit variance; the quantity maximized over the step."""
    a = _alpha_normalized(levels, step_norm)
    return a * a / _gamma_normalized(levels, step_norm)


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
    """SDNR-optimal normalized step (step/sigma_x) for an L-level quantizer.

    Solved by a coarse grid scan over (0, 8] followed by golden-section
    refinement; level counts above MAX_LEVELS are rejected, since that
    interval is validated to bracket the optimum only up to there.  The
    alpha and gamma series of L/2 - 1 terms keep only the orders l with
    l*step < 40 at the smallest step evaluated together: every later term
    is exactly 0.0 in float64, so the result is the same float as with all
    terms, while the coarse scan at MAX_LEVELS evaluates 2.8% of them.  For
    levels == 2 the objective is flat in the step; the canonical
    minimum-distortion value 2*sqrt(2/pi) is returned and a
    FlatObjectiveWarning is issued.
    """
    if levels < 2 or levels % 2 != 0:
        raise ValueError(f"levels must be even and >= 2, got {levels}")
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
