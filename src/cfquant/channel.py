"""Network geometry, propagation, fading and noise for the uplink model.

Access points and user terminals are dropped uniformly over a square
service area.  Large-scale gains combine a three-slope path loss with
i.i.d. log-normal shadowing; small-scale fading is i.i.d. Rayleigh.  The
noise floor is anchored to the SNR of a link spanning half the service
width, and the per-AP received variance drives quantizer sizing.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PathLossModel",
    "path_loss",
    "noise_variance",
    "draw_geometry",
    "large_scale_gains",
    "draw_small_scale",
    "complex_normal",
    "complex_normal_runs",
    "received_variance",
]

# Standard normal draws per ``rng.standard_normal`` call: one 128 KB buffer.
_RUN = 16_384


@dataclass(frozen=True)
class PathLossModel:
    """Three-slope power-law gain: flat below d0, exponent gamma0 up to d1,
    then gamma1 beyond.  Continuous and nonincreasing in distance."""

    d0: float = 10.0
    d1: float = 100.0
    gamma0: float = 2.0
    gamma1: float = 3.5

    def __post_init__(self):
        if not (0.0 < self.d0 < self.d1):
            raise ValueError(f"need 0 < d0 < d1, got d0={self.d0}, d1={self.d1}")
        if not (self.gamma0 > 0.0 and self.gamma1 > 0.0):
            raise ValueError("path loss exponents must be positive")


def path_loss(d, model):
    """Linear gain of the three-slope model at distance(s) ``d`` in meters."""
    d = np.asarray(d, dtype=float)
    if not np.all(d >= 0.0):
        raise ValueError("distance must be nonnegative")
    with np.errstate(divide="ignore"):
        mid = (d / model.d0) ** (-model.gamma0)
        far = (model.d1 / model.d0) ** (-model.gamma0) * (d / model.d1) ** (-model.gamma1)
    out = np.where(d < model.d0, 1.0, np.where(d < model.d1, mid, far))
    return out if out.ndim else float(out)


def noise_variance(model, l_serv, snr_edge):
    """Noise variance putting a user at distance l_serv/2 at the given SNR:
    path_loss(l_serv/2)/snr_edge, on every slope of the path loss model.
    A variance that underflows to 0 or overflows is rejected."""
    if not snr_edge > 0.0:
        raise ValueError("snr_edge must be positive")
    return _check_powers(path_loss(l_serv / 2.0, model) / snr_edge)


def _check_powers(sigma_n2, sigma_s2=1.0):
    """``sigma_n2``, once it is checked positive and finite and the symbol
    power ``sigma_s2`` positive; a ValueError otherwise."""
    if not sigma_s2 > 0.0:
        raise ValueError("sigma_s2 must be positive")
    if not 0.0 < sigma_n2 < math.inf:
        raise ValueError(f"sigma_n2 must be positive and finite, got {sigma_n2}")
    return sigma_n2


def draw_geometry(m_aps, k_users, l_serv, rng):
    """AP and UT positions (ap, ut), shapes (M, 2) and (K, 2) in meters,
    dropped i.i.d. uniformly over the square service area, APs first."""
    if m_aps < 1 or k_users < 1:
        raise ValueError("need at least one AP and one user")
    ap = rng.uniform(0.0, l_serv, size=(m_aps, 2))
    ut = rng.uniform(0.0, l_serv, size=(k_users, 2))
    return ap, ut


def large_scale_gains(ap, ut, model, sigma_sh_db, rng):
    """Large-scale gain matrix beta, shape (M, K), of the AP and UT positions.

    beta = 10**(xi/10) * PL(d) with d the Euclidean AP-to-UT distance and xi
    i.i.d. zero-mean normal of standard deviation sigma_sh_db, independent
    across all AP-UT pairs.
    """
    if not sigma_sh_db >= 0.0:
        raise ValueError("sigma_sh_db must be nonnegative")
    diff = ap[:, None, :] - ut[None, :, :]
    d = np.sqrt((diff**2).sum(axis=2))
    shadow_db = rng.normal(0.0, sigma_sh_db, size=d.shape) if sigma_sh_db > 0.0 else np.zeros(d.shape)
    return 10.0 ** (shadow_db / 10.0) * path_loss(d, model)


def draw_small_scale(m_aps, k_users, rng):
    """I.i.d. unit-variance circularly-symmetric complex normal matrix (M, K)."""
    return complex_normal(rng, (m_aps, k_users), 1.0 / math.sqrt(2.0))


def complex_normal(rng, shape, scale, add_to=None):
    """``scale * (re + 1j*im)`` for i.i.d. standard normal ``re`` and ``im`` of ``shape``.

    All real parts are drawn before all imaginary parts, as by two consecutive
    ``rng.normal(size=shape)`` calls, through one 128 KB buffer in the blocks
    numpy's buffered iterator hands out.  ``scale`` broadcasts against ``shape``,
    is never copied whole, and multiplies each part, the same bits as the complex
    product; numpy divides complex by a real d as a product with 1.0 / d.

    ``add_to``, a C-contiguous complex array of ``shape``, receives the draws in
    place and is returned: the bits of ``add_to + complex_normal(rng, shape,
    scale)``, since complex addition adds part by part, without the temporary.
    """
    if add_to is None:
        out = np.empty(shape, dtype=complex)
    elif (
        not isinstance(add_to, np.ndarray)
        or add_to.shape != tuple(shape)
        or add_to.dtype != complex
        or not add_to.flags.c_contiguous
    ):
        raise ValueError(f"add_to must be a C-contiguous complex array of shape {tuple(shape)}")
    else:
        out = add_to
    scale, run = np.broadcast_to(scale, out.shape), np.empty(_RUN)
    for part in (out.real, out.imag):
        _draw_scaled(rng, part, scale, run, add=add_to is not None)
    return out


def complex_normal_runs(rng, shape, scale, rows, real):
    """``complex_normal(rng, shape, scale)`` in runs of ``rows`` leading-axis rows.

    All real parts are drawn at the first run, times ``scale``, into the float
    buffer ``real`` (its first prod(shape) values); each run's imaginary parts
    are drawn as the run is yielded, over the rows of ``real`` that its real
    parts were just copied out of.  So the runs, concatenated, are the bits of
    ``complex_normal``, and a block's working set is one float per value plus
    one run.  Each run is yielded in one complex buffer that the next run
    overwrites; the rows of ``real`` behind it are not read again, so the
    caller may reuse them.
    """
    shape = tuple(shape)
    if real.dtype != float or not real.flags.c_contiguous or real.size < math.prod(shape):
        raise ValueError(
            f"real must be a C-contiguous float array of at least {math.prod(shape)} values"
        )
    real = real.reshape(-1)[: math.prod(shape)].reshape(shape)
    return _runs(rng, np.broadcast_to(scale, shape), rows, real)


def _runs(rng, scale, rows, real):
    """The generator of ``complex_normal_runs``, once its arguments are checked.
    Every draw lands in contiguous rows of ``real``, so no buffer of draws is
    needed: one ``standard_normal`` call gives the values of the same count
    drawn in several, and each part is scaled as ``_draw_scaled`` scales it."""
    np.multiply(rng.standard_normal(out=real), scale, out=real)
    out = np.empty((min(rows, len(real)), *real.shape[1:]), dtype=complex)
    for start in range(0, len(real), rows):
        z, part = out[: len(real) - start], real[start : start + rows]
        z.real = part
        np.multiply(rng.standard_normal(out=part), scale[start : start + rows], out=z.imag)
        yield z


def _draw_scaled(rng, part, scale, run, add):
    """Write (or add) standard normal draws times ``scale``, which has the shape
    of ``part``, into ``part`` in C order, drawing through the buffer ``run``.
    numpy's buffered iterator hands out the blocks, each of at most ``run.size``
    values, so ``scale`` may be a broadcast view: it is never copied whole."""
    with np.nditer(
        [part, scale], ["external_loop", "buffered", "zerosize_ok"],
        [["readwrite"], ["readonly"]], order="C", buffersize=run.size,
    ) as blocks:
        for dst, factor in blocks:
            draws = rng.standard_normal(out=run[: dst.size])
            if add:
                dst += np.multiply(draws, factor, out=draws)
            else:
                np.multiply(draws, factor, out=dst)


def received_variance(beta_row, sigma_s2, sigma_n2):
    """Total received variance at an AP: sigma_s2 * sum(beta) + sigma_n2.

    ``beta_row`` may be a single AP's gain row (K,) or the full (M, K)
    matrix, in which case one variance per AP is returned.  This is the
    variance the quantizer at each AP is sized against, conditioned on the
    large-scale gains being known there.
    """
    beta_row = np.asarray(beta_row, dtype=float)
    if not np.all(beta_row >= 0.0):
        raise ValueError("gains must be nonnegative")
    total = sigma_s2 * beta_row.sum(axis=-1) + sigma_n2
    return total if np.ndim(total) else float(total)
