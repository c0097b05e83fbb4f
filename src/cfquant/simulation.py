"""Campaign orchestration: configuration, seeded Monte Carlo loops,
CDF assembly and CSV output.

All randomness flows from one master seed through named substreams keyed
by purpose and trial index, so identical configurations reproduce outputs
byte for byte, and individual randomness sources can be varied without
disturbing the others.  Campaign trials and validation checks run through
one task runner (``_run_tasks``): in the calling thread, joined by helper
threads when there is more than one worker; the thread count changes no output.
"""

import json
import math
import numbers
import os
import threading
import typing
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from .quantizer import MAX_LEVELS, bussgang_row, distortion_power, fronthaul
from .channel import (
    PathLossModel,
    _check_powers,
    complex_normal,
    complex_normal_runs,
    draw_geometry,
    draw_small_scale,
    large_scale_gains,
    noise_variance,
    received_variance,
)
from .estimation import (
    correlate_all,
    estimation_mse,
    lmmse_coefficient,
    make_pilot_book,
    simulate_pilot_phase,
)
from .detection import (
    _openblas,
    error_variances,
    mmse_receiver,
    per_user_sinr,
    simulate_uplink,
)

__all__ = [
    "SimulationConfig",
    "CdfSeries",
    "CheckResult",
    "NMSE_DEFAULT_BITS",
    "SINR_DEFAULT_BITS",
    "substream",
    "make_cdf",
    "parse_config_file",
    "bussgang_table",
    "run_nmse_campaign",
    "run_sinr_campaign",
    "validate_closed_forms",
    "write_cdf_csv",
]

NMSE_DEFAULT_BITS = (4, 6, 8, 10, 12, 14, 0)
SINR_DEFAULT_BITS = (6, 8, 10, 12, 14, 0)

# Named substreams of the master seed.
_GEOMETRY, _SHADOWING, _FADING, _NOISE, _SYMBOLS = range(5)

# Trials per Monte Carlo block.  The block and the real-then-imaginary draw order
# (channel.complex_normal) are part of the random-stream contract: changing either
# changes every Monte Carlo statistic and the README's 40-seed false-alarm table.
_MC_CHUNK = 10_000
# Trials per run inside an estimation block; not part of the stream contract, so it
# changes no draw.  A check holds one block of real parts (6.4 MB at the validate
# defaults) and one run of three complex arrays, its channels, pilot observations and
# one product: 0.48 MB in runs of 250 trials, for a tracemalloc peak of 7.0e6 bytes.
# In runs of 500 or 400 trials, some `sim validate` processes peaked about 2.4 MB
# higher: the helper thread's glibc arena grew to 9.5-9.8 MB instead of 7.3 (in about
# one process in four, in runs of 500).
_CORRELATE_ROWS = 250
# Rows per write of a CDF file, which bounds the writer's working set whatever N is.
_CSV_ROWS = 4_096


def substream(seed, stream, *keys):
    """Independent generator derived from the master seed, a stream id and
    optional trial keys; the same arguments always produce the same stream."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(stream), *map(int, keys))))


@dataclass(frozen=True)
class SimulationConfig:
    """Campaign parameters; the defaults reproduce the reference scenario
    of 200 APs serving 40 users over a 1 km square at 20 dB edge SNR."""

    m_aps: int = 200
    k_users: int = 40
    l_serv_m: float = 1000.0
    snr_edge_db: float = 20.0
    sigma_sh_db: float = 8.0
    tau: int | None = None
    bits_list: tuple[int, ...] | None = None
    n_geometries: int = 50
    n_smallscale: int = 10
    seed: int = 1
    sigma_s2: float = 1.0
    d0_m: float = 10.0
    d1_m: float = 100.0
    gamma0: float = 2.0
    gamma1: float = 3.5

    def __post_init__(self):
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if kind is float:
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value}")
                object.__setattr__(self, name, float(value))
            if kind is int and value is not None:
                if not isinstance(value, numbers.Integral):
                    raise ValueError(f"{name} must be an integer, got {value!r}")
                object.__setattr__(self, name, int(value))  # numpy integers are not JSON
        if self.m_aps < 1 or self.k_users < 1:
            raise ValueError("m_aps and k_users must be at least 1")
        if self.l_serv_m <= 0.0:
            raise ValueError("l_serv_m must be positive")
        if self.sigma_sh_db < 0.0:
            raise ValueError("sigma_sh_db must be nonnegative")
        if self.tau is None:
            object.__setattr__(self, "tau", self.k_users)
        if self.tau < self.k_users:
            raise ValueError(f"tau={self.tau} must be at least k_users={self.k_users}")
        if self.bits_list is not None:
            bits_list = tuple(self.bits_list)  # a numpy array has no truth value
            if not bits_list:
                raise ValueError("bits_list must not be empty")
            if any(b < 0 or b != int(b) for b in bits_list):
                raise ValueError("bits entries must be nonnegative integers (0 = unquantized)")
            if len(set(bits_list)) < len(bits_list):
                raise ValueError(f"bits_list repeats a bit depth: {[int(b) for b in bits_list]}")
            object.__setattr__(self, "bits_list", tuple(int(b) for b in bits_list))
            if max(self.bits_list) > math.log2(MAX_LEVELS):
                raise ValueError(
                    f"bits={max(self.bits_list)} is not supported: the step solver is "
                    f"validated up to {MAX_LEVELS} levels"
                )
        if self.n_geometries < 1 or self.n_smallscale < 1:
            raise ValueError("trial counts must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        unsupported = f"snr_edge_db={self.snr_edge_db} is not supported: 10**(snr_edge_db/10)"
        try:
            if 10.0 ** (self.snr_edge_db / 10.0) == 0.0:
                raise ValueError(f"{unsupported} underflows")
        except OverflowError:
            raise ValueError(f"{unsupported} overflows") from None
        # noise_variance checks sigma_n2, the path loss model its own parameters
        _check_powers(self.sigma_n2, self.sigma_s2)

    def path_loss_model(self):
        return PathLossModel(d0=self.d0_m, d1=self.d1_m, gamma0=self.gamma0, gamma1=self.gamma1)

    @property
    def sigma_n2(self):
        """Receive noise variance, anchored by ``noise_variance`` to the edge SNR."""
        snr_edge = 10.0 ** (self.snr_edge_db / 10.0)
        return noise_variance(self.path_loss_model(), self.l_serv_m, snr_edge)

    def resolved_bits(self, default):
        return tuple(self.bits_list) if self.bits_list is not None else tuple(default)

    @classmethod
    def from_mapping(cls, mapping):
        """Build a config from settings (config file or CLI).  Text is parsed as
        its field's type; any other value goes to the constructor as given."""
        kwargs = {}
        for key, raw in mapping.items():
            if key not in cls.__dataclass_fields__:
                raise ValueError(f"unknown config key: {key}")
            if raw is None:
                continue
            if isinstance(raw, str):
                try:
                    raw = _int_list(raw) if key == "bits_list" else _FIELD_TYPES[key](raw)
                except ValueError:
                    kind = {int: "an integer", float: "a number"}.get(_FIELD_TYPES[key], "integers")
                    raise ValueError(f"{key}: expected {kind}, got {raw!r}") from None
            kwargs[key] = raw
        return cls(**kwargs)


# Field name -> annotated type, reading ``X | None`` as X: checked at construction,
# parses config-file values and types the CLI flags.
_FIELD_TYPES = {
    f.name: next(t for t in typing.get_args(f.type) or (f.type,) if t is not type(None))
    for f in fields(SimulationConfig)
}


def _int_list(text):
    """The integers of a comma- or space-separated string, as a tuple."""
    return tuple(int(part) for part in text.replace(",", " ").split())


def parse_config_file(path):
    """Flat key=value settings file; '#' starts a comment."""
    settings = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        settings[key] = value
    return settings


@dataclass(frozen=True)
class CdfSeries:
    """Sorted sample values of one empirical CDF; the i-th of N has
    cumulative probability i/N."""

    label: str
    values: np.ndarray


def make_cdf(samples, labels):
    """One CdfSeries per row of ``samples``, B samples of N values as a (B, N)
    array, labelled in order by ``labels``: the row sorted.  A float array is
    sorted in place, and its rows are the series' values."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] == 0:
        raise ValueError(f"samples must be a (B, N) array with N >= 1, got shape {samples.shape}")
    samples.sort(axis=-1)
    return [CdfSeries(str(label), values) for values, label in zip(samples, labels, strict=True)]


def bussgang_table(bits_list):
    """Bit depth -> ``bussgang_row(2**bits)``, with bits=0 the unquantized
    fronthaul (step None, alpha = gamma = 1, gap 0): the table the campaigns
    run with and their manifests record."""
    unquantized = {"step": None, "alpha": 1.0, "gamma": 1.0, "gap": 0.0}
    return {bits: bussgang_row(2**bits) if bits else dict(unquantized) for bits in bits_list}


def _draw_gains(cfg, trial):
    ap, ut = draw_geometry(
        cfg.m_aps, cfg.k_users, cfg.l_serv_m, substream(cfg.seed, _GEOMETRY, trial)
    )
    return large_scale_gains(
        ap, ut, cfg.path_loss_model(), cfg.sigma_sh_db, substream(cfg.seed, _SHADOWING, trial)
    )


def _nmse_trial(cfg, table, trial):
    """Closed-form normalized MSE for all AP-user pairs of one geometry draw,
    shape (bits, M*K) in table order."""
    beta = _draw_gains(cfg, trial)
    sigma_n2 = cfg.sigma_n2
    return np.stack([
        estimation_mse(beta, cfg.tau, row["alpha"], row["gap"], sigma_n2)[1].ravel()
        for row in table.values()
    ])


def _sinr_trial(cfg, table, legacy_eq21, trial):
    """Per-user SINR samples (dB) for one geometry draw, pooled over the
    small-scale fading draws, assuming perfect channel knowledge: shape
    (bits, K * n_smallscale) in table order.  Each fading draw makes one
    error-variance call for the stack of bit depths; the SINRs of all draws
    are formed at once."""
    beta = _draw_gains(cfg, trial)
    sigma_n2 = cfg.sigma_n2
    alpha = np.array([row["alpha"] for row in table.values()])
    variance = received_variance(beta, cfg.sigma_s2, sigma_n2)
    c_delta = np.stack([distortion_power(row["gap"], variance) for row in table.values()])
    gain = np.sqrt(beta)
    var = np.empty((cfg.n_smallscale, len(table), cfg.k_users))
    for fade in range(cfg.n_smallscale):
        G = draw_small_scale(cfg.m_aps, cfg.k_users, substream(cfg.seed, _FADING, trial, fade))
        G *= gain
        var[fade] = error_variances(G, alpha, cfg.sigma_s2, sigma_n2, c_delta, legacy_eq21)
    sinr = per_user_sinr(var, cfg.sigma_s2)
    zero = np.any(sinr == 0.0, axis=-1)
    if zero.any():
        fade, first = np.argwhere(zero)[0]
        raise ValueError(
            f"zero SINR in geometry trial {trial}, fading draw {fade}, "
            f"bits={list(table)[first]}: no finite dB value"
        )
    return (10.0 * np.log10(sinr)).swapaxes(0, 1).reshape(len(table), -1)


def _run_campaign(trial, cfg, default_bits, n_workers, *args):
    """One CDF per bit depth, pooling ``trial(cfg, table, *args, t)`` over the trials t."""
    bits_list = cfg.resolved_bits(default_bits)
    table = bussgang_table(bits_list)
    tasks = [partial(trial, cfg, table, *args, t) for t in range(cfg.n_geometries)]
    return make_cdf(np.concatenate(_run_tasks(tasks, n_workers), axis=1), bits_list)


def run_nmse_campaign(cfg, n_workers=None):
    """Empirical CDFs of the closed-form normalized channel-estimation MSE.

    One geometry and shadowing realization per trial; all AP-user pairs are
    pooled across trials into one CDF per bit depth (0 = unquantized).  The
    trials run on ``n_workers`` threads, by default the usable cores
    (``_run_tasks``); the CDFs do not depend on it.
    """
    return _run_campaign(_nmse_trial, cfg, NMSE_DEFAULT_BITS, n_workers)


def run_sinr_campaign(cfg, n_workers=None, legacy_eq21=False):
    """Empirical CDFs of per-user SINR in dB under perfect channel knowledge.

    Pools k_users * n_smallscale samples per geometry trial and bit depth.
    ``legacy_eq21`` selects the receiver variant whose noise term is not
    scaled by the linear gain squared, for comparison.  The trials run on
    ``n_workers`` threads, by default the usable cores (``_run_tasks``);
    the CDFs do not depend on it.
    """
    return _run_campaign(_sinr_trial, cfg, SINR_DEFAULT_BITS, n_workers, legacy_eq21)


def write_cdf_csv(series, out_dir, campaign="cdf", cfg=None, **extra):
    """Write one CSV per series and, given ``cfg``, the run's manifest; return their paths.

    Files are named ``{campaign}_b{label}.csv`` with header ``value,cum_prob`` and
    9 significant digits, rows in ascending value order, the i-th of N at
    cumulative probability i/N.  The files are open side by side and written chunk by
    chunk, ``_CSV_ROWS`` rows of each, the i/N text of a chunk formatted once per N.
    ``{campaign}_manifest.json`` holds the campaign, the fields of ``cfg``, the
    labels as ``bits_list``, their ``bussgang_table`` and ``extra``.  A series that
    is not a 1-D real array, is empty, has a non-finite value, repeats an earlier
    series' label (and so its file) or, given ``cfg``, is not labelled with a bit
    depth is a ValueError before any file is written.
    """
    if not series:
        raise ValueError("no CDF series to write")
    labels = set()
    for entry in series:
        if entry.label in labels:
            raise ValueError(f"series {entry.label!r} repeats a label")
        labels.add(entry.label)
        if entry.values.ndim != 1 or np.iscomplexobj(entry.values):
            raise ValueError(f"series {entry.label!r} is not a 1-D real array")
        if entry.values.size == 0:
            raise ValueError(f"series {entry.label!r} is empty")
        if not np.isfinite(entry.values).all():
            raise ValueError(f"series {entry.label!r} has a non-finite value")
        if cfg is not None and not entry.label.isdecimal():
            raise ValueError(f"series {entry.label!r} is not labelled with a bit depth")
    if cfg is not None:
        bits_list = [int(entry.label) for entry in series]
        manifest = {"campaign": campaign, **asdict(cfg), "bits_list": bits_list,
                    "bussgang_table": bussgang_table(bits_list), **extra}
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out_dir}: {exc}") from exc
    paths = [out_dir / f"{campaign}_b{entry.label}.csv" for entry in series]
    try:
        with ExitStack() as files:
            handles = []
            for path in paths:
                handles.append(files.enter_context(open(path, "w", newline="\n")))
                handles[-1].write("value,cum_prob\n")
            for start in range(0, max(entry.values.size for entry in series), _CSV_ROWS):
                formats = {}  # N -> the chunk's row format, its i/N text formatted once per N
                for entry, path, handle in zip(series, paths, handles):
                    n = entry.values.size
                    if start < n:
                        if n not in formats:
                            formats[n] = _row_format(start, n)
                        chunk = entry.values[start : start + _CSV_ROWS].tolist()
                        handle.write(formats[n] % tuple(chunk))
            for path, handle in zip(paths, handles):
                handle.close()
    except OSError as exc:
        raise OSError(f"cannot write CDF file {path}: {exc}") from exc
    if cfg is not None:
        manifest_path = out_dir / f"{campaign}_manifest.json"
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        paths.append(manifest_path)
    return paths


def _row_format(start, n):
    """The %-format of the CSV rows from row ``start`` of a series of N, at most
    _CSV_ROWS of them: "%.9g," for the value, then the row's i/N as text.  arange / n
    is the correctly rounded i / n, and % formats as f"{x:.9g}"."""
    cum_prob = np.arange(start + 1, min(start + _CSV_ROWS, n) + 1) / n
    return ("%%.9g,%.9g\n" * cum_prob.size) % tuple(cum_prob.tolist())


@dataclass(frozen=True)
class CheckResult:
    """One verification outcome: the statistic observed and the threshold it
    was held to; it passes when the statistic is at most the threshold, so a
    NaN statistic fails."""

    name: str
    statistic: float
    threshold: float
    detail: str = ""

    @property
    def passed(self):
        return bool(self.statistic <= self.threshold)


def _blocks(n_trials, stop):
    """Sizes of the ``_MC_CHUNK``-trial blocks of a Monte Carlo check; none
    more once the event ``stop`` is set."""
    for done in range(0, n_trials, _MC_CHUNK):
        if stop.is_set():
            return
        yield min(_MC_CHUNK, n_trials - done)


def _parts(x):
    """``x`` itself, or its real and imaginary parts when it is complex."""
    return (x.real, x.imag) if np.iscomplexobj(x) else (x,)


class _Moments:
    """Running sum and sum of squares, of the given shape, of Monte Carlo
    samples along one trial axis.  A complex sum stays complex; squares are
    summed per part, so each part gets its own standard error."""

    def __init__(self, shape, axis, dtype=float):
        self.axis = axis
        self.total = np.zeros(shape, dtype)
        self.total_sq = np.zeros((len(_parts(self.total)), *self.total.shape))

    def add(self, x, row=...):
        """Add a block of samples to the sums at ``row`` (all of them by
        default); ``x`` is left holding their squares, per part."""
        self.total[row] += x.sum(axis=self.axis)
        for total_sq, part in zip(self.total_sq, _parts(x)):
            part **= 2
            total_sq[row] += part.sum(axis=self.axis)

    def mean_se(self, n_trials):
        """Sample mean and its standard error, per part along a new first axis."""
        mean = np.stack(_parts(self.total / n_trials))
        var = self.total_sq / n_trials - mean**2
        return mean, np.sqrt(np.maximum(var, 0.0) / n_trials)

    def max_z(self, n_trials, expected=0.0):
        """Largest |mean - expected| / standard error over entries and parts."""
        mean, se = self.mean_se(n_trials)
        return float(np.max(np.abs(mean - expected) / se))


def _colocated_gains(cfg):
    """Gains for an AP drop serving one cluster of co-located users.

    Every AP then sees the same gain from each user, which is exactly the
    condition under which the pilot-phase distortion is white across
    symbols and the closed-form estimation MSE is exact rather than an
    ensemble approximation.
    """
    rng = substream(cfg.seed, _GEOMETRY, 0)
    ap, ut = draw_geometry(cfg.m_aps, 1, cfg.l_serv_m, rng)
    beta = large_scale_gains(ap, ut, cfg.path_loss_model(), 0.0, rng)
    return np.repeat(beta, cfg.k_users, axis=1)


def _estimation_check(cfg, bits, alpha, gap, n_trials, stop):
    """Empirical pilot-phase MSE per AP-user pair against the closed form,
    on a co-located-users instance where the closed form is exact.  A list
    of one CheckResult, as ``_detection_checks`` returns a list; an empty
    one when the event ``stop`` is set."""
    beta = _colocated_gains(cfg)
    sigma_n2 = cfg.sigma_n2
    tau = cfg.tau
    pilots = make_pilot_book(cfg.k_users, tau)
    c = lmmse_coefficient(beta, tau, alpha, gap, sigma_n2)
    mse, _ = estimation_mse(beta, tau, alpha, gap, sigma_n2)
    sqrt_beta = np.sqrt(beta)

    rng_h = substream(cfg.seed, _FADING, 100, bits)
    rng_n = substream(cfg.seed, _NOISE, 100, bits)
    err_power = _Moments(beta.shape, axis=0)
    # The block's real parts, drawn first: the fading's rows then hold each run's
    # estimation error |c*r - g| once the run has formed its g from them.
    fading_re = np.empty((_MC_CHUNK, *beta.shape))
    noise_re = np.empty((_MC_CHUNK, cfg.m_aps, tau))
    for block in _blocks(n_trials, stop):
        fading = complex_normal_runs(
            rng_h, (block, *beta.shape), 1.0 / math.sqrt(2.0), _CORRELATE_ROWS, fading_re
        )
        pilot_noise = complex_normal_runs(
            rng_n, (block, cfg.m_aps, tau), math.sqrt(sigma_n2 / 2.0), _CORRELATE_ROWS,
            noise_re,
        )
        err = fading_re[:block]
        for start, g, n in zip(range(0, block, _CORRELATE_ROWS), fading, pilot_noise):
            g *= sqrt_beta
            d = correlate_all(simulate_pilot_phase(g, pilots, sigma_n2, bits, n, beta), pilots)
            d *= c
            d -= g
            np.abs(d, out=err[start : start + len(g)])
            del d  # before the next run forms its own
        del g, n  # the runs' buffers, before the next block's
        err **= 2
        err_power.add(err)
    if stop.is_set():
        return []
    return [
        CheckResult(
            name=f"estimation_mse_mc_b{bits}",
            statistic=err_power.max_z(n_trials, mse),
            threshold=3.0,
            detail=f"max |z| over {beta.size} AP-user pairs, {n_trials} trials",
        )
    ]


def _detection_checks(cfg, bits, alpha, gap, n_trials, stop):
    """Per-user error power and orthogonality residual at one fixed channel;
    no result when the event ``stop`` is set.

    Two error-power comparisons are run.  The first simulates the
    linearized observation itself (scaled signal plus scaled noise plus
    independent distortion of the modeled covariance) and must match the
    closed-form error covariance to pure Monte Carlo accuracy; its
    error-observation correlation is the orthogonality residual.  The second
    replaces the modeled distortion with the actual quantizer and is checked
    on error power only.  It probes the bridge between the two and can
    legitimately drift beyond the statistical tolerance at high trial
    counts, because the closed form neglects the correlation of
    quantization distortion across APs heard by the same users.  The
    channel draw uses unit-modulus fading so each AP's realized received
    variance equals the variance its quantizer was sized for; a Rayleigh
    draw would add a second, ensemble-level gap.
    """
    beta = _draw_gains(cfg, 0)
    sigma_n2 = cfg.sigma_n2
    phases = substream(cfg.seed, _FADING, 200, bits).uniform(size=(cfg.m_aps, cfg.k_users))
    G = np.exp(2j * math.pi * phases) * np.sqrt(beta)
    sigma_m2 = received_variance(beta, cfg.sigma_s2, sigma_n2)
    c_delta = distortion_power(gap, sigma_m2)
    W, _ = mmse_receiver(G, alpha, cfg.sigma_s2, sigma_n2, c_delta)
    diag = error_variances(G, alpha, cfg.sigma_s2, sigma_n2, c_delta)

    rng_s = substream(cfg.seed, _SYMBOLS, 200, bits)
    rng_n = substream(cfg.seed, _NOISE, 200, bits)
    k, m = cfg.k_users, cfg.m_aps
    model, quantized = _Moments(k, axis=1), _Moments(k, axis=1)
    orthogonality = _Moments((k, m), axis=1, dtype=complex)  # row k: e_k * conj(y)
    for block in _blocks(n_trials, stop):
        s = complex_normal(rng_s, (k, block), math.sqrt(cfg.sigma_s2 / 2.0))
        # One unquantized observation feeds both pipelines; fronthaul at the
        # data-phase variance is what simulate_uplink applies at ``bits``.
        x = simulate_uplink(G, s, cfg.sigma_s2, sigma_n2, 0, rng_n, beta)
        y = complex_normal(rng_n, x.shape, np.sqrt(c_delta / 2.0)[:, None], add_to=alpha * x)
        # The quantized pipeline runs over x, then the model pipeline over y into the
        # same error array, and each user's error-observation products over the spent x.
        e = W @ fronthaul(x, bits, sigma_m2, out=x)
        e -= s
        quantized.add(np.abs(e) ** 2)
        np.matmul(W, y, out=e)
        e -= s
        model.add(np.abs(e) ** 2)
        np.conjugate(y, out=y)
        for user, e_k in enumerate(e):
            orthogonality.add(np.multiply(e_k, y, out=x), user)
        del x, y  # before the next block draws
    if stop.is_set():
        return []

    (emp,), (se,) = quantized.mean_se(n_trials)
    rel_bias = float(np.max(np.abs(emp - diag) / diag))
    bridge_threshold = max(0.05, float(np.max(3.0 * se / diag)))
    return [
        CheckResult(
            name=f"detection_mse_model_b{bits}",
            statistic=model.max_z(n_trials, diag),
            threshold=3.0,
            detail=f"linearized-model pipeline, max |z| over {k} users, {n_trials} trials",
        ),
        CheckResult(
            name=f"detection_orthogonality_b{bits}",
            statistic=orthogonality.max_z(n_trials),
            threshold=4.0,
            detail="max |z| of the error-observation correlation, entrywise",
        ),
        CheckResult(
            name=f"detection_mse_quantized_b{bits}",
            statistic=rel_bias,
            threshold=bridge_threshold,
            detail=(
                f"quantizer pipeline, max relative gap to the closed form over {k} "
                f"users, {n_trials} trials; bounds the neglected cross-AP "
                "distortion correlation"
            ),
        ),
    ]


def validate_closed_forms(cfg, n_trials=100_000):
    """Run the sample-level pipeline and compare against the closed forms.

    Returns a list of CheckResult: algebraic identity checks for the
    unquantized limit, then Monte Carlo agreement of the pilot-phase MSE
    and of the detection error power at each requested bit depth.
    Intended for small configurations; ``n_trials`` must be at least 2,
    the fewest that give a sample variance.

    The Monte Carlo checks draw from substreams of their own, so they run
    concurrently, on one worker per usable core with the calling thread the
    first of them (``_run_tasks``); their statistics and order do not depend
    on it.  When one check fails, the others end at their next block.
    """
    if n_trials < 2:
        raise ValueError(f"n_trials must be at least 2, got {n_trials}")
    results = [_unquantized_estimation_identity(cfg), _unquantized_detection_identity(cfg)]
    # The estimation checks take longest and go first.
    stop = threading.Event()
    checks = [
        partial(check, cfg, bits, row["alpha"], row["gap"], n_trials, stop)
        for check, bits in [
            *((_estimation_check, b) for b in cfg.resolved_bits((4, 8, 12))),
            *((_detection_checks, b) for b in cfg.resolved_bits((6, 10, 14))),
        ]
        if bits != 0
        for row in [bussgang_row(2**bits)]
    ]
    for check_results in _run_tasks(checks, stop=stop):
        results.extend(check_results)
    return results


def _run_tasks(tasks, n_workers=None, stop=None):
    """Results of ``tasks``, callables of no argument, in submission order.

    The one place that runs anything concurrently: ``n_workers`` workers
    (default: the usable cores), at most one per task, with numpy's OpenBLAS
    held to one thread.  The calling thread is the first worker, so it starts
    ``min(n_workers, len(tasks)) - 1`` helper threads, none at one worker; all
    take the tasks in submission order.  As soon as any task raises, or on an
    interrupt, the event ``stop`` is set, for tasks that poll it, and no
    further task starts.  The error raised is then that of the first failed
    task in submission order, so it does not depend on the thread count.
    """
    if n_workers is None:
        affinity = getattr(os, "sched_getaffinity", None)
        n_workers = len(affinity(0)) if affinity else os.cpu_count() or 1
    elif n_workers < 1:
        raise ValueError(f"n_workers must be at least 1, got {n_workers}")
    stop = stop if stop is not None else threading.Event()
    pending, lock = enumerate(tasks), threading.Lock()
    results, errors = [None] * len(tasks), {}

    def work():
        while not stop.is_set():
            with lock:
                index, task = next(pending, (None, None))
            if task is None:
                return
            try:
                results[index] = task()
            except BaseException as exc:
                errors[index] = exc
                stop.set()

    # Helpers count themselves while they may hold a task, and the caller waits on
    # that count, not on Thread.join: on Python 3.11 an interrupted join marks a
    # running thread as stopped.  A helper that starts after stop is set takes no task.
    helping, n_helping = threading.Condition(), 0

    def helper():
        nonlocal n_helping
        with helping:
            n_helping += 1
        try:
            work()
        finally:
            with helping:
                n_helping -= 1
                helping.notify_all()

    def wait_for_helpers():
        with helping:
            while n_helping:
                helping.wait(0.1)  # timed, so an interrupt gets through

    with _one_blas_thread():
        try:
            for _ in range(min(n_workers, len(tasks)) - 1):
                threading.Thread(target=helper).start()
            work()
            wait_for_helpers()
        except BaseException:  # an interrupt, outside this thread's own tasks
            stop.set()
            wait_for_helpers()
            raise
    if errors:
        raise errors[min(errors)]
    return results


@contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS to one thread, restoring the previous count on
    exit, also on an exception; without that library, do nothing.  Threads
    that each run their own small products then leave no BLAS helper
    threads spinning on the cores they need."""
    lib = _openblas()
    if lib is None:
        yield
        return
    before = lib.get_num_threads()
    lib.set_num_threads(1)
    try:
        yield
    finally:
        lib.set_num_threads(before)


def _unquantized_estimation_identity(cfg):
    beta = _draw_gains(cfg, 0)
    sigma_n2 = cfg.sigma_n2
    mse, _ = estimation_mse(beta, cfg.tau, 1.0, 0.0, sigma_n2)
    textbook = beta * sigma_n2 / (cfg.tau * beta + sigma_n2)
    err = np.max(np.abs(mse - textbook) / textbook)
    return CheckResult(
        name="unquantized_estimation_identity",
        statistic=float(err),
        threshold=1e-12,
        detail="closed form vs textbook LMMSE error at alpha=gamma=1",
    )


def _unquantized_detection_identity(cfg):
    beta = _draw_gains(cfg, 0)
    sigma_n2 = cfg.sigma_n2
    h = draw_small_scale(cfg.m_aps, cfg.k_users, substream(cfg.seed, _FADING, 300))
    G = h * np.sqrt(beta)
    _, cov = mmse_receiver(G, 1.0, 1.0, sigma_n2, np.zeros(cfg.m_aps))
    A = G @ G.conj().T + sigma_n2 * np.eye(cfg.m_aps)
    textbook = np.eye(cfg.k_users) - G.conj().T @ np.linalg.solve(A, G)
    err = np.max(np.abs(cov - textbook))
    return CheckResult(
        name="unquantized_detection_identity",
        statistic=float(err),
        threshold=1e-12,
        detail="error covariance vs textbook MMSE at alpha=gamma=1, sigma_s2=1",
    )
