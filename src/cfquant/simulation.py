"""Campaign orchestration: configuration, seeded Monte Carlo loops,
CDF assembly and CSV output.

All randomness flows from one master seed through named substreams keyed
by purpose and trial index, so identical configurations reproduce outputs
byte for byte independent of the worker count, and individual randomness
sources can be varied without disturbing the others.
"""

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from .quantizer import (
    MAX_LEVELS,
    UniformQuantizer,
    bussgang_alpha,
    fronthaul,
    optimal_step,
    power_gain_gamma,
)
from .channel import (
    NoiseModel,
    PathLossModel,
    draw_geometry,
    draw_small_scale,
    large_scale_gains,
    path_loss,
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
    distortion_covariance,
    error_covariance,
    error_covariance_for_weights,
    mmse_weights,
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
    "campaign_manifest",
    "run_nmse_campaign",
    "run_sinr_campaign",
    "validate_closed_forms",
    "write_cdf_csv",
]

NMSE_DEFAULT_BITS = (4, 6, 8, 10, 12, 14, 0)
SINR_DEFAULT_BITS = (6, 8, 10, 12, 14, 0)

# Named substreams of the master seed.
_GEOMETRY, _SHADOWING, _FADING, _NOISE, _SYMBOLS = range(5)

_MC_CHUNK = 10_000


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
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.m_aps < 1 or self.k_users < 1:
            raise ValueError("m_aps and k_users must be at least 1")
        if self.l_serv_m <= 0.0:
            raise ValueError("l_serv_m must be positive")
        if self.sigma_sh_db < 0.0:
            raise ValueError("sigma_sh_db must be nonnegative")
        if self.tau is not None and self.tau < self.k_users:
            raise ValueError(f"tau={self.tau} must be at least k_users={self.k_users}")
        if self.bits_list is not None:
            if not self.bits_list:
                raise ValueError("bits_list must not be empty")
            if any(b < 0 or b != int(b) for b in self.bits_list):
                raise ValueError("bits entries must be nonnegative integers (0 = unquantized)")
            if max(self.bits_list) > math.log2(MAX_LEVELS):
                raise ValueError(
                    f"bits={max(self.bits_list)} is not supported: the step solver is "
                    f"validated up to {MAX_LEVELS} levels"
                )
        if self.n_geometries < 1 or self.n_smallscale < 1:
            raise ValueError("trial counts must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.sigma_s2 <= 0.0:
            raise ValueError("sigma_s2 must be positive")
        # Path loss validity is checked by the model itself.
        self.path_loss_model()

    def path_loss_model(self):
        return PathLossModel(d0=self.d0_m, d1=self.d1_m, gamma0=self.gamma0, gamma1=self.gamma1)

    def noise_model(self):
        return NoiseModel.from_edge_snr_db(
            self.snr_edge_db, self.path_loss_model(), self.l_serv_m, self.sigma_s2
        )

    def resolved_tau(self):
        return self.tau if self.tau is not None else self.k_users

    def resolved_bits(self, default):
        return tuple(self.bits_list) if self.bits_list is not None else tuple(default)

    @classmethod
    def from_mapping(cls, mapping):
        """Build a config from string-valued settings (config file or CLI)."""
        kwargs = {}
        for key, raw in mapping.items():
            if key not in cls.__dataclass_fields__:
                raise ValueError(f"unknown config key: {key}")
            if raw is None:
                continue
            kwargs[key] = _coerce(key, raw)
        return cls(**kwargs)


_INT_FIELDS = {"m_aps", "k_users", "tau", "n_geometries", "n_smallscale", "seed"}


def _coerce(key, raw):
    if key == "bits_list":
        if isinstance(raw, str):
            raw = [part for part in raw.replace(",", " ").split() if part]
        return tuple(int(b) for b in raw)
    if key in _INT_FIELDS:
        return int(raw)
    return float(raw)


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
    """Sorted sample values with empirical cumulative probabilities i/N."""

    label: str
    values: np.ndarray
    probs: np.ndarray


def make_cdf(values, label):
    values = np.sort(np.asarray(values, dtype=float))
    if values.size == 0:
        raise ValueError("cannot build a CDF from an empty sample")
    probs = np.arange(1, values.size + 1, dtype=float) / values.size
    return CdfSeries(label=str(label), values=values, probs=probs)


def bussgang_table(bits_list):
    """Bit depth -> {"step", "alpha", "gamma"}: the SDNR-optimal normalized
    step and the linear gain and power ratio there, at unit input variance.

    bits=0 marks the unquantized fronthaul (step None, alpha = gamma = 1).
    This is the table the campaigns run with and their manifests record.
    """
    table = {}
    for bits in bits_list:
        if bits == 0:
            table[0] = {"step": None, "alpha": 1.0, "gamma": 1.0}
            continue
        step = optimal_step(2**bits)
        q = UniformQuantizer(2**bits, step)
        table[bits] = {
            "step": step,
            "alpha": bussgang_alpha(q, 1.0),
            "gamma": power_gain_gamma(q, 1.0),
        }
    return table


def _draw_gains(cfg, trial):
    geo = draw_geometry(
        cfg.m_aps, cfg.k_users, cfg.l_serv_m, substream(cfg.seed, _GEOMETRY, trial)
    )
    return large_scale_gains(
        geo, cfg.path_loss_model(), cfg.sigma_sh_db, substream(cfg.seed, _SHADOWING, trial)
    )


def _nmse_trial(cfg, table, trial):
    """Closed-form normalized MSE for all AP-user pairs of one geometry draw."""
    beta = _draw_gains(cfg, trial)
    sigma_n2 = cfg.noise_model().sigma_n2
    tau = cfg.resolved_tau()
    out = {}
    for bits, row in table.items():
        _, nmse = estimation_mse(beta, beta, tau, row["alpha"], row["gamma"], sigma_n2)
        out[bits] = nmse.ravel()
    return out


def _sinr_trial(cfg, table, legacy_eq21, trial):
    """Per-user SINR samples (dB) for one geometry draw, pooled over the
    small-scale fading draws, assuming perfect channel knowledge."""
    beta = _draw_gains(cfg, trial)
    noise = cfg.noise_model()
    out = {bits: [] for bits in table}
    for fade in range(cfg.n_smallscale):
        h = draw_small_scale(cfg.m_aps, cfg.k_users, substream(cfg.seed, _FADING, trial, fade))
        G = h * np.sqrt(beta)
        for bits, row in table.items():
            alpha, gamma = row["alpha"], row["gamma"]
            c_delta = distortion_covariance(beta, alpha, gamma, cfg.sigma_s2, noise.sigma_n2)
            if legacy_eq21:
                W = mmse_weights(
                    G, alpha, noise.sigma_n2, c_delta, cfg.sigma_s2, legacy_eq21=True
                )
                cov = error_covariance_for_weights(
                    W, G, alpha, cfg.sigma_s2, noise.sigma_n2, c_delta
                )
            else:
                cov = error_covariance(G, alpha, cfg.sigma_s2, noise.sigma_n2, c_delta)
            sinr = per_user_sinr(cov, cfg.sigma_s2)
            if np.any(sinr == 0.0):
                raise ValueError(
                    f"zero SINR in geometry trial {trial}, fading draw {fade}, "
                    f"bits={bits}: no finite dB value"
                )
            out[bits].append(10.0 * np.log10(sinr))
    return {bits: np.concatenate(chunks) for bits, chunks in out.items()}


def _run_trials(worker, n_trials, n_workers):
    if n_workers <= 1:
        return [worker(trial) for trial in range(n_trials)]
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(worker, range(n_trials)))


def _pool_series(per_trial, bits_list):
    return [
        make_cdf(np.concatenate([trial[bits] for trial in per_trial]), label=bits)
        for bits in bits_list
    ]


def run_nmse_campaign(cfg, n_workers=1, table=None):
    """Empirical CDFs of the closed-form normalized channel-estimation MSE.

    One geometry and shadowing realization per trial; all AP-user pairs are
    pooled across trials into one CDF per bit depth (0 = unquantized).
    ``table`` is the ``bussgang_table`` of those bit depths, built here
    when not given; pass it to record in a manifest the table the run used.
    """
    bits_list = cfg.resolved_bits(NMSE_DEFAULT_BITS)
    if table is None:
        table = bussgang_table(bits_list)
    per_trial = _run_trials(partial(_nmse_trial, cfg, table), cfg.n_geometries, n_workers)
    return _pool_series(per_trial, bits_list)


def run_sinr_campaign(cfg, n_workers=1, legacy_eq21=False, table=None):
    """Empirical CDFs of per-user SINR in dB under perfect channel knowledge.

    Pools k_users * n_smallscale samples per geometry trial and bit depth.
    ``legacy_eq21`` selects the receiver variant whose noise term is not
    scaled by the linear gain squared, for comparison.  ``table`` is as in
    ``run_nmse_campaign``.
    """
    bits_list = cfg.resolved_bits(SINR_DEFAULT_BITS)
    if table is None:
        table = bussgang_table(bits_list)
    per_trial = _run_trials(
        partial(_sinr_trial, cfg, table, legacy_eq21), cfg.n_geometries, n_workers
    )
    return _pool_series(per_trial, bits_list)


def write_cdf_csv(series, out_dir, campaign="cdf", manifest=None):
    """Write one two-column CSV per series plus a manifest of the run.

    Files are named ``{campaign}_b{label}.csv`` with header
    ``value,cum_prob`` and 9 significant digits, rows in ascending value
    order.  Returns the list of paths written.
    """
    if not series:
        raise ValueError("no CDF series to write")
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out_dir}: {exc}") from exc
    paths = []
    for entry in series:
        if entry.values.size == 0:
            raise ValueError(f"series {entry.label!r} is empty")
        path = out_dir / f"{campaign}_b{entry.label}.csv"
        try:
            with open(path, "w", newline="\n") as handle:
                handle.write("value,cum_prob\n")
                for value, prob in zip(entry.values, entry.probs):
                    handle.write(f"{value:.9g},{prob:.9g}\n")
        except OSError as exc:
            raise OSError(f"cannot write CDF file {path}: {exc}") from exc
        paths.append(path)
    if manifest is not None:
        manifest_path = out_dir / "manifest.json"
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        paths.append(manifest_path)
    return paths


def campaign_manifest(cfg, campaign, bits_list, **extra):
    """Plain dict recording the full configuration of a campaign run."""
    manifest = {"campaign": campaign}
    manifest.update(asdict(cfg))
    manifest["tau"] = cfg.resolved_tau()
    manifest["bits_list"] = [int(b) for b in bits_list]
    manifest.update(extra)
    return manifest


@dataclass(frozen=True)
class CheckResult:
    """One verification outcome: the statistic observed, the threshold it
    was held to, and whether it passed."""

    name: str
    passed: bool
    statistic: float
    threshold: float
    detail: str = ""


def _colocated_gains(cfg):
    """Gains for an AP drop serving one cluster of co-located users.

    Every AP then sees the same gain from each user, which is exactly the
    condition under which the pilot-phase distortion is white across
    symbols and the closed-form estimation MSE is exact rather than an
    ensemble approximation.
    """
    rng = substream(cfg.seed, _GEOMETRY, 0)
    ap = rng.uniform(0.0, cfg.l_serv_m, size=(cfg.m_aps, 2))
    spot = rng.uniform(0.0, cfg.l_serv_m, size=2)
    dist = np.sqrt(((ap - spot) ** 2).sum(axis=1))
    gain = path_loss(dist, cfg.path_loss_model())
    return np.repeat(gain[:, None], cfg.k_users, axis=1)


def _estimation_check(cfg, bits, alpha, gamma, n_trials):
    """Empirical pilot-phase MSE per AP-user pair against the closed form,
    on a co-located-users instance where the closed form is exact."""
    beta = _colocated_gains(cfg)
    noise = cfg.noise_model()
    tau = cfg.resolved_tau()
    pilots = make_pilot_book(cfg.k_users, tau)
    c = lmmse_coefficient(beta, beta, tau, alpha, gamma, noise.sigma_n2)
    mse, _ = estimation_mse(beta, beta, tau, alpha, gamma, noise.sigma_n2)
    sqrt_beta = np.sqrt(beta)

    rng_h = substream(cfg.seed, _FADING, 100, bits)
    rng_n = substream(cfg.seed, _NOISE, 100, bits)
    total = np.zeros_like(beta)
    total_sq = np.zeros_like(beta)
    done = 0
    while done < n_trials:
        block = min(_MC_CHUNK, n_trials - done)
        h = (
            rng_h.normal(size=(block, cfg.m_aps, cfg.k_users))
            + 1j * rng_h.normal(size=(block, cfg.m_aps, cfg.k_users))
        ) / math.sqrt(2.0)
        g = h * sqrt_beta
        y = simulate_pilot_phase(g, pilots, noise, bits, rng_n, beta)
        err = np.abs(c * correlate_all(y, pilots) - g) ** 2
        total += err.sum(axis=0)
        total_sq += (err**2).sum(axis=0)
        done += block
    emp = total / n_trials
    var = total_sq / n_trials - emp**2
    se = np.sqrt(np.maximum(var, 0.0) / n_trials)
    z = np.max(np.abs(emp - mse) / se)
    return CheckResult(
        name=f"estimation_mse_mc_b{bits}",
        passed=bool(z <= 3.0),
        statistic=float(z),
        threshold=3.0,
        detail=f"max |z| over {beta.size} AP-user pairs, {n_trials} trials",
    )


def _detection_checks(cfg, bits, alpha, gamma, n_trials):
    """Per-user error power and orthogonality residual at one fixed channel.

    Two error-power comparisons are run.  The first simulates the
    linearized observation itself (scaled signal plus scaled noise plus
    independent distortion of the modeled covariance) and must match the
    closed-form error covariance to pure Monte Carlo accuracy.  The second
    replaces the modeled distortion with the actual quantizer; it probes
    the bridge between the two and can legitimately drift beyond the
    statistical tolerance at high trial counts, because the closed form
    neglects the correlation of quantization distortion across APs heard
    by the same users.  The channel draw uses unit-modulus fading so each
    AP's realized received variance equals the variance its quantizer was
    sized for; a Rayleigh draw would add a second, ensemble-level gap.
    """
    beta = _draw_gains(cfg, 0)
    noise = cfg.noise_model()
    phases = substream(cfg.seed, _FADING, 200, bits).uniform(size=(cfg.m_aps, cfg.k_users))
    G = np.exp(2j * math.pi * phases) * np.sqrt(beta)
    c_delta = distortion_covariance(beta, alpha, gamma, cfg.sigma_s2, noise.sigma_n2)
    W = mmse_weights(G, alpha, noise.sigma_n2, c_delta, cfg.sigma_s2)
    cov = error_covariance(G, alpha, cfg.sigma_s2, noise.sigma_n2, c_delta)
    diag = np.real(np.diagonal(cov))
    sigma_m2 = received_variance(beta, cfg.sigma_s2, noise.sigma_n2)

    rng_s = substream(cfg.seed, _SYMBOLS, 200, bits)
    rng_n = substream(cfg.seed, _NOISE, 200, bits)
    k, m = cfg.k_users, cfg.m_aps
    model = _ErrAccumulator(k, m)
    quantized = _ErrAccumulator(k, m)
    done = 0
    while done < n_trials:
        block = min(_MC_CHUNK, n_trials - done)
        s = math.sqrt(cfg.sigma_s2 / 2.0) * (
            rng_s.normal(size=(k, block)) + 1j * rng_s.normal(size=(k, block))
        )
        # One unquantized observation feeds both pipelines; fronthaul at the
        # data-phase variance is what simulate_uplink applies at ``bits``.
        x = simulate_uplink(G, s, noise, 0, rng_n, beta)
        d = np.sqrt(c_delta / 2.0)[:, None] * (
            rng_n.normal(size=x.shape) + 1j * rng_n.normal(size=x.shape)
        )
        y_model = alpha * x + d
        y_quant = fronthaul(x, bits, sigma_m2)
        model.add(W @ y_model - s, y_model)
        quantized.add(W @ y_quant - s, y_quant)
        done += block

    z_model, z_orth = model.z_scores(diag, n_trials)
    emp, se = quantized.error_power(n_trials)
    rel_bias = float(np.max(np.abs(emp - diag) / diag))
    rel_floor = float(np.max(3.0 * se / diag))
    bridge_threshold = max(0.05, rel_floor)
    return [
        CheckResult(
            name=f"detection_mse_model_b{bits}",
            passed=bool(z_model <= 3.0),
            statistic=float(z_model),
            threshold=3.0,
            detail=f"linearized-model pipeline, max |z| over {k} users, {n_trials} trials",
        ),
        CheckResult(
            name=f"detection_orthogonality_b{bits}",
            passed=bool(z_orth <= 4.0),
            statistic=float(z_orth),
            threshold=4.0,
            detail="max |z| of the error-observation correlation, entrywise",
        ),
        CheckResult(
            name=f"detection_mse_quantized_b{bits}",
            passed=bool(rel_bias <= bridge_threshold),
            statistic=rel_bias,
            threshold=bridge_threshold,
            detail=(
                f"quantizer pipeline, max relative gap to the closed form over {k} "
                f"users, {n_trials} trials; bounds the neglected cross-AP "
                "distortion correlation"
            ),
        ),
    ]


class _ErrAccumulator:
    """Running sums for per-user error power and error-observation cross
    moments of one detection pipeline."""

    def __init__(self, k_users, m_aps):
        self.err = np.zeros(k_users)
        self.err_sq = np.zeros(k_users)
        self.resid = np.zeros((k_users, m_aps), dtype=complex)
        self.resid_re_sq = np.zeros((k_users, m_aps))
        self.resid_im_sq = np.zeros((k_users, m_aps))

    def add(self, e, y):
        p = np.abs(e) ** 2
        self.err += p.sum(axis=1)
        self.err_sq += (p**2).sum(axis=1)
        cross = e[:, None, :] * y.conj()[None, :, :]
        self.resid += cross.sum(axis=2)
        self.resid_re_sq += (cross.real**2).sum(axis=2)
        self.resid_im_sq += (cross.imag**2).sum(axis=2)

    def error_power(self, n_trials):
        emp = self.err / n_trials
        var = self.err_sq / n_trials - emp**2
        return emp, np.sqrt(np.maximum(var, 0.0) / n_trials)

    def z_scores(self, expected_diag, n_trials):
        emp, se = self.error_power(n_trials)
        z_mse = np.max(np.abs(emp - expected_diag) / se)
        mean = self.resid / n_trials
        se_re = np.sqrt(np.maximum(self.resid_re_sq / n_trials - mean.real**2, 0.0) / n_trials)
        se_im = np.sqrt(np.maximum(self.resid_im_sq / n_trials - mean.imag**2, 0.0) / n_trials)
        z_orth = max(np.max(np.abs(mean.real) / se_re), np.max(np.abs(mean.imag) / se_im))
        return float(z_mse), float(z_orth)


def validate_closed_forms(cfg, n_trials=100_000):
    """Run the sample-level pipeline and compare against the closed forms.

    Returns a list of CheckResult: algebraic identity checks for the
    unquantized limit, then Monte Carlo agreement of the pilot-phase MSE
    and of the detection error power at each requested bit depth.
    Intended for small configurations; ``n_trials`` must be at least 2,
    the fewest that give a sample variance.
    """
    if n_trials < 2:
        raise ValueError(f"n_trials must be at least 2, got {n_trials}")
    results = [_unquantized_estimation_identity(cfg), _unquantized_detection_identity(cfg)]
    est_bits = cfg.resolved_bits((4, 8, 12))
    det_bits = cfg.resolved_bits((6, 10, 14))
    for bits in est_bits:
        if bits == 0:
            continue
        row = bussgang_table((bits,))[bits]
        results.append(_estimation_check(cfg, bits, row["alpha"], row["gamma"], n_trials))
    for bits in det_bits:
        if bits == 0:
            continue
        row = bussgang_table((bits,))[bits]
        results.extend(_detection_checks(cfg, bits, row["alpha"], row["gamma"], n_trials))
    return results


def _unquantized_estimation_identity(cfg):
    beta = _draw_gains(cfg, 0)
    sigma_n2 = cfg.noise_model().sigma_n2
    tau = cfg.resolved_tau()
    mse, _ = estimation_mse(beta, beta, tau, 1.0, 1.0, sigma_n2)
    textbook = beta * sigma_n2 / (tau * beta + sigma_n2)
    err = np.max(np.abs(mse - textbook) / textbook)
    return CheckResult(
        name="unquantized_estimation_identity",
        passed=bool(err <= 1e-12),
        statistic=float(err),
        threshold=1e-12,
        detail="closed form vs textbook LMMSE error at alpha=gamma=1",
    )


def _unquantized_detection_identity(cfg):
    beta = _draw_gains(cfg, 0)
    noise = cfg.noise_model()
    h = draw_small_scale(cfg.m_aps, cfg.k_users, substream(cfg.seed, _FADING, 300))
    G = h * np.sqrt(beta)
    cov = error_covariance(G, 1.0, 1.0, noise.sigma_n2, np.zeros(cfg.m_aps))
    A = G @ G.conj().T + noise.sigma_n2 * np.eye(cfg.m_aps)
    textbook = np.eye(cfg.k_users) - G.conj().T @ np.linalg.solve(A, G)
    err = np.max(np.abs(cov - textbook))
    return CheckResult(
        name="unquantized_detection_identity",
        passed=bool(err <= 1e-12),
        statistic=float(err),
        threshold=1e-12,
        detail="error covariance vs textbook MMSE at alpha=gamma=1, sigma_s2=1",
    )
