import math
from dataclasses import dataclass

import numpy as np
import pytest

from cfquant import detection
from cfquant.channel import received_variance
from cfquant.detection import (
    distortion_covariance,
    error_covariance,
    error_variances,
    mmse_weights,
    per_user_sinr,
    simulate_uplink,
)
from cfquant.quantizer import bussgang_row, fronthaul, optimal_step

SIGMA_N2 = 1e-3


@dataclass(frozen=True)
class DetectionResult:
    """Soft symbol estimates with the receiver that produced them, the
    error covariance and the per-user SINR (linear)."""

    s_hat: np.ndarray
    weights: np.ndarray
    error_cov: np.ndarray
    sinr: np.ndarray


def detect(W, y):
    """Soft symbol estimates W @ y."""
    return W @ y


def detection_result(G, sigma_s2, sigma_n2, c_delta, alpha, y):
    """Bundle receiver, estimates, error covariance and SINR for one block."""
    W = mmse_weights(G, alpha, sigma_n2, c_delta, sigma_s2)
    cov = error_covariance(G, alpha, sigma_s2, sigma_n2, c_delta)
    var = error_variances(G, alpha, sigma_s2, sigma_n2, c_delta)
    return DetectionResult(detect(W, y), W, cov, per_user_sinr(var, sigma_s2))


def crandn(rng, *shape):
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / math.sqrt(2.0)


def factors_at_optimum(bits):
    row = bussgang_row(2**bits)
    return row["alpha"], row["gap"]


def random_network(rng, m_aps, k_users, unit_modulus=False):
    """Gains plus a channel draw; with ``unit_modulus`` the fading has unit
    magnitude so the realized per-AP power equals the sized power."""
    beta = rng.uniform(0.01, 1.0, size=(m_aps, k_users))
    if unit_modulus:
        h = np.exp(2j * math.pi * rng.uniform(size=(m_aps, k_users)))
    else:
        h = crandn(rng, m_aps, k_users)
    return beta, h * np.sqrt(beta)


def observation_covariance(G, alpha, sigma_n2, c_delta, sigma_s2=1.0, legacy_eq21=False):
    """M x M covariance of the linearized observation, with the same noise
    scaling as ``mmse_weights``."""
    noise_scale = sigma_n2 if legacy_eq21 else alpha**2 * sigma_n2
    return alpha**2 * sigma_s2 * (G @ G.conj().T) + np.diag(c_delta + noise_scale)


def direct_mmse_weights(G, alpha, sigma_n2, c_delta, sigma_s2=1.0, legacy_eq21=False):
    """Reference receiver alpha*sigma_s2*G^H*A^-1 from the M x M observation
    covariance A; with ``legacy_eq21`` the receiver whose noise term is not
    scaled by alpha**2."""
    A = observation_covariance(G, alpha, sigma_n2, c_delta, sigma_s2, legacy_eq21)
    return alpha * sigma_s2 * np.linalg.solve(A, G).conj().T


def error_covariance_for_weights(W, G, alpha, sigma_s2, sigma_n2, c_delta):
    """Error covariance of an arbitrary linear receiver W.

    General quadratic form (alpha*W*G - I) sigma_s2 (.)^H + W (alpha**2*
    sigma_n2*I + C_delta) W^H; used for receiver perturbation checks and
    as the reference for the legacy noise-scaling variant, where W is not
    the exact MMSE receiver of the linearized model.  Takes the stacks of
    ``mmse_weights``.
    """
    alpha = np.asarray(alpha, dtype=float)[..., None]
    bias = alpha[..., None] * (W @ G) - np.eye(G.shape[1])
    noise_diag = np.asarray(c_delta, dtype=float) + alpha**2 * sigma_n2
    W_h = W.conj().swapaxes(-1, -2)
    cov = sigma_s2 * (bias @ bias.conj().swapaxes(-1, -2)) + (W * noise_diag[..., None, :]) @ W_h
    return 0.5 * (cov + cov.conj().swapaxes(-1, -2))


def direct_form_cases():
    """(G, alpha, sigma_n2, beta, gap, sigma_s2) draws for comparisons with
    the direct M x M forms; the last is badly conditioned."""
    rng = np.random.default_rng(25)
    cases = []
    for _ in range(5):
        beta, G = random_network(rng, 12, 5)
        alpha, gap = factors_at_optimum(int(rng.integers(2, 8)))
        cases.append((G, alpha, SIGMA_N2, beta, gap, 1.0 + rng.uniform()))
    # A fine quantizer at high SNR leaves the observation covariance
    # badly conditioned.
    beta, G = random_network(rng, 20, 4)
    alpha, gap = factors_at_optimum(14)
    cases.append((G, alpha, 1e-5, beta, gap, 1.0))
    return cases


class TestSimulateUplink:
    def test_unquantized_bypass(self):
        rng = np.random.default_rng(0)
        beta, G = random_network(rng, 5, 3)
        s = crandn(np.random.default_rng(1), 3)
        y = simulate_uplink(G, s, 1.0, SIGMA_N2, 0, np.random.default_rng(2), beta)
        rng2 = np.random.default_rng(2)
        n = rng2.normal(size=5) + 1j * rng2.normal(size=5)
        np.testing.assert_allclose(y, G @ s + math.sqrt(SIGMA_N2 / 2.0) * n)

    def test_zero_symbols_gives_quantized_noise(self):
        # Output lands on each AP's midrise alphabet, whose step is sized at
        # the data-phase variance.
        rng = np.random.default_rng(3)
        beta, G = random_network(rng, 4, 2)
        zero = np.zeros(2, dtype=complex)
        y = simulate_uplink(G, zero, 1.0, SIGMA_N2, 4, np.random.default_rng(4), beta)
        steps = optimal_step(16) * np.sqrt(received_variance(beta, 1.0, SIGMA_N2) / 2.0)
        assert y.shape == (4,)
        np.testing.assert_allclose(
            np.abs(y.real) / steps - 0.5, np.round(np.abs(y.real) / steps - 0.5), atol=1e-9
        )
        assert np.all(np.abs(y.real) < 8 * steps)

    def test_leading_trial_axis(self):
        rng = np.random.default_rng(24)
        beta, G = random_network(rng, 3, 2)
        s = crandn(rng, 5, 2, 7)
        y = simulate_uplink(G, s, 1.0, SIGMA_N2, 6, np.random.default_rng(25), beta)
        rng2 = np.random.default_rng(25)
        n = rng2.normal(size=(5, 3, 7)) + 1j * rng2.normal(size=(5, 3, 7))
        x = G @ s + np.sqrt(SIGMA_N2 / 2.0) * n
        assert y.shape == (5, 3, 7)
        np.testing.assert_array_equal(
            y, fronthaul(x, 6, received_variance(beta, 1.0, SIGMA_N2))
        )

    def test_output_power_matches_gamma(self):
        # With unit-modulus fading the received variance at each AP equals
        # the sized variance exactly, so the quantized power is gamma times
        # the received variance.
        rng = np.random.default_rng(5)
        m_aps, k_users, trials = 3, 4, 100_000
        beta, G = random_network(rng, m_aps, k_users, unit_modulus=True)
        sigma_m2 = received_variance(beta, 1.0, SIGMA_N2)
        bits = 3
        gamma = bussgang_row(2**bits)["gamma"]
        acc = np.zeros(m_aps)
        for _ in range(trials // 10_000):
            s = crandn(rng, k_users, 10_000)
            y = simulate_uplink(G, s, 1.0, SIGMA_N2, bits, rng, beta)
            acc += np.mean(np.abs(y) ** 2, axis=1)
        np.testing.assert_allclose(acc / (trials // 10_000), gamma * sigma_m2, rtol=0.02)


class TestDistortionCovariance:
    def test_zero_in_distortion_free_limit(self):
        beta = np.ones((3, 2))
        np.testing.assert_array_equal(
            distortion_covariance(beta, 0.0, 1.0, 0.1), np.zeros(3)
        )

    def test_single_ap_value(self):
        row = bussgang_row(4)
        out = distortion_covariance(np.array([[1.0]]), row["gap"], 1.0, 0.1)
        assert out[0] == pytest.approx((row["gamma"] - row["alpha"] ** 2) * 1.1, rel=1e-12)

    def test_empirical_distortion_power(self):
        # E|y_m - alpha*x_m|^2 per AP matches the diagonal within 3%.  The
        # channel has unit-modulus fading so the sample at each AP really is
        # Gaussian at the variance its quantizer was sized for (with
        # Gaussian data symbols the unconditional mixture is heavier
        # tailed and carries extra overload distortion).
        rng = np.random.default_rng(7)
        m_aps, k_users, trials = 3, 4, 100_000
        beta, G = random_network(rng, m_aps, k_users, unit_modulus=True)
        bits = 3
        alpha, gap = factors_at_optimum(bits)
        c_delta = distortion_covariance(beta, gap, 1.0, SIGMA_N2)
        sigma_m2 = received_variance(beta, 1.0, SIGMA_N2)
        acc = np.zeros(m_aps)
        for _ in range(trials // 10_000):
            s = crandn(rng, k_users, 10_000)
            x = simulate_uplink(G, s, 1.0, SIGMA_N2, 0, rng, beta)
            y = fronthaul(x, bits, sigma_m2)
            acc += np.mean(np.abs(y - alpha * x) ** 2, axis=1)
        np.testing.assert_allclose(acc / (trials // 10_000), c_delta, rtol=0.03)

    def test_cross_ap_distortion_uncorrelated(self):
        # Independent fading across APs makes the per-AP inputs independent,
        # so the distortion components decorrelate over the ensemble.
        rng = np.random.default_rng(8)
        m_aps, k_users, trials = 4, 3, 200_000
        beta = rng.uniform(0.05, 0.6, size=(m_aps, k_users))
        bits = 3
        alpha, _ = factors_at_optimum(bits)
        sigma_m2 = received_variance(beta, 1.0, SIGMA_N2)
        cross = np.zeros((m_aps, m_aps), dtype=complex)
        cross_re = np.zeros((m_aps, m_aps))
        cross_im = np.zeros((m_aps, m_aps))
        for _ in range(trials // 10_000):
            h = crandn(rng, 10_000, m_aps, k_users)
            s = crandn(rng, 10_000, k_users, 1)
            x = simulate_uplink(h * np.sqrt(beta), s, 1.0, SIGMA_N2, 0, rng, beta)
            d = (fronthaul(x, bits, sigma_m2) - alpha * x)[..., 0]
            prod = d[:, :, None] * d.conj()[:, None, :]
            cross += prod.sum(axis=0)
            cross_re += (prod.real**2).sum(axis=0)
            cross_im += (prod.imag**2).sum(axis=0)
        mean = cross / trials
        se_re = np.sqrt((cross_re / trials - mean.real**2) / trials)
        se_im = np.sqrt((cross_im / trials - mean.imag**2) / trials)
        off = ~np.eye(m_aps, dtype=bool)
        assert np.all(np.abs(mean.real[off]) < 4.0 * se_re[off])
        assert np.all(np.abs(mean.imag[off]) < 4.0 * se_im[off])

    def test_rejects_inconsistent_factors(self):
        # A negative gap (gamma below alpha**2), or one that is not a finite number.
        for gap in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="distortion gap"):
                distortion_covariance(np.ones((2, 2)), gap, 1.0, 0.1)


class TestMmseWeights:
    def test_textbook_limit(self):
        rng = np.random.default_rng(9)
        _, G = random_network(rng, 6, 3)
        W = mmse_weights(G, 1.0, SIGMA_N2, np.zeros(6))
        A = G @ G.conj().T + SIGMA_N2 * np.eye(6)
        np.testing.assert_allclose(W, G.conj().T @ np.linalg.inv(A), atol=1e-12)

    def test_scalar_case(self):
        g = np.array([[0.6 - 0.8j]])
        W = mmse_weights(g, 1.0, 0.5, np.zeros(1))
        assert W[0, 0] == pytest.approx(np.conj(g[0, 0]) / (abs(g[0, 0]) ** 2 + 0.5))

    def test_orthogonality_principle(self):
        # Under the linearized observation model the MMSE error is
        # uncorrelated with the observation, entrywise.
        rng = np.random.default_rng(10)
        m_aps, k_users, trials = 5, 3, 100_000
        beta, G = random_network(rng, m_aps, k_users)
        alpha, gap = factors_at_optimum(2)
        c_delta = distortion_covariance(beta, gap, 1.0, SIGMA_N2)
        W = mmse_weights(G, alpha, SIGMA_N2, c_delta)
        resid = np.zeros((k_users, m_aps), dtype=complex)
        re_sq = np.zeros((k_users, m_aps))
        im_sq = np.zeros((k_users, m_aps))
        for _ in range(trials // 10_000):
            s = crandn(rng, k_users, 10_000)
            n = crandn(rng, m_aps, 10_000) * math.sqrt(SIGMA_N2)
            d = crandn(rng, m_aps, 10_000) * np.sqrt(c_delta)[:, None]
            y = alpha * (G @ s) + alpha * n + d
            e = W @ y - s
            prod = e[:, None, :] * y.conj()[None, :, :]
            resid += prod.sum(axis=2)
            re_sq += (prod.real**2).sum(axis=2)
            im_sq += (prod.imag**2).sum(axis=2)
        mean = resid / trials
        se_re = np.sqrt((re_sq / trials - mean.real**2) / trials)
        se_im = np.sqrt((im_sq / trials - mean.imag**2) / trials)
        assert np.all(np.abs(mean.real) < 4.0 * se_re)
        assert np.all(np.abs(mean.imag) < 4.0 * se_im)

    def test_singular_corner_reported(self):
        rng = np.random.default_rng(11)
        _, G = random_network(rng, 6, 2)
        with pytest.raises(np.linalg.LinAlgError):
            mmse_weights(G, 1.0, 0.0, np.zeros(6))

    def test_singular_diagonal_reported_with_invertible_observation_covariance(self):
        # With no more APs than users, G G^H is invertible on its own, but
        # the receiver is defined through diag(b)^-1 and b = 0 here.
        rng = np.random.default_rng(24)
        _, G = random_network(rng, 2, 4)
        with pytest.raises(np.linalg.LinAlgError):
            mmse_weights(G, 1.0, 0.0, np.zeros(2))

    @pytest.mark.parametrize("legacy_eq21", [False, True])
    def test_matches_direct_form(self, legacy_eq21):
        # Entrywise agreement degrades with the conditioning of the M x M
        # observation covariance for both forms alike, so the gap is
        # measured against the largest entry.  The library forms no legacy
        # receiver, so that variant is checked through its error covariance.
        conds = []
        for G, alpha, sigma_n2, beta, gap, sigma_s2 in direct_form_cases():
            c_delta = distortion_covariance(beta, gap, sigma_s2, sigma_n2)
            ref = direct_mmse_weights(G, alpha, sigma_n2, c_delta, sigma_s2, legacy_eq21)
            if legacy_eq21:
                got = error_covariance(G, alpha, sigma_s2, sigma_n2, c_delta, legacy_eq21=True)
                ref = error_covariance_for_weights(ref, G, alpha, sigma_s2, sigma_n2, c_delta)
            else:
                got = mmse_weights(G, alpha, sigma_n2, c_delta, sigma_s2)
            assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-9
            A = observation_covariance(G, alpha, sigma_n2, c_delta, sigma_s2, legacy_eq21)
            conds.append(np.linalg.cond(A))
        assert max(conds) >= 1e6


    @pytest.mark.parametrize("k_users", [1, 3])
    def test_reciprocal_scaling_is_division_bitwise(self, k_users):
        # The receiver is scaled by 1.0 / b: the bits of dividing by b.
        rng = np.random.default_rng(31)
        beta, G = random_network(rng, 12, k_users)
        alpha, gap = factors_at_optimum(6)
        c_delta = distortion_covariance(beta, gap, 1.0, SIGMA_N2)
        P = error_covariance(G, alpha, 1.0, SIGMA_N2, c_delta)
        b = c_delta + alpha**2 * SIGMA_N2
        np.testing.assert_array_equal(
            mmse_weights(G, alpha, SIGMA_N2, c_delta), alpha * (P @ G.conj().T) / b
        )


class TestDetect:
    def test_zero_observation(self):
        W = np.ones((2, 4))
        np.testing.assert_array_equal(detect(W, np.zeros(4)), np.zeros(2))

    def test_near_zero_forcing_at_high_snr(self):
        rng = np.random.default_rng(12)
        _, G = random_network(rng, 30, 3)
        s = crandn(rng, 3)
        for sn2 in (1e-4, 1e-6, 1e-8):
            W = mmse_weights(G, 1.0, sn2, np.zeros(30))
            err = np.linalg.norm(W @ (G @ s) - s) / np.linalg.norm(s)
            assert err < math.sqrt(sn2) * 50

    def test_per_user_error_power_matches_closed_form(self):
        # Fixed channel with unit-modulus fading keeps the realized per-AP
        # power equal to the sized power; the residual gap to the closed
        # form (neglected cross-AP distortion correlation) stays at the
        # percent level when gains come from the propagation model, which
        # concentrates each AP on nearby users.
        from cfquant.channel import PathLossModel, draw_geometry, large_scale_gains

        rng = np.random.default_rng(54321)
        m_aps, k_users, trials = 20, 4, 100_000
        ap, ut = draw_geometry(m_aps, k_users, 1000.0, rng)
        beta = large_scale_gains(ap, ut, PathLossModel(), 8.0, rng)
        phases = np.random.default_rng(999).uniform(size=(m_aps, k_users))
        G = np.exp(2j * math.pi * phases) * np.sqrt(beta)
        bits = 6
        alpha, gap = factors_at_optimum(bits)
        c_delta = distortion_covariance(beta, gap, 1.0, SIGMA_N2)
        W = mmse_weights(G, alpha, SIGMA_N2, c_delta)
        cov = error_covariance(G, alpha, 1.0, SIGMA_N2, c_delta)
        acc = np.zeros(k_users)
        for _ in range(trials // 10_000):
            s = crandn(rng, k_users, 10_000)
            y = simulate_uplink(G, s, 1.0, SIGMA_N2, bits, rng, beta)
            acc += np.mean(np.abs(W @ y - s) ** 2, axis=1)
        np.testing.assert_allclose(acc / (trials // 10_000), np.real(np.diag(cov)), rtol=0.03)


class TestErrorCovariance:
    def test_scalar_unquantized(self):
        g = np.array([[0.7 + 0.4j]])
        cov = error_covariance(g, 1.0, 1.0, 0.2, np.zeros(1))
        expected = 0.2 / (abs(g[0, 0]) ** 2 + 0.2)
        assert cov[0, 0].real == pytest.approx(expected, rel=1e-12)

    def test_hermitian_psd_with_bounded_diagonal(self):
        rng = np.random.default_rng(14)
        for sigma_s2 in (1.0, 2.5):
            beta, G = random_network(rng, 10, 4)
            alpha, gap = factors_at_optimum(3)
            c_delta = distortion_covariance(beta, gap, sigma_s2, SIGMA_N2)
            cov = error_covariance(G, alpha, sigma_s2, SIGMA_N2, c_delta)
            np.testing.assert_allclose(cov, cov.conj().T, atol=1e-14)
            eigs = np.linalg.eigvalsh(cov)
            assert np.all(eigs > 0.0)
            assert np.all(np.real(np.diag(cov)) <= sigma_s2 + 1e-12)

    def test_direct_and_information_forms_agree(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            beta, G = random_network(rng, 12, 5)
            alpha, gap = factors_at_optimum(int(rng.integers(2, 8)))
            c_delta = distortion_covariance(beta, gap, 1.0, SIGMA_N2)
            a = error_covariance(G, alpha, 1.0, SIGMA_N2, c_delta)
            W = direct_mmse_weights(G, alpha, SIGMA_N2, c_delta)
            b = np.eye(5) - alpha * (W @ G)
            assert np.max(np.abs(a - b)) / np.max(np.abs(a)) < 1e-9

    def test_quadratic_form_matches_at_mmse_weights(self):
        rng = np.random.default_rng(16)
        beta, G = random_network(rng, 9, 4)
        alpha, gap = factors_at_optimum(4)
        c_delta = distortion_covariance(beta, gap, 1.0, SIGMA_N2)
        W = mmse_weights(G, alpha, SIGMA_N2, c_delta)
        direct = error_covariance(G, alpha, 1.0, SIGMA_N2, c_delta)
        general = error_covariance_for_weights(W, G, alpha, 1.0, SIGMA_N2, c_delta)
        np.testing.assert_allclose(general, direct, atol=1e-12)

    def test_mmse_weights_beat_perturbations(self):
        rng = np.random.default_rng(17)
        beta, G = random_network(rng, 9, 4)
        alpha, gap = factors_at_optimum(4)
        c_delta = distortion_covariance(beta, gap, 1.0, SIGMA_N2)
        W = mmse_weights(G, alpha, SIGMA_N2, c_delta)
        base = np.real(np.diag(error_covariance_for_weights(W, G, alpha, 1.0, SIGMA_N2, c_delta)))
        for eps in (0.01, -0.01):
            perturbed = np.real(
                np.diag(
                    error_covariance_for_weights(
                        W * (1.0 + eps), G, alpha, 1.0, SIGMA_N2, c_delta
                    )
                )
            )
            assert np.all(perturbed >= base - 1e-15)
            assert np.all(perturbed - base > 0.0)

    def test_legacy_noise_scaling_is_suboptimal_variant(self):
        rng = np.random.default_rng(18)
        beta, G = random_network(rng, 9, 4)
        alpha, gap = factors_at_optimum(3)
        c_delta = distortion_covariance(beta, gap, 1.0, SIGMA_N2)
        W_legacy = direct_mmse_weights(G, alpha, SIGMA_N2, c_delta, legacy_eq21=True)
        W = mmse_weights(G, alpha, SIGMA_N2, c_delta)
        assert np.max(np.abs(W - W_legacy)) > 0.0
        base = np.real(np.diag(error_covariance(G, alpha, 1.0, SIGMA_N2, c_delta)))
        legacy = np.real(
            np.diag(error_covariance_for_weights(W_legacy, G, alpha, 1.0, SIGMA_N2, c_delta))
        )
        assert np.all(legacy >= base - 1e-15)
        library = np.real(
            np.diag(error_covariance(G, alpha, 1.0, SIGMA_N2, c_delta, legacy_eq21=True))
        )
        assert np.all(library >= base - 1e-15)

    def test_legacy_matches_direct_receiver(self):
        # The legacy covariance comes from the K x K kernel alone; the
        # reference forms that receiver from the M x M observation covariance
        # and evaluates the general quadratic form.  Cases: stacks of bit
        # depths at K = 1 and 5, and the badly conditioned direct-form case.
        G, alpha, sigma_n2, beta, gap, sigma_s2 = direct_form_cases()[-1]
        c_delta = distortion_covariance(beta, gap, sigma_s2, sigma_n2)
        cases = [(G, np.array([alpha]), sigma_n2, c_delta[None], sigma_s2)]
        for k_users in (1, 5):
            G, alpha, c_delta = TestBitDepthStack.stack(np.random.default_rng(42), k_users)
            cases.append((G, alpha, SIGMA_N2, c_delta, 1.0))
        for G, alpha, sigma_n2, c_delta, sigma_s2 in cases:
            cov = error_covariance(G, alpha, sigma_s2, sigma_n2, c_delta, legacy_eq21=True)
            for a, c, got in zip(alpha, c_delta, cov):
                W = direct_mmse_weights(G, a, sigma_n2, c, sigma_s2, legacy_eq21=True)
                ref = error_covariance_for_weights(W, G, a, sigma_s2, sigma_n2, c)
                assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-12

    def test_singular_corner(self):
        rng = np.random.default_rng(19)
        _, G = random_network(rng, 5, 2)
        for legacy_eq21 in (False, True):
            with pytest.raises(np.linalg.LinAlgError):
                error_covariance(G, 1.0, 1.0, 0.0, np.zeros(5), legacy_eq21=legacy_eq21)


class TestPerUserSinr:
    def test_uninformative_observation(self):
        sinr = per_user_sinr(np.array([1.0, 0.5]), 1.0)
        assert sinr[0] == pytest.approx(0.0)
        assert sinr[1] == pytest.approx(1.0)

    def test_plugin_value(self):
        assert per_user_sinr(np.array([1.0 / 101.0]), 1.0)[0] == pytest.approx(100.0, rel=1e-12)

    def test_scalar_matched_filter_limit(self):
        g = np.array([[0.3 - 0.9j]])
        for sigma_s2 in (1.0, 4.0):
            var = error_variances(g, 1.0, sigma_s2, SIGMA_N2, np.zeros(1))
            sinr = per_user_sinr(var, sigma_s2)
            assert sinr[0] == pytest.approx(
                abs(g[0, 0]) ** 2 * sigma_s2 / SIGMA_N2, rel=1e-9
            )

    def test_monotone_in_bit_depth(self):
        rng = np.random.default_rng(20)
        beta, G = random_network(rng, 12, 4)
        prev = np.zeros(4)
        for bits in range(4, 15):
            alpha, gap = factors_at_optimum(bits)
            c_delta = distortion_covariance(beta, gap, 1.0, SIGMA_N2)
            var = error_variances(G, alpha, 1.0, SIGMA_N2, c_delta)
            sinr = per_user_sinr(var, 1.0)
            assert np.all(sinr >= prev)
            prev = sinr

    def test_rejects_invalid_diagonal(self):
        with pytest.raises(ValueError):
            per_user_sinr(np.array([1.5]), 1.0)
        with pytest.raises(ValueError):
            per_user_sinr(np.array([0.0]), 1.0)


class TestBitDepthStack:
    """A stack of bit depths, alpha (B,) with c_delta (B, M), must give
    exactly the per-bit-depth results, so campaigns can batch them."""

    @staticmethod
    def stack(rng, k_users):
        beta, G = random_network(rng, 30, k_users)
        rows = [factors_at_optimum(bits) for bits in (6, 10, 14)] + [(1.0, 0.0)]
        alpha = np.array([a for a, _ in rows])
        c_delta = np.stack(
            [distortion_covariance(beta, gap, 1.0, SIGMA_N2) for _, gap in rows]
        )
        return G, alpha, c_delta

    @pytest.mark.parametrize("k_users", [1, 5])
    def test_error_covariance_and_sinr(self, k_users):
        G, alpha, c_delta = self.stack(np.random.default_rng(40), k_users)
        stacked = error_covariance(G, alpha, 1.0, SIGMA_N2, c_delta)
        assert stacked.shape == (4, k_users, k_users)
        sinr = per_user_sinr(error_variances(G, alpha, 1.0, SIGMA_N2, c_delta), 1.0)
        assert sinr.shape == (4, k_users)
        for i, (a, c) in enumerate(zip(alpha, c_delta)):
            cov = error_covariance(G, float(a), 1.0, SIGMA_N2, c)
            np.testing.assert_array_equal(stacked[i], cov)
            var = error_variances(G, float(a), 1.0, SIGMA_N2, c)
            np.testing.assert_array_equal(sinr[i], per_user_sinr(var, 1.0))

    @pytest.mark.parametrize("legacy_eq21", [False, True])
    @pytest.mark.parametrize("k_users", [1, 5])
    def test_weights_and_their_covariance(self, k_users, legacy_eq21):
        # The library never forms the legacy receiver: its covariance comes
        # from error_covariance, which must stack exactly too.
        G, alpha, c_delta = self.stack(np.random.default_rng(41), k_users)
        if legacy_eq21:
            cov = error_covariance(G, alpha, 1.0, SIGMA_N2, c_delta, legacy_eq21=True)
        else:
            W = mmse_weights(G, alpha, SIGMA_N2, c_delta)
            assert W.shape == (4, k_users, 30)
            cov = error_covariance_for_weights(W, G, alpha, 1.0, SIGMA_N2, c_delta)
        assert cov.shape == (4, k_users, k_users)
        for i, (a, c) in enumerate(zip(alpha, c_delta)):
            if legacy_eq21:
                expected = error_covariance(G, float(a), 1.0, SIGMA_N2, c, legacy_eq21=True)
            else:
                w = mmse_weights(G, float(a), SIGMA_N2, c)
                np.testing.assert_array_equal(W[i], w)
                expected = error_covariance_for_weights(w, G, float(a), 1.0, SIGMA_N2, c)
            np.testing.assert_array_equal(cov[i], expected)


def information_inverse_oracle(G, alpha, sigma_s2, b):
    """(I/sigma_s2 + alpha**2 * G^H * diag(b)^-1 * G)^-1 by np.linalg.inv, the
    formula the Cholesky kernel replaced; ``alpha`` scalar or (B, 1) against b
    (M,) or (B, M)."""
    alpha = np.asarray(alpha, dtype=float)[..., None]
    info = np.eye(G.shape[1]) / sigma_s2 + alpha**2 * (G.conj().T @ (G / b[..., :, None]))
    return np.linalg.inv(info)


@pytest.fixture(params=["openblas", "fallback"])
def kernel_path(request, monkeypatch):
    """Run the kernel through numpy's OpenBLAS, or through the numpy fallback
    that builds without that library take."""
    if request.param == "fallback":
        monkeypatch.setattr(detection, "_openblas", lambda: None)
    elif detection._openblas() is None:
        pytest.skip("numpy bundles no scipy_openblas64_ library here")
    return request.param


class TestInverseCholeskyKernel:
    """Both paths of the kernel against the explicit inverse, within 1e-12."""

    CASES = {
        # (M, K, alpha, bit depths in the stack; None: 1-D b)
        "stacked": (30, 5, np.array([[0.9], [0.97], [0.995], [1.0]]), 4),
        "vector": (12, 4, 0.9, None),
        "one_user": (10, 1, 0.97, None),
        "fewer_aps_than_users": (3, 6, np.array([[0.9], [1.0]]), 2),
        "real_channel": (15, 4, np.array([[0.9], [0.99], [1.0]]), 3),
        "column_major_channel": (15, 4, 0.9, None),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_explicit_inverse(self, kernel_path, case):
        m, k, alpha, n_bits = self.CASES[case]
        rng = np.random.default_rng(60)
        G = rng.normal(size=(m, k)) if case == "real_channel" else crandn(rng, m, k)
        if case == "column_major_channel":
            G = np.asfortranarray(G)
        c_delta = rng.uniform(0.0, 0.05, size=(m,) if n_bits is None else (n_bits, m))
        sigma_s2 = 1.5
        ref = information_inverse_oracle(G, alpha, sigma_s2, c_delta + np.square(alpha) * SIGMA_N2)
        alpha_arg = np.ravel(alpha) if n_bits else alpha  # (B,): the kernel sees (B, 1)
        cov = error_covariance(G, alpha_arg, sigma_s2, SIGMA_N2, c_delta)
        var = error_variances(G, alpha_arg, sigma_s2, SIGMA_N2, c_delta)
        assert cov.shape == ref.shape and var.shape == ref.shape[:-1]
        assert np.iscomplexobj(cov) == np.iscomplexobj(G)
        np.testing.assert_allclose(cov, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
        np.testing.assert_allclose(var, np.real(np.diagonal(ref, axis1=-2, axis2=-1)), rtol=1e-12)

    def test_factor_is_upper_triangular(self):
        if detection._openblas() is None:
            pytest.skip("numpy bundles no scipy_openblas64_ library here")
        rng = np.random.default_rng(61)
        G = crandn(rng, 20, 6)
        Y = detection._inverse_factor(G, 0.9, 1.0, rng.uniform(0.01, 0.1, size=(2, 20)))
        assert Y.shape == (2, 6, 6)
        assert np.all(np.tril(Y, -1) == 0.0)

    def test_indefinite_information_raises(self, kernel_path):
        # sigma_s2 < 0 with no channel: the information matrix is -I.
        with pytest.raises(np.linalg.LinAlgError):
            error_variances(np.zeros((4, 2), dtype=complex), 1.0, -1.0, SIGMA_N2, np.zeros(4))


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


class TestJensenBounds:
    def test_single_link_plugin(self):
        bound_gram, bound_distortion = jensen_bound_diagonals(
            np.array([[1.0]]), np.array([2.0])
        )
        assert bound_gram[0] == pytest.approx(1.0)
        assert bound_distortion[0] == pytest.approx(2.0)

    def test_gram_bound_holds_under_fading(self):
        rng = np.random.default_rng(21)
        m_aps, k_users, draws = 50, 4, 10_000
        beta = rng.uniform(0.05, 1.0, size=(m_aps, k_users))
        alpha, gap = factors_at_optimum(3)
        c_delta = distortion_covariance(beta, gap, 1.0, SIGMA_N2)
        bound_gram, bound_distortion = jensen_bound_diagonals(beta, c_delta)
        sqrt_beta = np.sqrt(beta)
        acc_gram = np.zeros(k_users)
        acc_dist = np.zeros(k_users)
        for _ in range(draws // 1000):
            h = crandn(rng, 1000, m_aps, k_users)
            G = h * sqrt_beta
            gram = np.einsum("tmk,tml->tkl", G.conj(), G)
            acc_gram += np.diagonal(np.linalg.inv(gram), axis1=1, axis2=2).real.sum(axis=0)
            weighted = np.einsum("tmk,tml->tkl", G.conj() / c_delta[:, None], G)
            acc_dist += np.diagonal(np.linalg.inv(weighted), axis1=1, axis2=2).real.sum(axis=0)
        assert np.all(acc_gram / draws >= bound_gram)
        assert np.all(acc_dist / draws >= bound_distortion)

    def test_weighted_gram_off_diagonals_vanish(self):
        rng = np.random.default_rng(22)
        m_aps, k_users, draws = 50, 4, 10_000
        beta = rng.uniform(0.05, 1.0, size=(m_aps, k_users))
        alpha, gap = factors_at_optimum(3)
        c_delta = distortion_covariance(beta, gap, 1.0, SIGMA_N2)
        total = np.zeros((k_users, k_users), dtype=complex)
        total_re = np.zeros((k_users, k_users))
        total_im = np.zeros((k_users, k_users))
        for _ in range(draws // 1000):
            h = crandn(rng, 1000, m_aps, k_users)
            G = h * np.sqrt(beta)
            weighted = np.einsum("tmk,tml->tkl", G.conj() / c_delta[:, None], G)
            total += weighted.sum(axis=0)
            total_re += (weighted.real**2).sum(axis=0)
            total_im += (weighted.imag**2).sum(axis=0)
        mean = total / draws
        se_re = np.sqrt((total_re / draws - mean.real**2) / draws)
        se_im = np.sqrt((total_im / draws - mean.imag**2) / draws)
        off = ~np.eye(k_users, dtype=bool)
        assert np.all(np.abs(mean.real[off]) < 4.0 * se_re[off])
        assert np.all(np.abs(mean.imag[off]) < 4.0 * se_im[off])

    def test_rejects_degenerate_distortion(self):
        with pytest.raises(ValueError):
            jensen_bound_diagonals(np.ones((2, 2)), np.zeros(2))


class TestDetectionResult:
    def test_bundle_consistency(self):
        rng = np.random.default_rng(23)
        beta, G = random_network(rng, 10, 3)
        alpha, gap = factors_at_optimum(4)
        c_delta = distortion_covariance(beta, gap, 1.0, SIGMA_N2)
        s = crandn(rng, 3)
        y = simulate_uplink(G, s, 1.0, SIGMA_N2, 0, rng, beta)
        result = detection_result(G, 1.0, SIGMA_N2, c_delta, alpha, y)
        np.testing.assert_allclose(result.s_hat, result.weights @ y)
        np.testing.assert_allclose(
            result.sinr, per_user_sinr(np.real(np.diag(result.error_cov)), 1.0)
        )
        assert np.all(result.sinr >= 0.0)
