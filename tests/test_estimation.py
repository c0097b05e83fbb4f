import math

import numpy as np
import pytest

from cfquant.channel import NoiseModel, complex_normal, received_variance
from cfquant.estimation import (
    correlate_all,
    estimation_mse,
    lmmse_coefficient,
    make_pilot_book,
    simulate_pilot_phase,
)
from cfquant.quantizer import bussgang_row, fronthaul

NOISE = NoiseModel(sigma_n2=1e-3)


def crandn(rng, *shape):
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / math.sqrt(2.0)


def pilot_noise(rng, G, phi):
    """Receiver noise for the pilot block of the channel draw(s) ``G``."""
    return complex_normal(rng, (*G.shape[:-1], len(phi)), math.sqrt(NOISE.sigma_n2 / 2.0))


def pilot_correlate(y_m, phi_k):
    """Scalar oracle for ``correlate_all``: one AP's pilot block against
    one pilot column."""
    assert len(y_m) == len(phi_k)
    return complex(np.vdot(phi_k, y_m))


def pilot_mse_at_coefficient(c, beta_mk, beta_row, tau, alpha, gamma, sigma_n2):
    """Oracle: estimation MSE of one AP-user pair at an arbitrary scaling c.
    Quadratic in c: beta*(c*sqrt(tau)*alpha - 1)**2 plus c**2 times the
    noise-plus-distortion power the correlator sees."""
    interference = (gamma - alpha**2) * np.sum(beta_row) + gamma * sigma_n2
    return beta_mk * (c * math.sqrt(tau) * alpha - 1.0) ** 2 + c**2 * interference


def factors_at_optimum(bits):
    row = bussgang_row(2**bits)
    return row["alpha"], row["gamma"]


class TestPilotBook:
    def test_single_user_single_symbol(self):
        phi = make_pilot_book(1, 1)
        np.testing.assert_allclose(phi, [[1.0]])

    def test_orthonormal_columns(self):
        phi = make_pilot_book(4, 4)
        gram = phi.conj().T @ phi
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    def test_constant_modulus(self):
        phi = make_pilot_book(40, 40)
        assert np.max(np.abs(np.abs(phi) - 1.0 / math.sqrt(40.0))) < 1e-12

    def test_longer_than_needed(self):
        phi = make_pilot_book(3, 8)
        assert phi.shape == (8, 3)
        gram = phi.conj().T @ phi
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12

    def test_rejects_short_pilots(self):
        with pytest.raises(ValueError):
            make_pilot_book(5, 4)


class TestSimulatePilotPhase:
    def test_unquantized_bypass(self):
        rng = np.random.default_rng(0)
        G = crandn(rng, 6, 3) * 0.4
        phi = make_pilot_book(3, 3)
        n = pilot_noise(np.random.default_rng(77), G, phi)
        assert simulate_pilot_phase(G, phi, NOISE, 0, n, np.abs(G) ** 2) is n
        rng2 = np.random.default_rng(77)
        clean = math.sqrt(3) * (G @ phi.T)
        noise = rng2.normal(size=(6, 3)) + 1j * rng2.normal(size=(6, 3))
        np.testing.assert_allclose(n, clean + math.sqrt(NOISE.sigma_n2 / 2.0) * noise)

    def test_rejects_unfit_noise_samples(self):
        G = np.ones((6, 3), dtype=complex)
        phi = make_pilot_book(3, 4)
        beta = np.ones((6, 3))
        for n in [np.zeros((6, 3), dtype=complex), np.zeros((6, 4))]:
            with pytest.raises(ValueError, match="noise_samples"):
                simulate_pilot_phase(G, phi, NOISE, 4, n, beta)

    def test_matches_vectorized_kernel(self):
        # Quantized pilots are the unquantized ones through the fronthaul,
        # sized at the pilot-phase (unit symbol power) variance.
        rng = np.random.default_rng(1)
        G = crandn(rng, 5, 2) * 0.3
        beta = np.abs(G) ** 2
        phi = make_pilot_book(2, 2)
        sigma_m2 = received_variance(beta, 1.0, NOISE.sigma_n2)
        n = pilot_noise(np.random.default_rng(5), G, phi)
        x = simulate_pilot_phase(G, phi, NOISE, 0, n.copy(), beta)
        y = simulate_pilot_phase(G, phi, NOISE, 4, n, beta)
        np.testing.assert_array_equal(y, fronthaul(x, 4, sigma_m2))

    def test_leading_trial_axis(self):
        rng = np.random.default_rng(17)
        beta = rng.uniform(0.05, 0.5, size=(3, 2))
        G = crandn(rng, 6, 3, 2) * np.sqrt(beta)
        phi = make_pilot_book(2, 4)
        n = pilot_noise(np.random.default_rng(18), G, phi)
        y = simulate_pilot_phase(G, phi, NOISE, 5, n, beta)
        rng2 = np.random.default_rng(18)
        noise = rng2.normal(size=(6, 3, 4)) + 1j * rng2.normal(size=(6, 3, 4))
        x = 2.0 * (G @ phi.T) + math.sqrt(NOISE.sigma_n2 / 2.0) * noise
        assert y.shape == (6, 3, 4)
        np.testing.assert_array_equal(
            y, fronthaul(x, 5, received_variance(beta, 1.0, NOISE.sigma_n2))
        )

    @pytest.mark.parametrize("k_users", [3, 0])
    def test_stack_matches_per_trial_products(self, k_users):
        # Two leading trial axes, and no users at all, against one 2-D
        # product per trial, bit for bit.
        rng = np.random.default_rng(21)
        lead, m_aps, tau = (2, 3), 5, 4
        beta = rng.uniform(0.05, 0.5, size=(m_aps, k_users))
        G = crandn(rng, *lead, m_aps, k_users) * np.sqrt(beta)
        phi = make_pilot_book(k_users, tau)
        n = pilot_noise(np.random.default_rng(22), G, phi)
        y = simulate_pilot_phase(G, phi, NOISE, 5, n, beta)
        clean = np.array([math.sqrt(tau) * (g @ phi.T) for g in G.reshape(6, m_aps, k_users)])
        rng2 = np.random.default_rng(22)
        shape = (*lead, m_aps, tau)
        noise = rng2.normal(size=shape) + 1j * rng2.normal(size=shape)
        x = clean.reshape(shape) + math.sqrt(NOISE.sigma_n2 / 2.0) * noise
        np.testing.assert_array_equal(
            y, fronthaul(x, 5, received_variance(beta, 1.0, NOISE.sigma_n2))
        )
        r = np.array([y_t @ phi.conj() for y_t in y.reshape(6, m_aps, tau)])
        np.testing.assert_array_equal(correlate_all(y, phi), r.reshape(*lead, m_aps, k_users))

    def test_noise_only_power_matches_gamma(self):
        # With no users the quantized samples carry gamma times the input
        # noise power.
        m_aps, tau, trials = 4, 4, 4000
        G = np.zeros((m_aps, 0), dtype=complex)
        phi = make_pilot_book(0, tau)
        _, gamma = factors_at_optimum(4)
        rng = np.random.default_rng(2)
        powers = np.empty(trials)
        for t in range(trials):
            n = pilot_noise(rng, G, phi)
            y = simulate_pilot_phase(G, phi, NOISE, 4, n, np.zeros((m_aps, 0)))
            powers[t] = np.mean(np.abs(y) ** 2)
        se = powers.std() / math.sqrt(trials)
        assert abs(powers.mean() - gamma * NOISE.sigma_n2) < 4.0 * se

    def test_per_symbol_variance(self):
        # Constant-modulus pilots make every symbol carry the same power.
        rng = np.random.default_rng(3)
        k_users, m_aps, trials = 4, 3, 100_000
        beta = np.array([[0.5, 0.2, 0.1, 0.05]] * m_aps)
        phi = make_pilot_book(k_users, k_users)
        acc = np.zeros((m_aps, k_users))
        for _ in range(trials // 1000):
            h = crandn(rng, 1000, m_aps, k_users)
            g = h * np.sqrt(beta)
            x = math.sqrt(k_users) * (g @ phi.T)
            x += math.sqrt(NOISE.sigma_n2 / 2.0) * crandn(rng, 1000, m_aps, k_users) * math.sqrt(2.0)
            acc += np.mean(np.abs(x) ** 2, axis=0)
        per_symbol = acc / (trials // 1000)
        expected = received_variance(beta, 1.0, NOISE.sigma_n2)
        np.testing.assert_allclose(per_symbol, expected[:, None] * np.ones((1, k_users)), rtol=0.02)


class TestPilotCorrelate:
    def test_single_user_noiseless(self):
        rng = np.random.default_rng(6)
        h = complex(crandn(rng))
        beta = 0.3
        tau = 4
        phi = make_pilot_book(1, tau)
        y = math.sqrt(tau * beta) * h * phi[:, 0]
        assert pilot_correlate(y, phi[:, 0]) == pytest.approx(h * math.sqrt(tau * beta))

    def test_no_cross_user_leakage(self):
        rng = np.random.default_rng(7)
        tau = 8
        phi = make_pilot_book(2, tau)
        h = crandn(rng, 2)
        y = math.sqrt(tau) * (h[0] * phi[:, 0] + h[1] * phi[:, 1])
        leak = pilot_correlate(y, phi[:, 1]) - math.sqrt(tau) * h[1]
        assert abs(leak) < 1e-12

    def test_correlate_all_matches_scalar_op(self):
        rng = np.random.default_rng(8)
        phi = make_pilot_book(3, 5)
        y = crandn(rng, 4, 5)
        r = correlate_all(y, phi)
        for m in range(4):
            for k in range(3):
                assert r[m, k] == pytest.approx(pilot_correlate(y[m], phi[:, k]))

    def test_quantized_correlation_carries_bussgang_gain(self):
        # Over the fading ensemble the pilot correlation regresses on the
        # channel with slope alpha: E[r * conj(h)] = alpha * sqrt(tau*beta).
        # (At one fixed h the quantizer's conditional bias does not average
        # out, so the linearized mean only holds ensemble-wise.)
        rng = np.random.default_rng(9)
        beta = np.array([[0.4]])
        tau = 4
        phi = make_pilot_book(1, tau)
        alpha, _ = factors_at_optimum(3)
        trials = 100_000
        samples = np.empty(trials, dtype=complex)
        for start in range(0, trials, 10_000):
            h = crandn(rng, 10_000, 1, 1)
            g = h * np.sqrt(beta)
            y = simulate_pilot_phase(g, phi, NOISE, 3, pilot_noise(rng, g, phi), beta)
            samples[start : start + 10_000] = (y @ phi.conj())[:, 0, 0] * np.conj(h[:, 0, 0])
        expected = alpha * math.sqrt(tau * beta[0, 0])
        z_re = abs(samples.real.mean() - expected) / (samples.real.std() / math.sqrt(trials))
        z_im = abs(samples.imag.mean()) / (samples.imag.std() / math.sqrt(trials))
        assert z_re < 3.0
        assert z_im < 3.0


def closed_forms(beta):
    """Coefficient, MSE and NMSE of the gains ``beta`` at one fixed setting."""
    return (lmmse_coefficient(beta, 4, 0.9, 0.85, 1e-3), *estimation_mse(beta, 4, 0.9, 0.85, 1e-3))


class TestLmmseCoefficient:
    def test_unquantized_reduces_to_textbook(self):
        beta = 0.7
        row = np.array([0.7, 0.1])
        tau = 5
        c = lmmse_coefficient(row, tau, 1.0, 1.0, 0.01)[0]
        assert c == pytest.approx(beta * math.sqrt(tau) / (tau * beta + 0.01), rel=1e-12)

    def test_unit_plugin(self):
        c = lmmse_coefficient(np.array([1.0]), 1, 1.0, 1.0, 1.0)
        assert c.shape == (1,)
        assert c[0] == pytest.approx(0.5)

    def test_matrix_broadcast(self):
        # One AP's row gives that row of the (M, K) result, bit for bit.
        beta = np.random.default_rng(10).uniform(0.01, 1.0, size=(6, 4))
        full = closed_forms(beta)
        for m in range(6):
            for row, out in zip(closed_forms(beta[m]), full, strict=True):
                assert row.shape == (4,)
                np.testing.assert_array_equal(row, out[m])

    def test_swapping_ap_rows_swaps_outputs(self):
        # Each entry reads the sum of its own AP's row.
        beta = np.random.default_rng(18).uniform(0.01, 1.0, size=(5, 3))
        order = [3, 1, 2, 0, 4]
        for swapped, out in zip(closed_forms(beta[order]), closed_forms(beta), strict=True):
            np.testing.assert_array_equal(swapped, out[order])
            assert not np.array_equal(swapped, out)

    def test_perturbation_increases_general_mse(self):
        alpha, gamma = factors_at_optimum(2)
        row, tau, sn2 = np.array([0.4, 0.2, 0.1]), 3, 1e-2
        c_opt = lmmse_coefficient(row, tau, alpha, gamma, sn2)
        for k, beta in enumerate(row):
            base = pilot_mse_at_coefficient(c_opt[k], beta, row, tau, alpha, gamma, sn2)
            for eps in (0.01, -0.01):
                worse = pilot_mse_at_coefficient(
                    c_opt[k] * (1 + eps), beta, row, tau, alpha, gamma, sn2
                )
                assert worse > base


class TestEstimateChannel:
    def test_zero_coefficient(self):
        # A pair with zero gain gets a zero coefficient, so a zero estimate.
        beta = np.array([[0.0, 0.4], [0.2, 0.3]])
        c = lmmse_coefficient(beta, 2, 0.9, 0.85, 1e-3)
        y = crandn(np.random.default_rng(17), 2, 2)
        estimate = c * correlate_all(y, make_pilot_book(2, 2))
        assert c[0, 0] == 0.0 and estimate[0, 0] == 0.0
        assert np.all(estimate[beta > 0.0] != 0.0)

    def test_noiseless_unquantized_is_exact(self):
        rng = np.random.default_rng(11)
        beta = rng.uniform(0.1, 1.0, size=(4, 3))
        g = crandn(rng, 4, 3) * np.sqrt(beta)
        tau = 3
        phi = make_pilot_book(3, tau)
        y = math.sqrt(tau) * (g @ phi.T)
        r = correlate_all(y, phi)
        c = lmmse_coefficient(beta, tau, 1.0, 1.0, 0.0)
        np.testing.assert_allclose(c * r, g, atol=1e-12)

    def test_empirical_mse_matches_closed_form(self):
        # Full pipeline at 8 bits against the closed form, 2% tolerance.
        rng = np.random.default_rng(12)
        m_aps, k_users, tau = 4, 2, 2
        beta = rng.uniform(0.05, 0.8, size=(m_aps, k_users))
        phi = make_pilot_book(k_users, tau)
        alpha, gamma = factors_at_optimum(8)
        c = lmmse_coefficient(beta, tau, alpha, gamma, NOISE.sigma_n2)
        mse, _ = estimation_mse(beta, tau, alpha, gamma, NOISE.sigma_n2)
        total = np.zeros((m_aps, k_users))
        trials = 100_000
        for _ in range(trials // 10_000):
            h = crandn(rng, 10_000, m_aps, k_users)
            g = h * np.sqrt(beta)
            y = simulate_pilot_phase(g, phi, NOISE, 8, pilot_noise(rng, g, phi), beta)
            g_hat = c * (y @ phi.conj())
            total += np.sum(np.abs(g_hat - g) ** 2, axis=0)
        np.testing.assert_allclose(total / trials, mse, rtol=0.02)


class TestEstimationMse:
    def test_unquantized_closed_form(self):
        beta, sn2, tau = 0.7, 0.05, 6
        mse, nmse = estimation_mse(np.array([beta, 0.2]), tau, 1.0, 1.0, sn2)
        interference = sn2  # no distortion term at alpha = gamma = 1
        assert mse[0] == pytest.approx(beta * interference / (tau * beta + interference), rel=1e-12)
        assert nmse[0] == pytest.approx(mse[0] / beta, rel=1e-12)

    def test_unit_plugin(self):
        mse, nmse = estimation_mse(np.array([1.0]), 1, 1.0, 1.0, 1.0)
        assert mse.shape == nmse.shape == (1,)
        assert mse[0] == pytest.approx(0.5)
        assert nmse[0] == pytest.approx(0.5)

    def test_quantization_strictly_degrades(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            row = rng.uniform(0.01, 1.0, size=5)
            tau = int(rng.integers(5, 40))
            sn2 = float(rng.uniform(1e-5, 0.1))
            _, base = estimation_mse(row, tau, 1.0, 1.0, sn2)
            for bits in (2, 4, 8):
                alpha, gamma = factors_at_optimum(bits)
                _, quantized = estimation_mse(row, tau, alpha, gamma, sn2)
                assert np.all(quantized > base)

    def test_nmse_in_unit_interval(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            row = rng.uniform(1e-6, 10.0, size=int(rng.integers(1, 8)))
            tau = int(rng.integers(1, 64))
            sn2 = float(rng.uniform(1e-8, 1.0))
            alpha, gamma = factors_at_optimum(int(rng.integers(2, 10)))
            _, nmse = estimation_mse(row, tau, alpha, gamma, sn2)
            assert np.all((nmse > 0.0) & (nmse < 1.0))

    def test_monotone_in_pilot_length_and_sdnr(self):
        row, sn2 = np.array([0.3, 0.1, 0.05]), 1e-3
        values = [
            estimation_mse(row, tau, *factors_at_optimum(4), sn2)[1]
            for tau in (3, 6, 12, 24, 48)
        ]
        assert all(np.all(a >= b) for a, b in zip(values, values[1:]))
        by_bits = [
            estimation_mse(row, 8, *factors_at_optimum(bits), sn2)[1]
            for bits in (2, 4, 6, 8, 10)
        ]
        assert all(np.all(a >= b) for a, b in zip(by_bits, by_bits[1:]))

    def test_closed_form_equals_quadratic_at_optimum(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            row = rng.uniform(0.01, 2.0, size=4)
            tau = int(rng.integers(4, 32))
            sn2 = float(rng.uniform(1e-6, 0.5))
            alpha = float(rng.uniform(0.3, 1.0))
            gamma = alpha**2 * (1.0 + float(rng.uniform(1e-6, 0.5)))
            c_opt = lmmse_coefficient(row, tau, alpha, gamma, sn2)
            direct, _ = estimation_mse(row, tau, alpha, gamma, sn2)
            for k, beta in enumerate(row):
                quadratic = pilot_mse_at_coefficient(c_opt[k], beta, row, tau, alpha, gamma, sn2)
                assert quadratic == pytest.approx(direct[k], rel=1e-12)


class TestEstimateFromPilots:
    def test_pipeline_consistency(self):
        rng = np.random.default_rng(16)
        beta = rng.uniform(0.01, 0.5, size=(5, 3))
        g = crandn(rng, 5, 3) * np.sqrt(beta)
        phi = make_pilot_book(3, 3)
        alpha, gamma = factors_at_optimum(6)
        y = simulate_pilot_phase(g, phi, NOISE, 0, pilot_noise(rng, g, phi), beta)
        c = lmmse_coefficient(beta, len(phi), alpha, gamma, NOISE.sigma_n2)
        mse, nmse = estimation_mse(beta, len(phi), alpha, gamma, NOISE.sigma_n2)
        assert (c * correlate_all(y, phi)).shape == c.shape == nmse.shape == (5, 3)
        np.testing.assert_array_equal(mse, beta * nmse)
        assert np.all((nmse > 0) & (nmse < 1))
        assert np.all(mse < beta)
