import math
import time

import numpy as np
import pytest
from scipy.special import erfc

from cfquant.quantizer import (
    _COARSE_RES,
    _SCAN_RUN,
    _SEARCH_HI,
    _UNDERFLOW_ARG,
    _alpha_normalized,
    _gamma_normalized,
    _gaussian_tail,
    _sdnr_objective,
    _series_orders,
    MAX_LEVELS,
    BussgangFactors,
    FlatObjectiveWarning,
    UniformQuantizer,
    bussgang_alpha,
    bussgang_factors,
    distortion_power,
    fronthaul,
    optimal_step,
    power_gain_gamma,
    quantize,
    quantize_complex,
    sdnr,
)


# The solver's coarse grid, k*1e-3 for k = 1..8000, in the runs it
# evaluates together.
COARSE_GRID = np.arange(_COARSE_RES, _SEARCH_HI + 0.5 * _COARSE_RES, _COARSE_RES)
SCAN_RUNS = [COARSE_GRID[i : i + _SCAN_RUN] for i in range(0, COARSE_GRID.size, _SCAN_RUN)]


def untruncated_alpha(levels, d):
    """Oracle: the alpha series over every order l = 1..L/2-1, no cutoff."""
    ls = np.arange(1, levels // 2, dtype=float)
    series = 2.0 * np.exp(-0.5 * np.multiply.outer(ls**2, d**2)).sum(axis=0)
    return d / math.sqrt(2.0 * math.pi) * (series + 1.0)


def untruncated_gamma(levels, d):
    """Oracle: the gamma series over every order l = 1..L/2-1, no cutoff."""
    ls = np.arange(1, levels // 2, dtype=float)
    series = 4.0 * (ls @ (0.5 * erfc(np.multiply.outer(ls, d) / math.sqrt(2.0))))
    return d**2 * (0.25 + series)


def opt_step_quiet(levels):
    if levels == 2:
        with pytest.warns(FlatObjectiveWarning):
            return optimal_step(2)
    return optimal_step(levels)


class TestQuantize:
    def test_interior_bins(self):
        q = UniformQuantizer(4, 1.0)
        assert quantize(0.3, q) == 0.5
        assert quantize(-0.2, q) == -0.5

    def test_saturation(self):
        q = UniformQuantizer(4, 1.0)
        assert quantize(7.2, q) == 1.5
        assert quantize(-7.2, q) == -1.5

    def test_zero_falls_in_lower_bin(self):
        # Half-open bins (l*step, (l+1)*step]: 0 belongs to (-step, 0].
        q = UniformQuantizer(4, 1.0)
        assert quantize(0.0, q) == -0.5

    def test_output_alphabet(self):
        q = UniformQuantizer(8, 0.5)
        x = np.linspace(-5, 5, 4001)
        out = np.unique(quantize(x, q))
        expected = (np.arange(-4, 4) + 0.5) * 0.5
        np.testing.assert_allclose(out, expected)

    def test_odd_symmetry_off_boundaries(self):
        q = UniformQuantizer(16, 0.3)
        rng = np.random.default_rng(3)
        x = rng.normal(size=1000) * 2.0
        x = x[np.abs(x / q.step - np.round(x / q.step)) > 1e-6]
        np.testing.assert_allclose(quantize(-x, q), -quantize(x, q))

    def test_nondecreasing(self):
        q = UniformQuantizer(8, 0.7)
        x = np.linspace(-6, 6, 20001)
        out = quantize(x, q)
        assert np.all(np.diff(out) >= 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        q = UniformQuantizer(4, 1.0)
        with pytest.raises(ValueError):
            quantize(bad, q)
        with pytest.raises(ValueError):
            quantize_complex(complex(bad, 0.0), q.levels, q.step)

    def test_invalid_quantizer(self):
        with pytest.raises(ValueError):
            UniformQuantizer(3, 1.0)
        with pytest.raises(ValueError):
            UniformQuantizer(0, 1.0)
        with pytest.raises(ValueError):
            UniformQuantizer(4, 0.0)
        with pytest.raises(ValueError):
            UniformQuantizer(4, -1.0)


class TestQuantizeComplex:
    def test_componentwise(self):
        assert quantize_complex(0.3 - 0.2j, 4, 1.0) == 0.5 - 0.5j

    def test_zero_convention(self):
        assert quantize_complex(0.0 + 0.0j, 4, 1.0) == -0.5 - 0.5j

    def test_double_saturation(self):
        assert quantize_complex(10 + 10j, 4, 1.0) == 1.5 + 1.5j

    def test_matches_real_quantizer(self):
        q = UniformQuantizer(16, 0.23)
        rng = np.random.default_rng(5)
        x = rng.normal(size=200) + 1j * rng.normal(size=200)
        out = quantize_complex(x, q.levels, q.step)
        np.testing.assert_allclose(out.real, quantize(x.real, q))
        np.testing.assert_allclose(out.imag, quantize(x.imag, q))

    def test_per_row_steps_kernel(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 50)) + 1j * rng.normal(size=(3, 50))
        steps = np.array([0.2, 0.5, 1.1])
        out = quantize_complex(x, 8, steps[:, None])
        for m, step in enumerate(steps):
            q = UniformQuantizer(8, step)
            np.testing.assert_array_equal(out[m].real, quantize(x[m].real, q))
            np.testing.assert_array_equal(out[m].imag, quantize(x[m].imag, q))


class TestFronthaul:
    def test_zero_bits_is_identity(self):
        x = np.ones((3, 2), dtype=complex)
        assert fronthaul(x, 0, np.ones(3)) is x

    def test_leading_trial_axis(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 3, 4)) + 1j * rng.normal(size=(5, 3, 4))
        variance = np.array([1.0, 2.0, 0.5])
        out = fronthaul(x, 6, variance)
        for t in range(5):
            np.testing.assert_array_equal(out[t], fronthaul(x[t], 6, variance))

    @pytest.mark.parametrize("variance", [np.ones(2), np.ones(4), np.array([1.0, 0.0, 1.0])])
    def test_rejects_bad_variances(self, variance):
        with pytest.raises(ValueError):
            fronthaul(np.ones((3, 2), dtype=complex), 4, variance)

    def test_rejects_non_finite(self):
        x = np.ones((2, 2), dtype=complex)
        x[1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            fronthaul(x, 4, np.ones(2))


class TestClosedForms:
    def test_two_level_alpha(self):
        assert bussgang_alpha(UniformQuantizer(2, 1.0), 1.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=1e-14
        )

    def test_small_step_limit_linear(self):
        # Every exponential tends to 1, so alpha ~ (L-1)*step/sqrt(2*pi).
        for levels in (4, 8):
            step = 1e-7
            expected = (levels - 1) * step / math.sqrt(2.0 * math.pi)
            assert bussgang_alpha(UniformQuantizer(levels, step), 1.0) == pytest.approx(
                expected, rel=1e-9
            )

    @pytest.mark.parametrize("step,expected", [(1.0, 0.25), (2.0, 1.0)])
    def test_two_level_gamma(self, step, expected):
        assert power_gain_gamma(UniformQuantizer(2, step), 1.0) == pytest.approx(expected, rel=1e-14)

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            levels = int(rng.choice([2, 4, 16, 64]))
            step = float(rng.uniform(0.05, 3.0))
            sigma = float(rng.uniform(0.1, 10.0))
            scale = float(rng.uniform(0.01, 100.0))
            q1 = UniformQuantizer(levels, step)
            q2 = UniformQuantizer(levels, step * scale)
            assert bussgang_alpha(q2, sigma * scale) == pytest.approx(
                bussgang_alpha(q1, sigma), rel=1e-12
            )
            assert power_gain_gamma(q2, sigma * scale) == pytest.approx(
                power_gain_gamma(q1, sigma), rel=1e-12
            )

    def test_gamma_dominates_alpha_squared(self):
        for levels in (2, 4, 8, 32, 256):
            for step in np.linspace(0.02, 6.0, 80):
                q = UniformQuantizer(levels, float(step))
                a = bussgang_alpha(q, 1.0)
                g = power_gain_gamma(q, 1.0)
                assert g - a * a >= -1e-12

    def test_alpha_against_sampling_oracle(self, unit_normal_pool):
        # alpha is the correlation estimate E[x*g(x)]/var(x).
        q = UniformQuantizer(16, 0.4)
        gx = quantize(unit_normal_pool, q)
        prod = unit_normal_pool * gx
        estimate = prod.mean()
        se = prod.std() / math.sqrt(prod.size)
        closed = bussgang_alpha(q, 1.0)
        assert abs(estimate - closed) <= max(2e-3, 4.0 * se)

    def test_gamma_against_sampling_oracle(self, unit_normal_pool):
        q = UniformQuantizer(8, 0.6)
        sq = quantize(unit_normal_pool, q) ** 2
        estimate = sq.mean()
        se = sq.std() / math.sqrt(sq.size)
        closed = power_gain_gamma(q, 1.0)
        assert abs(estimate - closed) <= max(2e-3, 4.0 * se)

    def test_bussgang_orthogonality(self, unit_normal_pool):
        q = UniformQuantizer(8, opt_step_quiet(8))
        a = bussgang_alpha(q, 1.0)
        resid = unit_normal_pool * (quantize(unit_normal_pool, q) - a * unit_normal_pool)
        se = resid.std() / math.sqrt(resid.size)
        assert abs(resid.mean()) < 4.0 * se

    def test_mixed_input_decorrelation(self):
        # For g(x + z) with independent Gaussian x, z and alpha taken at the
        # total variance, the distortion is uncorrelated with each part.
        rng = np.random.default_rng(11)
        n = 10_000_000
        sig_x, sig_z = 0.8, 1.7
        x = sig_x * rng.normal(size=n)
        z = sig_z * rng.normal(size=n)
        total_sigma = math.hypot(sig_x, sig_z)
        q = UniformQuantizer(8, opt_step_quiet(8) * total_sigma)
        a = bussgang_alpha(q, total_sigma)
        d = quantize(x + z, q) - a * (x + z)
        prod = z * d
        se = prod.std() / math.sqrt(n)
        assert abs(prod.mean()) < 4.0 * se


class TestDistortionAndSdnr:
    def test_distortion_free_limit(self):
        assert distortion_power(1.0, 1.0, 5.0) == 0.0

    def test_two_level_distortion(self):
        a = 1.0 / math.sqrt(2.0 * math.pi)
        assert distortion_power(a, 0.25, 1.0) == pytest.approx(0.25 - 1.0 / (2.0 * math.pi), rel=1e-12)

    def test_distortion_against_sampling_oracle(self, unit_normal_pool):
        q = UniformQuantizer(4, opt_step_quiet(4))
        a = bussgang_alpha(q, 1.0)
        g = power_gain_gamma(q, 1.0)
        resid_sq = (quantize(unit_normal_pool, q) - a * unit_normal_pool) ** 2
        assert abs(resid_sq.mean() - distortion_power(a, g, 1.0)) <= 2e-3

    def test_inconsistent_inputs_rejected(self):
        with pytest.raises(ValueError):
            distortion_power(1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            sdnr(1.0, 0.5)

    def test_sdnr_two_level_flat(self):
        expected = (2.0 / math.pi) / (1.0 - 2.0 / math.pi)
        for step in (0.5, 1.0, 2.0):
            q = UniformQuantizer(2, step)
            value = sdnr(bussgang_alpha(q, 1.0), power_gain_gamma(q, 1.0))
            assert value == pytest.approx(expected, abs=1e-9)

    def test_sdnr_infinite_without_distortion(self):
        assert sdnr(1.0, 1.0) == math.inf

    def test_sdnr_matches_grid_scan(self):
        # Independent scan of alpha**2/gamma over the normalized step.
        q = UniformQuantizer(4, opt_step_quiet(4))
        value = sdnr(bussgang_alpha(q, 1.0), power_gain_gamma(q, 1.0))
        best = -np.inf
        for step in np.arange(1e-3, 4.0, 1e-3):
            qq = UniformQuantizer(4, float(step))
            ratio = bussgang_alpha(qq, 1.0) ** 2 / power_gain_gamma(qq, 1.0)
            best = max(best, ratio / (1.0 - ratio))
        assert value == pytest.approx(best, rel=1e-4)

    def test_factors_bundle(self):
        q = UniformQuantizer(8, 0.6)
        fac = bussgang_factors(q, 2.0)
        assert isinstance(fac, BussgangFactors)
        assert fac.alpha == pytest.approx(bussgang_alpha(q, 2.0))
        assert fac.gamma == pytest.approx(power_gain_gamma(q, 2.0))
        assert fac.distortion_power == pytest.approx(4.0 * (fac.gamma - fac.alpha**2))
        assert fac.sdnr == pytest.approx(fac.alpha**2 / (fac.gamma - fac.alpha**2))


class TestOptimalStep:
    def test_two_level_canonical_with_flat_warning(self):
        with pytest.warns(FlatObjectiveWarning):
            step = optimal_step(2)
        assert step == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), rel=1e-12)

    def test_classical_table_values(self):
        # Minimum-distortion steps for Gaussian input (Max 1960, Table II);
        # the SDNR optimum lands on the same values at this precision.
        assert optimal_step(4) == pytest.approx(0.9957, abs=2e-3)
        assert optimal_step(8) == pytest.approx(0.5860, abs=2e-3)

    @pytest.mark.parametrize("levels", [4, 8, 16, 64])
    def test_stationary_against_grid(self, levels):
        grid = np.arange(1e-3, 8.0, 1e-3)
        best_step, best_val = 0.0, -np.inf
        for step in grid:
            q = UniformQuantizer(levels, float(step))
            val = bussgang_alpha(q, 1.0) ** 2 / power_gain_gamma(q, 1.0)
            if val > best_val:
                best_step, best_val = float(step), val
        assert abs(optimal_step(levels) - best_step) <= 1e-3

    def test_unquantized_limit_monotone(self):
        prev_alpha, prev_gamma = -np.inf, -np.inf
        levels = 2
        while levels <= 4096:
            q = UniformQuantizer(levels, opt_step_quiet(levels))
            a = bussgang_alpha(q, 1.0)
            g = power_gain_gamma(q, 1.0)
            assert a >= prev_alpha - 1e-12
            assert g >= prev_gamma - 1e-12
            prev_alpha, prev_gamma = a, g
            levels *= 2
        assert prev_alpha > 1.0 - 1e-6
        assert prev_gamma > 1.0 - 1e-6

    @pytest.mark.parametrize("levels", [3, 1, 0, -2])
    def test_rejects_invalid_levels(self, levels):
        with pytest.raises(ValueError):
            optimal_step(levels)

    def test_sizing_at_complex_variance(self):
        # AP m quantizes each component at the normalized optimum times the
        # component std sqrt(variance[m]/2).
        rng = np.random.default_rng(7)
        variance = np.array([0.5, 2.0, 3.0])
        x = (rng.normal(size=(3, 40)) + 1j * rng.normal(size=(3, 40))) * np.sqrt(variance)[:, None]
        out = fronthaul(x, 4, variance)
        for m, v in enumerate(variance):
            step = optimal_step(16) * math.sqrt(v / 2.0)
            np.testing.assert_array_equal(out[m], quantize_complex(x[m], 16, step))

    def test_level_limit_fails_fast(self):
        start = time.monotonic()
        with pytest.raises(ValueError, match=str(MAX_LEVELS)):
            optimal_step(2 * MAX_LEVELS)
        assert time.monotonic() - start < 1.0

    # Steps found by the solver with the untruncated series, to the last
    # bit: skipping underflowed terms must not move any of them.
    UNTRUNCATED_STEPS = {
        2: 0.9956869176962472,
        3: 0.5860194738208371,
        4: 0.3352007199160436,
        5: 0.18813895365628416,
        6: 0.10406295250104906,
        7: 0.05686781765091026,
        8: 0.03076257271093886,
        9: 0.016498900293846215,
        10: 0.008785391329024131,
        11: 0.004649996396608883,
        12: 0.002448304165896375,
        13: 0.0012836654487448475,
        14: 0.0006704153759025105,
    }

    @pytest.mark.parametrize("bits", sorted(UNTRUNCATED_STEPS))
    def test_bit_identical_to_untruncated_solver(self, bits):
        assert repr(optimal_step(2**bits)) == repr(self.UNTRUNCATED_STEPS[bits])

    @pytest.mark.parametrize("bits", range(10, 15))
    def test_deep_quantizer_optimum_against_dense_scan(self, bits):
        # From 2**13 levels on the optimum lies below the coarse grid's
        # spacing, so check the result against a scan dense at small steps.
        levels = 2**bits
        scan = np.geomspace(1e-5, _SEARCH_HI, 10_001)
        best = max(_sdnr_objective(levels, part).max() for part in np.array_split(scan, 50))
        assert _sdnr_objective(levels, optimal_step(levels)) >= best * (1.0 - 1e-12)


class TestSeriesTruncation:
    def test_cutoff_underflows(self):
        assert math.exp(-0.5 * _UNDERFLOW_ARG**2) == 0.0
        assert _gaussian_tail(_UNDERFLOW_ARG) == 0.0

    @pytest.mark.parametrize("levels", [4, 6, 100, 2**10, 10000, 2**14])
    def test_bit_identical_to_untruncated_series(self, levels):
        # Over the whole coarse grid, run by run as the solver scans it.
        # Exact equality also relies on the BLAS giving each row of the
        # gamma product the same float whether or not it splits the product
        # over threads, as OpenBLAS does at 1 and 2 threads for 200 rows.
        for run in SCAN_RUNS:
            np.testing.assert_array_equal(
                _alpha_normalized(levels, run), untruncated_alpha(levels, run)
            )
            np.testing.assert_array_equal(
                _gamma_normalized(levels, run), untruncated_gamma(levels, run)
            )

    def test_scalar_matches_untruncated_series(self):
        for levels in (100, 2**14):
            for d in (1e-4, 0.3, 0.8, 2.5, 7.9):
                assert _alpha_normalized(levels, d) == untruncated_alpha(levels, np.array([d]))[0]
                assert _gamma_normalized(levels, d) == untruncated_gamma(levels, np.array([d]))[0]

    def test_scan_tables_bounded_and_truncated(self):
        # At the deepest quantizer no term table of the coarse scan exceeds
        # 2e6 entries, and the scan evaluates under 3% of the full series.
        sizes = [run.size * _series_orders(MAX_LEVELS, run).size for run in SCAN_RUNS]
        assert max(sizes) <= 2_000_000
        assert sum(sizes) < 0.03 * COARSE_GRID.size * (MAX_LEVELS // 2 - 1)
