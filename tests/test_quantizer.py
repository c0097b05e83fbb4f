import collections
import functools
import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import erfc

from cfquant import quantizer
from cfquant.quantizer import (
    _BRACKET,
    MAX_LEVELS,
    FlatObjectiveWarning,
    bussgang_alpha,
    bussgang_row,
    distortion_power,
    fronthaul,
    optimal_step,
    power_gain_gamma,
    quantize,
    sdnr,
)


def untruncated_alpha(levels, d):
    """Oracle: the alpha series over every order l = 1..L/2-1, no cutoff."""
    ls = np.arange(1, levels // 2, dtype=float)
    series = 2.0 * np.exp(-0.5 * np.multiply.outer(ls**2, d**2)).sum(axis=0)
    return d / math.sqrt(2.0 * math.pi) * (series + 1.0)


def untruncated_gamma(levels, d):
    """Oracle: the gamma series over every order l = 1..L/2-1, no cutoff,
    with scipy's erfc."""
    ls = np.arange(1, levels // 2, dtype=float)
    series = 4.0 * (ls @ (0.5 * erfc(np.multiply.outer(ls, d) / math.sqrt(2.0))))
    return d**2 * (0.25 + series)


def mpmath_terms(levels, d):
    """Oracle: (1 - alpha, gamma - alpha, gamma - alpha**2) at the step ``d`` from
    the direct series at 50 digits, where their cancellation costs no digit a
    double holds."""
    with mpmath.workdps(50):
        d = mpmath.mpf(d)
        ls = range(1, levels // 2)
        alpha = d * mpmath.sqrt(2 / mpmath.pi) * (
            mpmath.mpf(1) / 2 + mpmath.fsum(mpmath.exp(-((l * d) ** 2) / 2) for l in ls)
        )
        gamma = d * d * (
            mpmath.mpf(1) / 4 + 2 * mpmath.fsum(l * mpmath.erfc(l * d / mpmath.sqrt(2)) for l in ls)
        )
        return 1 - alpha, gamma - alpha, gamma - alpha**2


def assert_excess_terms_match_mpmath(levels, d):
    """The solver's 1 - alpha and gap within 1e-14 relative of the oracle's, and
    its gamma - alpha within 1e-14 of the gap."""
    one_minus_alpha, excess, gap, _ = quantizer._excess(levels, d)
    oracle = mpmath_terms(levels, d)
    assert abs(one_minus_alpha - oracle[0]) <= 1e-14 * abs(oracle[0])
    assert abs(excess - oracle[1]) <= 1e-14 * oracle[2]
    assert abs(gap - oracle[2]) <= 1e-14 * oracle[2]


def assert_coefficients_within_ulps(levels, d, ulps):
    """``bussgang_alpha`` and ``power_gain_gamma`` at the step ``d`` within ``ulps``
    ulps of the oracle's alpha and gamma."""
    one_minus_alpha, excess, _ = mpmath_terms(levels, d)
    with mpmath.workdps(50):
        alpha = 1 - one_minus_alpha
        for value, exact in [(bussgang_alpha(levels, d), alpha),
                             (power_gain_gamma(levels, d), alpha + excess)]:
            assert abs(value - exact) <= ulps * math.ulp(value)


# A dense log grid over the solver's bracket, and the oracles' alpha and gamma
# on it, per level count, evaluated in runs of at most ~2e6 series terms.
DENSE_GRID = np.geomspace(*_BRACKET, 4001)


@functools.lru_cache(maxsize=None)
def oracle_on_dense_grid(levels):
    runs = np.array_split(DENSE_GRID, max(1, levels * DENSE_GRID.size // 4_000_000))
    return (
        np.concatenate([untruncated_alpha(levels, run) for run in runs]),
        np.concatenate([untruncated_gamma(levels, run) for run in runs]),
    )


def opt_step_quiet(levels):
    if levels == 2:
        with pytest.warns(FlatObjectiveWarning):
            return optimal_step(2)
    return optimal_step(levels)


# (levels, step) pairs that name no quantizer: odd or fewer than 2 levels,
# or a step that is not positive and finite anywhere in an array.
BAD_QUANTIZERS = [
    (3, 1.0),
    (1, 1.0),
    (0, 1.0),
    (-2, 1.0),
    (4, 0.0),
    (4, -1.0),
    (4, np.nan),
    (4, np.inf),
    (4, np.array([0.5, 0.0])),
]


class TestQuantize:
    def test_interior_bins(self):
        assert quantize(0.3, 4, 1.0) == 0.5
        assert quantize(-0.2, 4, 1.0) == -0.5

    def test_saturation(self):
        assert quantize(7.2, 4, 1.0) == 1.5
        assert quantize(-7.2, 4, 1.0) == -1.5

    def test_zero_falls_in_lower_bin(self):
        # Half-open bins (l*step, (l+1)*step]: 0 belongs to (-step, 0].
        assert quantize(0.0, 4, 1.0) == -0.5

    def test_output_alphabet(self):
        x = np.linspace(-5, 5, 4001)
        out = np.unique(quantize(x, 8, 0.5))
        expected = (np.arange(-4, 4) + 0.5) * 0.5
        np.testing.assert_allclose(out, expected)

    def test_odd_symmetry_off_boundaries(self):
        step = 0.3
        rng = np.random.default_rng(3)
        x = rng.normal(size=1000) * 2.0
        x = x[np.abs(x / step - np.round(x / step)) > 1e-6]
        np.testing.assert_allclose(quantize(-x, 16, step), -quantize(x, 16, step))

    def test_nondecreasing(self):
        x = np.linspace(-6, 6, 20001)
        out = quantize(x, 8, 0.7)
        assert np.all(np.diff(out) >= 0.0)

    @pytest.mark.parametrize("bits", range(1, 15))
    def test_one_clip_pass_matches_shifted_form_bitwise(self, bits):
        # quantize's clip(ceil(x/d), 1 - L/2, L/2) - 1/2 against the bin index form
        # clip(ceil(x/d) - 1, -L/2, L/2 - 1) + 1/2, both times d, bit for bit: on every
        # bin edge and an ulp to either side, at +-0.0 and the smallest subnormals, in
        # saturation, and where x/d overflows to +-inf, which quantize does unwarned.
        levels = 2**bits
        half = levels // 2
        rng = np.random.default_rng(bits)
        for step in (0.37, 1e-10):
            edges = np.arange(-half - 2, half + 3) * step
            x = np.concatenate([
                edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
                [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300],
                rng.normal(scale=half * step, size=1000),
            ])
            with np.errstate(over="ignore"):
                shifted = (np.clip(np.ceil(x / step) - 1.0, -half, half - 1) + 0.5) * step
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = quantize(x, levels, step)
            np.testing.assert_array_equal(got.view(np.int64), shifted.view(np.int64))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            quantize(bad, 4, 1.0)
        with pytest.raises(ValueError, match="finite"):
            quantize(complex(bad, 0.0), 4, 1.0)

    def test_invalid_quantizer(self):
        for levels, step in BAD_QUANTIZERS:
            with pytest.raises(ValueError, match="levels must be even|step must be positive"):
                quantize(0.3, levels, step)

    def test_componentwise(self):
        assert quantize(0.3 - 0.2j, 4, 1.0) == 0.5 - 0.5j

    def test_zero_convention(self):
        assert quantize(0.0 + 0.0j, 4, 1.0) == -0.5 - 0.5j

    def test_double_saturation(self):
        assert quantize(10 + 10j, 4, 1.0) == 1.5 + 1.5j

    def test_matches_real_quantizer(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=200) + 1j * rng.normal(size=200)
        out = quantize(x, 16, 0.23)
        assert out.dtype == complex
        np.testing.assert_array_equal(out.real, quantize(x.real, 16, 0.23))
        np.testing.assert_array_equal(out.imag, quantize(x.imag, 16, 0.23))

    @pytest.mark.parametrize("case", ["transposed", "sliced", "empty"])
    def test_stack_matches_per_rail_quantizer(self, case):
        # Non-contiguous and zero-size stacks with per-row steps against the
        # real map on each rail of each row, bit for bit.
        rng = np.random.default_rng(9)
        stack = 3.0 * (rng.normal(size=(5, 4, 6)) + 1j * rng.normal(size=(5, 4, 6)))
        x = {
            "transposed": stack.transpose(0, 2, 1),
            "sliced": stack[::2, 1:, ::3],
            "empty": stack[:0],
        }[case]
        steps = np.linspace(0.2, 1.3, x.shape[-2])
        out = quantize(x, 16, steps[:, None])
        assert out.shape == x.shape
        for m, step in enumerate(steps):
            np.testing.assert_array_equal(out[..., m, :].real, quantize(x[..., m, :].real, 16, step))
            np.testing.assert_array_equal(out[..., m, :].imag, quantize(x[..., m, :].imag, 16, step))

    def test_scalar_matches_per_rail_quantizer(self):
        for x in (np.asarray(1.3 - 2.9j), 0.05 + 0.4j):
            out = quantize(x, 16, 0.7)
            assert type(out) is complex
            real, imag = quantize(np.real(x), 16, 0.7), quantize(np.imag(x), 16, 0.7)
            assert type(real) is float
            assert (out.real, out.imag) == (real, imag)

    def test_per_row_steps_kernel(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 50)) + 1j * rng.normal(size=(3, 50))
        steps = np.array([0.2, 0.5, 1.1])
        out = quantize(x, 8, steps[:, None])
        for m, step in enumerate(steps):
            np.testing.assert_array_equal(out[m].real, quantize(x[m].real, 8, step))
            np.testing.assert_array_equal(out[m].imag, quantize(x[m].imag, 8, step))

    @pytest.mark.parametrize("kind", [float, complex])
    def test_in_place(self, kind):
        # Per-row steps over a leading trial axis, written back into x.
        rng = np.random.default_rng(13)
        x = 2.0 * rng.normal(size=(5, 4, 6)).astype(kind)
        if kind is complex:
            x += 2j * rng.normal(size=x.shape)
        steps = np.linspace(0.2, 1.3, 4)[:, None]
        expected = quantize(x, 16, steps)
        assert expected.dtype == kind
        assert quantize(x, 16, steps, out=x) is x
        np.testing.assert_array_equal(x, expected)

    @pytest.mark.parametrize("kind", [float, complex])
    def test_rejects_out_of_other_kind(self, kind):
        other = complex if kind is float else float
        with pytest.raises(ValueError, match="out must be"):
            quantize(np.ones(3, dtype=kind), 4, 1.0, out=np.empty(3, dtype=other))


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

    def test_in_place_same_bits(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(5, 3, 4)) + 1j * rng.normal(size=(5, 3, 4))
        variance = np.array([1.0, 2.0, 0.5])
        expected = fronthaul(x, 6, variance)
        assert fronthaul(x, 6, variance, out=x) is x
        np.testing.assert_array_equal(x, expected)

    def test_rejects_out_of_wrong_shape(self):
        x = np.ones((3, 2), dtype=complex)
        with pytest.raises(ValueError, match="out must be"):
            fronthaul(x, 4, np.ones(3), out=np.empty((3, 3), dtype=complex))

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
        assert bussgang_alpha(2, 1.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=1e-14
        )

    def test_small_step_limit_linear(self):
        # Every exponential tends to 1, so alpha ~ (L-1)*step/sqrt(2*pi).
        for levels in (4, 8):
            step = 1e-7
            expected = (levels - 1) * step / math.sqrt(2.0 * math.pi)
            assert bussgang_alpha(levels, step) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("step,expected", [(1.0, 0.25), (2.0, 1.0)])
    def test_two_level_gamma(self, step, expected):
        assert power_gain_gamma(2, step) == pytest.approx(expected, rel=1e-14)

    def test_scale_invariance(self):
        # Scaling input and step together scales the output, bit for bit at
        # power-of-two scales: so a quantizer's factors at input std sigma
        # are those of its step/sigma at unit variance, which is all the
        # closed forms take.
        rng = np.random.default_rng(7)
        for _ in range(20):
            levels = int(rng.choice([2, 4, 16, 64]))
            step = float(rng.uniform(0.05, 3.0))
            scale = 2.0 ** int(rng.integers(-7, 8))
            x = rng.normal(size=500) + 1j * rng.normal(size=500)
            np.testing.assert_array_equal(
                quantize(scale * x, levels, scale * step), scale * quantize(x, levels, step)
            )

    @pytest.mark.parametrize("factor", [bussgang_alpha, power_gain_gamma])
    def test_rejects_bad_quantizer(self, factor):
        for levels, step in BAD_QUANTIZERS:
            with pytest.raises(ValueError, match="levels must be even|step must be positive"):
                factor(levels, step)

    def test_gamma_dominates_alpha_squared(self):
        for levels in (2, 4, 8, 32, 256):
            for step in np.linspace(0.02, 6.0, 80):
                a = bussgang_alpha(levels, float(step))
                g = power_gain_gamma(levels, float(step))
                assert g - a * a >= -1e-12

    @pytest.mark.parametrize("factor", [bussgang_alpha, power_gain_gamma])
    def test_takes_one_step(self, factor):
        # An array of steps is rejected, 1-D or 2-D; a numpy scalar step is the step.
        for steps in (np.array([0.3, 1.1]), np.array([[0.05, 0.3], [2.0, 0.7]])):
            with pytest.raises(ValueError, match="one step"):
                factor(64, steps)
        for d in (0.05, 0.3, 1.1, 4.5, 20.0):
            value = factor(64, np.float64(d))
            assert type(value) is float and value == factor(64, d)

    def test_scalar_matches_untruncated_series(self):
        # Within a few ulps: the oracle's gamma takes scipy's erfc, the
        # library's libm's.  Above the solver's bracket (8.5 and up) the terms
        # of the overload tails no longer hold, and the direct series answer.
        for levels in (4, 100, 2**10, 2**14):
            for d in (1e-6, 1e-4, 0.3, 0.8, 2.5, 7.9, 8.5, 20.0, 100.0):
                alpha = untruncated_alpha(levels, np.array([d]))[0]
                gamma = untruncated_gamma(levels, np.array([d]))[0]
                assert abs(bussgang_alpha(levels, d) - alpha) <= 4 * math.ulp(alpha)
                assert abs(power_gain_gamma(levels, d) - gamma) <= 4 * math.ulp(gamma)

    @pytest.mark.parametrize(
        "levels, step", [(64, 1.1849045434468677), (1024, 0.07472797155458294)]
    )
    def test_no_warning_where_the_overload_vanishes(self, levels, step):
        # The overload beyond the last level is a few tiny terms there, so the
        # granular-to-overload ratio of the step solver's estimate overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert 0.0 < bussgang_alpha(levels, step) < power_gain_gamma(levels, step)

    def test_alpha_against_sampling_oracle(self, unit_normal_pool):
        # alpha is the correlation estimate E[x*g(x)]/var(x).
        gx = quantize(unit_normal_pool, 16, 0.4)
        prod = unit_normal_pool * gx
        estimate = prod.mean()
        se = prod.std() / math.sqrt(prod.size)
        closed = bussgang_alpha(16, 0.4)
        assert abs(estimate - closed) <= max(2e-3, 4.0 * se)

    def test_gamma_against_sampling_oracle(self, unit_normal_pool):
        sq = quantize(unit_normal_pool, 8, 0.6) ** 2
        estimate = sq.mean()
        se = sq.std() / math.sqrt(sq.size)
        closed = power_gain_gamma(8, 0.6)
        assert abs(estimate - closed) <= max(2e-3, 4.0 * se)

    def test_bussgang_orthogonality(self, unit_normal_pool):
        step = opt_step_quiet(8)
        a = bussgang_alpha(8, step)
        resid = unit_normal_pool * (quantize(unit_normal_pool, 8, step) - a * unit_normal_pool)
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
        step = opt_step_quiet(8) * total_sigma
        a = bussgang_alpha(8, step / total_sigma)
        d = quantize(x + z, 8, step) - a * (x + z)
        prod = z * d
        se = prod.std() / math.sqrt(n)
        assert abs(prod.mean()) < 4.0 * se


class TestDistortionAndSdnr:
    def test_distortion_free_limit(self):
        assert distortion_power(0.0, 5.0) == 0.0

    def test_two_level_distortion(self):
        a = 1.0 / math.sqrt(2.0 * math.pi)
        assert distortion_power(0.25 - a**2, 1.0) == pytest.approx(0.25 - 1.0 / (2.0 * math.pi), rel=1e-12)

    def test_distortion_against_sampling_oracle(self, unit_normal_pool):
        step = opt_step_quiet(4)
        a = bussgang_alpha(4, step)
        g = power_gain_gamma(4, step)
        resid_sq = (quantize(unit_normal_pool, 4, step) - a * unit_normal_pool) ** 2
        assert abs(resid_sq.mean() - distortion_power(g - a**2, 1.0)) <= 2e-3

    def test_inconsistent_inputs_rejected(self):
        # A negative gap (gamma below alpha**2), or one that is not a finite number.
        for gap in (-0.5, -1e-300, math.nan, math.inf):
            with pytest.raises(ValueError, match="distortion gap"):
                distortion_power(gap, 1.0)
            with pytest.raises(ValueError, match="distortion gap"):
                sdnr(1.0, gap)

    def test_sdnr_two_level_flat(self):
        expected = (2.0 / math.pi) / (1.0 - 2.0 / math.pi)
        for step in (0.5, 1.0, 2.0):
            a, g = bussgang_alpha(2, step), power_gain_gamma(2, step)
            assert sdnr(a, g - a**2) == pytest.approx(expected, abs=1e-9)

    def test_sdnr_infinite_without_distortion(self):
        assert sdnr(1.0, 0.0) == math.inf

    def test_sdnr_matches_grid_scan(self):
        # Independent scan of alpha**2/gamma over the normalized step.
        step_opt = opt_step_quiet(4)
        a, g = bussgang_alpha(4, step_opt), power_gain_gamma(4, step_opt)
        value = sdnr(a, g - a**2)
        best = -np.inf
        for step in np.arange(1e-3, 4.0, 1e-3):
            ratio = bussgang_alpha(4, float(step)) ** 2 / power_gain_gamma(4, float(step))
            best = max(best, ratio / (1.0 - ratio))
        assert value == pytest.approx(best, rel=1e-4)


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
            val = bussgang_alpha(levels, float(step)) ** 2 / power_gain_gamma(levels, float(step))
            if val > best_val:
                best_step, best_val = float(step), val
        assert abs(optimal_step(levels) - best_step) <= 1e-3

    def test_unquantized_limit_monotone(self):
        prev_alpha, prev_gamma = -np.inf, -np.inf
        levels = 2
        while levels <= 4096:
            step = opt_step_quiet(levels)
            a = bussgang_alpha(levels, step)
            g = power_gain_gamma(levels, step)
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
            np.testing.assert_array_equal(out[m], quantize(x[m], 16, step))

    def test_level_limit_fails_fast(self):
        start = time.monotonic()
        with pytest.raises(ValueError, match=str(MAX_LEVELS)):
            optimal_step(2 * MAX_LEVELS)
        assert time.monotonic() - start < 1.0

    def test_bracket_holds_at_every_level_count(self):
        # The solver's bracket for every even L from 2 to MAX_LEVELS, from one
        # prefix sum of the series terms per end: entry i holds the orders
        # l = 1..i, i.e. L = 2*i + 2 (no order at L = 2).  gamma < alpha at the
        # lower end and gamma > alpha at the upper end, each by a wide margin.
        ls = np.arange(1, MAX_LEVELS // 2, dtype=float)
        margins = []
        for d in _BRACKET:
            a_terms = np.exp(-0.5 * (ls * d) ** 2)
            g_terms = ls * 0.5 * erfc(ls * d / math.sqrt(2.0))
            alpha = d / math.sqrt(2.0 * math.pi) * (1.0 + 2.0 * np.cumsum(np.append(0.0, a_terms)))
            gamma = d**2 * (0.25 + 4.0 * np.cumsum(np.append(0.0, g_terms)))
            margins.append(gamma / alpha)
        assert margins[0].size == margins[1].size == MAX_LEVELS // 2
        assert np.max(margins[0]) < 0.011
        assert np.min(margins[1]) > 5.0

    @pytest.mark.parametrize("bits", range(1, 15))
    def test_one_sign_change_on_dense_grid(self, bits):
        alpha, gamma = oracle_on_dense_grid(2**bits)
        below = gamma < alpha
        assert below[0] and not below[-1]
        assert np.count_nonzero(np.diff(below)) == 1

    # Steps of the earlier solver (a grid scan, then golden section, on the
    # untruncated series), to the last bit.
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
    def test_sign_change_at_step(self, bits):
        # Within 4 ulps of the step, the solver's gamma - alpha is below zero
        # and not below zero.
        levels = 2**bits
        step = optimal_step(levels)
        excess = [
            quantizer._excess(levels, d)[1] for d in step + math.ulp(step) * np.arange(-4, 5)
        ]
        assert min(excess) < 0.0 <= max(excess)

    @pytest.mark.parametrize("bits", range(2, 15))
    def test_step_within_two_ulps_of_mpmath_root(self, bits):
        # gamma - alpha at 50 digits changes sign between 2 ulps below and 2 ulps
        # above the step, and the solver's three terms match the oracle's there.
        levels = 2**bits
        step = optimal_step(levels)
        ulps = 2 * mpmath.mpf(math.ulp(step))
        assert mpmath_terms(levels, step - ulps)[1] < 0 < mpmath_terms(levels, step + ulps)[1]
        assert_excess_terms_match_mpmath(levels, step)

    @pytest.mark.parametrize("levels", [4, 6, 16, 64, 256, 1024])
    def test_excess_terms_against_mpmath_on_step_grid(self, levels):
        for factor in (0.95, 1.05, 1.5, 2.0):
            assert_excess_terms_match_mpmath(levels, factor * optimal_step(levels))

    @pytest.mark.parametrize("levels", [4, 6, 16, 64, 256, 1024])
    def test_coefficients_against_mpmath_on_step_grid(self, levels):
        # alpha and gamma read the cancellation-free terms there, within an ulp of
        # 50 digits; the direct series were off by up to 2.3 and 6.9 ulps.
        for factor in (0.95, 1.05, 1.5, 2.0):
            assert_coefficients_within_ulps(levels, factor * optimal_step(levels), 1.0)

    @pytest.mark.parametrize("bits", range(1, 15))
    def test_coefficients_against_mpmath_at_solved_steps(self, bits):
        # Within an ulp at every optimum (at 2 levels from the direct series, whose
        # 1 - alpha is 0.36); the direct series were off by up to 2.5 and 3.5 ulps.
        assert_coefficients_within_ulps(2**bits, opt_step_quiet(2**bits), 1.0)

    def test_cold_solve_evaluation_count(self, monkeypatch):
        # The solver's evaluations of gamma - alpha per power-of-two level count,
        # its two bracket checks included, from an empty cache.
        levels = collections.Counter()
        excess = quantizer._excess

        def counted(n, d):
            levels[n] += 1
            return excess(n, d)

        monkeypatch.setattr(quantizer, "_excess", counted)
        quantizer._solved_row.cache_clear()
        try:
            for bits in range(2, 15):
                optimal_step(2**bits)
        finally:
            quantizer._solved_row.cache_clear()
        assert sorted(levels) == [2**bits for bits in range(2, 15)]
        assert max(levels.values()) <= 12

    @pytest.mark.parametrize("bits", sorted(UNTRUNCATED_STEPS))
    def test_sdnr_no_lower_than_at_scan_solver_steps(self, bits):
        levels = 2**bits

        def sdnr_db(step):
            alpha, gamma = bussgang_alpha(levels, step), power_gain_gamma(levels, step)
            return 10.0 * math.log10(sdnr(alpha, gamma - alpha**2))

        assert sdnr_db(optimal_step(levels)) >= sdnr_db(self.UNTRUNCATED_STEPS[bits]) - 1e-12

    @pytest.mark.parametrize("bits", range(2, 15))
    def test_deep_quantizer_optimum_against_dense_scan(self, bits):
        levels = 2**bits
        alpha, gamma = oracle_on_dense_grid(levels)
        step = np.array([optimal_step(levels)])
        objective = untruncated_alpha(levels, step)[0] ** 2 / untruncated_gamma(levels, step)[0]
        assert objective >= np.max(alpha * alpha / gamma) * (1.0 - 1e-12)


class TestRowGap:
    @pytest.mark.parametrize("bits", range(1, 15))
    def test_row_against_mpmath(self, bits):
        # The row's gap within 1e-14 relative of gamma - alpha**2 at 50 digits,
        # where the row's alpha and gamma formed it with a loss of up to 3e-9
        # (14 bits); alpha and gamma themselves within an ulp.
        levels = 2**bits
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FlatObjectiveWarning)
            row = bussgang_row(levels)
        one_minus_alpha, excess, gap = mpmath_terms(levels, row["step"])
        with mpmath.workdps(50):
            alpha = 1 - one_minus_alpha
            gamma = alpha + excess
            assert abs(row["gap"] - gap) <= 1e-14 * gap
            assert abs(row["alpha"] - alpha) <= math.ulp(row["alpha"])
            assert abs(row["gamma"] - gamma) <= math.ulp(row["gamma"])

    def test_two_level_row_in_closed_form(self):
        with pytest.warns(FlatObjectiveWarning):
            row = bussgang_row(2)
        assert row["alpha"] == row["gamma"] == 2.0 / math.pi
        assert row["gap"] == pytest.approx(2.0 / math.pi - 4.0 / math.pi**2, rel=1e-15)

    def test_closed_forms_read_the_gap(self):
        row = bussgang_row(2**12)
        assert distortion_power(row["gap"], 3.0) == 3.0 * row["gap"]
        assert sdnr(row["alpha"], row["gap"]) == row["alpha"] ** 2 / row["gap"]
