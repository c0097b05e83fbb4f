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
    _excess,
    bussgang_row,
    distortion_power,
    fronthaul,
    optimal_step,
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
    _, _, one_minus_alpha, excess, gap, _ = quantizer._excess(levels, d)
    oracle = mpmath_terms(levels, d)
    assert abs(one_minus_alpha - oracle[0]) <= 1e-14 * abs(oracle[0])
    assert abs(excess - oracle[1]) <= 1e-14 * oracle[2]
    assert abs(gap - oracle[2]) <= 1e-14 * oracle[2]


def alpha_gamma(levels, d):
    """(alpha, gamma) of the L-level quantizer at the normalized step ``d``."""
    return _excess(levels, float(d))[:2]


def assert_coefficients_within_ulps(levels, d, ulps):
    """alpha and gamma at the step ``d`` within ``ulps`` ulps of the oracle's."""
    one_minus_alpha, excess, _ = mpmath_terms(levels, d)
    with mpmath.workdps(50):
        alpha = 1 - one_minus_alpha
        for value, exact in zip(alpha_gamma(levels, d), (alpha, alpha + excess)):
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
        assert alpha_gamma(2, 1.0)[0] == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=1e-14
        )

    def test_small_step_limit_linear(self):
        # Every exponential tends to 1, so alpha ~ (L-1)*step/sqrt(2*pi).
        for levels in (4, 8):
            step = 1e-7
            expected = (levels - 1) * step / math.sqrt(2.0 * math.pi)
            assert alpha_gamma(levels, step)[0] == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("step,expected", [(1.0, 0.25), (2.0, 1.0)])
    def test_two_level_gamma(self, step, expected):
        assert alpha_gamma(2, step)[1] == pytest.approx(expected, rel=1e-14)

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

    def test_gamma_dominates_alpha_squared(self):
        for levels in (2, 4, 8, 32, 256):
            for step in np.linspace(0.02, 6.0, 80):
                a, g = alpha_gamma(levels, step)
                assert g - a * a >= -1e-12

    def test_scalar_matches_untruncated_series(self):
        # Within a few ulps: the oracle's gamma takes scipy's erfc, the
        # library's libm's.  Above the solver's bracket (8.5 and up) the terms
        # of the overload tails no longer hold, and the direct series answer.
        for levels in (4, 100, 2**10, 2**14):
            for d in (1e-6, 1e-4, 0.3, 0.8, 2.5, 7.9, 8.5, 20.0, 100.0):
                alpha = untruncated_alpha(levels, np.array([d]))[0]
                gamma = untruncated_gamma(levels, np.array([d]))[0]
                a, g = alpha_gamma(levels, d)
                assert abs(a - alpha) <= 4 * math.ulp(alpha)
                assert abs(g - gamma) <= 4 * math.ulp(gamma)

    @pytest.mark.parametrize(
        "levels, step", [(64, 1.1849045434468677), (1024, 0.07472797155458294)]
    )
    def test_no_warning_where_the_overload_vanishes(self, levels, step):
        # The overload beyond the last level is a few tiny terms there, so the
        # granular-to-overload ratio of the step solver's estimate overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alpha, gamma = alpha_gamma(levels, step)
            assert 0.0 < alpha < gamma

    def test_alpha_against_sampling_oracle(self, unit_normal_pool):
        # alpha is the correlation estimate E[x*g(x)]/var(x).
        gx = quantize(unit_normal_pool, 16, 0.4)
        prod = unit_normal_pool * gx
        estimate = prod.mean()
        se = prod.std() / math.sqrt(prod.size)
        closed = alpha_gamma(16, 0.4)[0]
        assert abs(estimate - closed) <= max(2e-3, 4.0 * se)

    def test_gamma_against_sampling_oracle(self, unit_normal_pool):
        sq = quantize(unit_normal_pool, 8, 0.6) ** 2
        estimate = sq.mean()
        se = sq.std() / math.sqrt(sq.size)
        closed = alpha_gamma(8, 0.6)[1]
        assert abs(estimate - closed) <= max(2e-3, 4.0 * se)

    def test_bussgang_orthogonality(self, unit_normal_pool):
        step = opt_step_quiet(8)
        a = alpha_gamma(8, step)[0]
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
        a = alpha_gamma(8, step / total_sigma)[0]
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
        a, g = alpha_gamma(4, step)
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
            a, g = alpha_gamma(2, step)
            assert sdnr(a, g - a**2) == pytest.approx(expected, abs=1e-9)

    def test_sdnr_infinite_without_distortion(self):
        assert sdnr(1.0, 0.0) == math.inf

    def test_sdnr_matches_grid_scan(self):
        # Independent scan of alpha**2/gamma over the normalized step.
        step_opt = opt_step_quiet(4)
        a, g = alpha_gamma(4, step_opt)
        value = sdnr(a, g - a**2)
        best = -np.inf
        for step in np.arange(1e-3, 4.0, 1e-3):
            a, g = alpha_gamma(4, step)
            ratio = a**2 / g
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
            a, g = alpha_gamma(levels, step)
            val = a**2 / g
            if val > best_val:
                best_step, best_val = float(step), val
        assert abs(optimal_step(levels) - best_step) <= 1e-3

    def test_unquantized_limit_monotone(self):
        prev_alpha, prev_gamma = -np.inf, -np.inf
        levels = 2
        while levels <= 4096:
            step = opt_step_quiet(levels)
            a, g = alpha_gamma(levels, step)
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
            quantizer._excess(levels, d)[3] for d in step + math.ulp(step) * np.arange(-4, 5)
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
            alpha, gamma = alpha_gamma(levels, step)
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


class TestBussgangBitsPinned:
    """The rows, and alpha and gamma at single steps (``_excess``), to the last
    bit, as float.hex literals, so that a refactor of the sums that moves any
    bit fails here and not only in the 9 digits of the campaign CSVs."""

    # bits: (step, alpha, gamma, gap)
    ROWS = {
        1: ("0x1.9884533d43651p+0", "0x1.45f306dc9c883p-1", "0x1.45f306dc9c883p-1", "0x1.d9c62f2e193cap-3"),
        2: ("0x1.fdcaa53261458p-1", "0x1.c3269c48aee8ep-1", "0x1.c3269c48aee8ep-1", "0x1.acf0a05a0232dp-4"),
        3: ("0x1.2c0abd7fa3d25p-1", "0x1.ecd4b57eae181p-1", "0x1.ecd4b57eae181p-1", "0x1.2739050aa437cp-5"),
        4: ("0x1.573ed44bfe03cp-2", "0x1.fa170d11bb4f7p-1", "0x1.fa170d11bb4f7p-1", "0x1.75df0cc089cd8p-7"),
        5: ("0x1.814ee8fae3d7fp-3", "0x1.fe35e02b04fadp-1", "0x1.fe35e02b04fadp-1", "0x1.c885ea060178fp-9"),
        6: ("0x1.aa3df9646dbd8p-4", "0x1.ff77adddf73c9p-1", "0x1.ff77adddf73c9p-1", "0x1.105bacb303ce2p-10"),
        7: ("0x1.d1dc27229eb2cp-5", "0x1.ffd81c4967880p-1", "0x1.ffd81c4967880p-1", "0x1.3f04d813009e7p-12"),
        8: ("0x1.f802ce273abf9p-6", "0x1.fff481bd66452p-1", "0x1.fff481bd66452p-1", "0x1.6fc011b76db81p-14"),
        9: ("0x1.0e51a61684973p-6", "0x1.fffcbbdb2a4d5p-1", "0x1.fffcbbdb2a4d5p-1", "0x1.a20fc01930604p-16"),
        10: ("0x1.1fe1d187272bfp-7", "0x1.ffff15382eda3p-1", "0x1.ffff15382eda3p-1", "0x1.d58ecaf9bb5f8p-18"),
        11: ("0x1.30bb66a040716p-8", "0x1.ffffbec19e4fap-1", "0x1.ffffbec19e4fap-1", "0x1.04f965800649ep-19"),
        12: ("0x1.40eb0b1041159p-9", "0x1.ffffee07c6b38p-1", "0x1.ffffee07c6b38p-1", "0x1.1f838ab049e88p-21"),
        13: ("0x1.507e546214ed9p-10", "0x1.fffffb16b2718p-1", "0x1.fffffb16b2718p-1", "0x1.3a53609cd680fp-23"),
        14: ("0x1.5f82843276e77p-11", "0x1.fffffeaaa4249p-1", "0x1.fffffeaaa4249p-1", "0x1.555bda925065cp-25"),
    }

    # (levels, step, alpha, gamma) at steps 1% and 1 and 3 ulps either side of
    # two boundaries: the 3/4 reach (L - 1)*d = 0.75*sqrt(2*pi), below which
    # alpha < 3/4 bounds the summed 1 - alpha away from 1/4, and the step where
    # the summed 1 - alpha crosses 1/4, below which the direct series apply.
    PRIMITIVES = [
        (4, "0x1.3da3d2c712182p-1", "0x1.4fcb15ebad183p-1", "0x1.041edba53151ap-1"),
        (4, "0x1.40d931ff62702p-1", "0x1.525c911d0ffe3p-1", "0x1.07bf22e370d00p-1"),
        (4, "0x1.40d931ff62704p-1", "0x1.525c911d0ffe5p-1", "0x1.07bf22e370d02p-1"),
        (4, "0x1.40d931ff62705p-1", "0x1.525c911d0ffe6p-1", "0x1.07bf22e370d03p-1"),
        (4, "0x1.40d931ff62706p-1", "0x1.525c911d0ffe7p-1", "0x1.07bf22e370d04p-1"),
        (4, "0x1.40d931ff62708p-1", "0x1.525c911d0ffe8p-1", "0x1.07bf22e370d07p-1"),
        (4, "0x1.440e9137b2c88p-1", "0x1.54e888c5c88a3p-1", "0x1.0b5da94a36d16p-1"),
        (4, "0x1.7b7659743b75ep-1", "0x1.7d70760ad2457p-1", "0x1.4842fcdd8173ap-1"),
        (4, "0x1.7f4b95d51545cp-1", "0x1.8000000000000p-1", "0x1.4c544acce4350p-1"),
        (4, "0x1.7f4b95d51545ep-1", "0x1.8000000000001p-1", "0x1.4c544acce4352p-1"),
        (4, "0x1.7f4b95d51545fp-1", "0x1.8000000000000p-1", "0x1.4c544acce4352p-1"),
        (4, "0x1.7f4b95d515460p-1", "0x1.8000000000002p-1", "0x1.4c544acce4354p-1"),
        (4, "0x1.7f4b95d515462p-1", "0x1.8000000000002p-1", "0x1.4c544acce4356p-1"),
        (4, "0x1.8320d235ef160p-1", "0x1.82877366e6f46p-1", "0x1.505fce0d7dfa0p-1"),
        (64, "0x1.e405d3787d18ap-6", "0x1.4bc00d8cf7ef5p-1", "0x1.e2a7b3e06f6c8p-2"),
        (64, "0x1.e8e970c21c18bp-6", "0x1.4e3ae07da8d19p-1", "0x1.e8f3d67243249p-2"),
        (64, "0x1.e8e970c21c18dp-6", "0x1.4e3ae07da8d1ap-1", "0x1.e8f3d6724324cp-2"),
        (64, "0x1.e8e970c21c18ep-6", "0x1.4e3ae07da8d1bp-1", "0x1.e8f3d6724324ep-2"),
        (64, "0x1.e8e970c21c18fp-6", "0x1.4e3ae07da8d1bp-1", "0x1.e8f3d6724324cp-2"),
        (64, "0x1.e8e970c21c191p-6", "0x1.4e3ae07da8d1dp-1", "0x1.e8f3d67243250p-2"),
        (64, "0x1.edcd0e0bbb192p-6", "0x1.50b01df9dc43bp-1", "0x1.ef39ba6ac2b65p-2"),
        (64, "0x1.2827e14b2f2e2p-5", "0x1.7d8f0da91e53ap-1", "0x1.338ae96c1ceb8p-1"),
        (64, "0x1.2b25b27025500p-5", "0x1.7ffffffffffffp-1", "0x1.36f2685682a0fp-1"),
        (64, "0x1.2b25b27025502p-5", "0x1.8000000000002p-1", "0x1.36f2685682a13p-1"),
        (64, "0x1.2b25b27025503p-5", "0x1.8000000000000p-1", "0x1.36f2685682a10p-1"),
        (64, "0x1.2b25b27025504p-5", "0x1.8000000000001p-1", "0x1.36f2685682a12p-1"),
        (64, "0x1.2b25b27025506p-5", "0x1.8000000000002p-1", "0x1.36f2685682a13p-1"),
        (64, "0x1.2e2383951b724p-5", "0x1.8268bb7f6be74p-1", "0x1.3a5226c555f02p-1"),
    ]

    @pytest.mark.parametrize("bits", sorted(ROWS))
    def test_row_bits(self, bits):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FlatObjectiveWarning)
            row = bussgang_row(2**bits)
        assert tuple(row[k].hex() for k in ("step", "alpha", "gamma", "gap")) == self.ROWS[bits]

    @pytest.mark.parametrize("levels, step, alpha, gamma", PRIMITIVES)
    def test_primitive_bits_at_boundaries(self, levels, step, alpha, gamma):
        d = float.fromhex(step)
        assert alpha_gamma(levels, d)[0].hex() == alpha
        assert alpha_gamma(levels, d)[1].hex() == gamma
