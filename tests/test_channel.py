import math
import re
import tracemalloc

import numpy as np
import pytest

from cfquant.channel import (
    PathLossModel,
    _runs,
    complex_normal,
    draw_geometry,
    draw_small_scale,
    large_scale_gains,
    noise_variance,
    path_loss,
    received_variance,
)
from cfquant.detection import simulate_uplink
from cfquant.simulation import SimulationConfig


@pytest.fixture
def model():
    return PathLossModel()


class TestPathLoss:
    def test_near_field_plateau(self, model):
        assert path_loss(5.0, model) == 1.0

    def test_first_breakpoint_region(self, model):
        assert path_loss(100.0, model) == pytest.approx(0.01, rel=1e-12)

    def test_far_region(self, model):
        expected = 0.01 * 5.0 ** (-3.5)
        assert path_loss(500.0, model) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(3.5777e-5, rel=1e-4)

    def test_continuity_at_breakpoints(self, model):
        eps = 1e-9
        for d in (model.d0, model.d1):
            below = path_loss(d - eps, model)
            above = path_loss(d + eps, model)
            assert below == pytest.approx(above, abs=1e-7)
        # Exact one-sided limits evaluated analytically.
        assert path_loss(model.d0, model) == pytest.approx(1.0, rel=1e-12)
        assert path_loss(model.d1, model) == pytest.approx(
            (model.d1 / model.d0) ** (-model.gamma0), rel=1e-12
        )

    def test_nonincreasing(self, model):
        d = np.linspace(0.0, 2000.0, 40001)
        gains = path_loss(d, model)
        assert np.all(np.diff(gains) <= 1e-15)

    def test_rejects_negative_distance(self, model):
        with pytest.raises(ValueError):
            path_loss(-1.0, model)

    def test_rejects_nan_distance(self, model):
        # NaN compares false both ways, so it is not a nonnegative distance.
        with pytest.raises(ValueError, match="distance must be nonnegative"):
            path_loss(np.array([10.0, np.nan]), model)

    def test_invalid_model(self):
        with pytest.raises(ValueError):
            PathLossModel(d0=100.0, d1=10.0)
        with pytest.raises(ValueError):
            PathLossModel(gamma0=-1.0)

    @pytest.mark.parametrize("field", ["gamma0", "gamma1"])
    def test_rejects_nan_exponent(self, field):
        with pytest.raises(ValueError, match="exponents must be positive"):
            PathLossModel(**{field: math.nan})

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"gamma0": math.inf}, "exponents must be positive and finite"),
         ({"gamma1": math.inf}, "exponents must be positive and finite"),
         ({"d1": math.inf}, "need 0 < d0 < d1 < inf")],
        ids=["gamma0", "gamma1", "d1"],
    )
    def test_rejects_infinite_parameter(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            PathLossModel(**kwargs)


class TestNoiseVariance:
    def test_reference_value_at_20db(self, model):
        assert noise_variance(model, 1000.0, 100.0) == pytest.approx(3.5777e-7, rel=1e-4)

    def test_zero_db(self, model):
        assert noise_variance(model, 1000.0, 1.0) == pytest.approx(3.5777e-5, rel=1e-4)

    def test_equals_midrange_path_loss_over_snr(self, model):
        for l_serv in (100.0, 150.0, 400.0, 1000.0, 3000.0):
            for snr in (1.0, 10.0, 100.0):
                assert noise_variance(model, l_serv, snr) == pytest.approx(
                    path_loss(l_serv / 2.0, model) / snr, rel=1e-12
                )

    def test_rejects_bad_snr(self, model):
        with pytest.raises(ValueError):
            noise_variance(model, 1000.0, 0.0)

    def test_config_sigma_n2_from_db(self, model):
        assert SimulationConfig(snr_edge_db=20.0).sigma_n2 == noise_variance(model, 1000.0, 100.0)

    def test_rejects_variance_that_underflows(self, model):
        with pytest.raises(ValueError, match=r"^sigma_n2 must be positive and finite, got 0\.0$"):
            noise_variance(model, 1e300, 100.0)


class TestPowerChecks:
    """Every entry point that takes sigma_s2 or sigma_n2 as a float checks it."""

    @pytest.mark.parametrize("sigma_n2", [0.0, -1e-3, math.inf, math.nan])
    def test_simulate_functions_reject_bad_noise(self, sigma_n2):
        message = f"^{re.escape(f'sigma_n2 must be positive and finite, got {sigma_n2}')}$"
        with pytest.raises(ValueError, match=message):
            simulate_uplink(np.ones((2, 1)), np.ones(1), sigma_n2, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"sigma_s2": -1.0}, "sigma_s2 must be positive"),
            ({"l_serv_m": 1e300}, "sigma_n2 must be positive and finite, got 0.0"),
        ],
    )
    def test_config_rejects_bad_powers(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SimulationConfig(**kwargs)


class TestGeometry:
    def test_points_inside_area(self):
        rng = np.random.default_rng(0)
        ap, ut = draw_geometry(200, 40, 1000.0, rng)
        assert ap.shape == (200, 2)
        assert ut.shape == (40, 2)
        for pts in (ap, ut):
            assert np.all(pts >= 0.0) and np.all(pts <= 1000.0)

    def test_deterministic_given_seed(self):
        a = draw_geometry(30, 10, 500.0, np.random.default_rng(42))
        b = draw_geometry(30, 10, 500.0, np.random.default_rng(42))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_uniform_mean(self):
        # 1e5 points -> 2e5 coordinates with mean l_serv/2.
        rng = np.random.default_rng(1)
        ap, ut = draw_geometry(50_000, 50_000, 1000.0, rng)
        coords = np.concatenate([ap.ravel(), ut.ravel()])
        se = 1000.0 / math.sqrt(12.0) / math.sqrt(coords.size)
        assert abs(coords.mean() - 500.0) < 3.0 * se

    def test_distance_matrix(self):
        # Without shadowing the gains are the path loss at the AP-UT distances,
        # here 0 and 5 m (a 3-4-5 triangle): 1 and 5**-2 past a 1 m plateau.
        model = PathLossModel(d0=1.0, d1=100.0)
        ap = np.array([[0.0, 0.0], [3.0, 4.0]])
        ut = np.array([[0.0, 0.0]])
        beta = large_scale_gains(ap, ut, model, 0.0, np.random.default_rng(0))
        np.testing.assert_allclose(beta, [[1.0], [0.04]], rtol=1e-12)

    def test_rejects_empty_network(self):
        with pytest.raises(ValueError):
            draw_geometry(0, 4, 100.0, np.random.default_rng(0))

    @pytest.mark.parametrize("l_serv", [math.inf, -100.0, 0.0, math.nan])
    def test_rejects_side_not_positive_and_finite(self, l_serv):
        # An infinite side ended in numpy's OverflowError, a negative one drew silently.
        with pytest.raises(ValueError, match="l_serv must be positive and finite"):
            draw_geometry(2, 2, l_serv, np.random.default_rng(0))


class TestLargeScaleGains:
    def test_no_shadowing_reduces_to_path_loss(self, model):
        rng = np.random.default_rng(2)
        ap, ut = draw_geometry(15, 6, 1000.0, rng)
        beta = large_scale_gains(ap, ut, model, 0.0, rng)
        np.testing.assert_allclose(beta, path_loss(np.linalg.norm(ap[:, None] - ut, axis=2), model))

    def test_colocated_pair_has_unit_gain(self, model):
        at = np.array([[5.0, 5.0]])
        beta = large_scale_gains(at, at, model, 0.0, np.random.default_rng(0))
        assert beta[0, 0] == 1.0

    def test_lognormal_shadowing_mean(self, model):
        # Sample mean of the linear shadowing factor matches the log-normal
        # moment exp((sigma_sh*ln10/10)**2 / 2).
        sigma_sh = 8.0
        rng = np.random.default_rng(3)
        at = np.full((1000, 2), 5.0)
        beta = large_scale_gains(at, at, model, sigma_sh, rng)  # PL = 1 everywhere
        expected = math.exp((sigma_sh * math.log(10.0) / 10.0) ** 2 / 2.0)
        assert beta.mean() == pytest.approx(expected, rel=0.02)

    def test_bounded_by_shadowing_factor(self, model):
        rng = np.random.default_rng(4)
        ap, ut = draw_geometry(40, 10, 1000.0, rng)
        shadow_rng = np.random.default_rng(99)
        beta = large_scale_gains(ap, ut, model, 8.0, shadow_rng)
        shadow = 10.0 ** (np.random.default_rng(99).normal(0.0, 8.0, size=(40, 10)) / 10.0)
        assert np.all(beta <= shadow + 1e-15)

    def test_reproducible(self, model):
        ap, ut = draw_geometry(10, 5, 1000.0, np.random.default_rng(5))
        a = large_scale_gains(ap, ut, model, 8.0, np.random.default_rng(6))
        b = large_scale_gains(ap, ut, model, 8.0, np.random.default_rng(6))
        np.testing.assert_array_equal(a, b)

    def test_rejects_negative_sigma(self, model):
        ap, ut = draw_geometry(2, 2, 100.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            large_scale_gains(ap, ut, model, -1.0, np.random.default_rng(0))

    def test_rejects_nan_sigma(self, model):
        # A NaN spread must not fall through to the no-shadowing branch,
        # which returns the path loss alone.
        ap, ut = draw_geometry(2, 2, 100.0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="sigma_sh_db must be nonnegative"):
            large_scale_gains(ap, ut, model, math.nan, np.random.default_rng(0))

    def test_rejects_infinite_sigma(self, model):
        # An infinite spread gave gains of inf and 0.
        ap, ut = draw_geometry(2, 2, 100.0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="sigma_sh_db must be nonnegative and finite"):
            large_scale_gains(ap, ut, model, math.inf, np.random.default_rng(0))

    @pytest.mark.parametrize("side", ["ap", "ut"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    def test_rejects_non_finite_coordinate(self, model, side, bad):
        # An infinite coordinate gave a gain of exactly 0; a NaN one failed only in
        # path_loss, as a negative distance.
        positions = dict(zip(["ap", "ut"], draw_geometry(2, 2, 100.0, np.random.default_rng(0))))
        positions[side][1, 0] = bad
        with pytest.raises(ValueError, match="AP and UT coordinates must be finite"):
            large_scale_gains(*positions.values(), model, 0.0, np.random.default_rng(0))


class TestSmallScaleFading:
    def test_unit_power(self):
        h = draw_small_scale(1000, 1000, np.random.default_rng(7))
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=0.01)

    def test_zero_mean(self):
        h = draw_small_scale(1000, 1000, np.random.default_rng(8)).ravel()
        se = 1.0 / math.sqrt(2.0 * h.size)
        assert abs(h.real.mean()) < 3.0 * se
        assert abs(h.imag.mean()) < 3.0 * se

    def test_circular_symmetry(self):
        h = draw_small_scale(1000, 1000, np.random.default_rng(9)).ravel()
        cov = np.mean(h.real * h.imag)
        se = np.std(h.real * h.imag) / math.sqrt(h.size)
        assert abs(cov) < 3.0 * se

    def test_reproducible(self):
        a = draw_small_scale(20, 20, np.random.default_rng(10))
        b = draw_small_scale(20, 20, np.random.default_rng(10))
        np.testing.assert_array_equal(a, b)


class TestComplexNormal:
    def test_same_bits_as_two_normal_draws(self):
        # Real parts first, then imaginary parts; a per-row scale multiplies
        # both, as the complex product with a real array does.
        scale = np.array([[0.5], [2.0], [1e-3]])
        z = complex_normal(np.random.default_rng(3), (3, 7), scale)
        rng = np.random.default_rng(3)
        expected = scale * (rng.normal(size=(3, 7)) + 1j * rng.normal(size=(3, 7)))
        np.testing.assert_array_equal(z, expected)

    def test_add_to_same_bits_as_sum(self):
        # Over more draws than the 16,384-value buffer holds.
        scale = np.array([[0.5], [2.0], [1e-3]])
        base = np.random.default_rng(8).normal(size=(3, 7000)) * (1.0 - 2.0j)
        expected = base + complex_normal(np.random.default_rng(3), (3, 7000), scale)
        x = base.copy()
        assert complex_normal(np.random.default_rng(3), (3, 7000), scale, add_to=x) is x
        np.testing.assert_array_equal(x, expected)

    @pytest.mark.parametrize(
        "shape, add_to",
        [
            ((3, 7), np.zeros((7, 3), dtype=complex).T),
            ((3, 7), np.zeros((3, 7))),
            ((3, 7), np.zeros((3, 6), dtype=complex)),
            # A numpy scalar has the shape, dtype and flags of a 0-d array but cannot be written.
            ((), np.complex128(1 + 2j)),
            ((2,), [1j, 2j]),
        ],
        ids=["strided", "real", "shape", "scalar", "list"],
    )
    def test_add_to_rejects_unfit_arrays(self, shape, add_to):
        with pytest.raises(ValueError, match="add_to"):
            complex_normal(np.random.default_rng(3), shape, 1.0, add_to=add_to)

    @pytest.mark.parametrize(
        "shape, scale",
        [((3, 40_000), [[0.5], [2.0], [1e-3]]), ((2, 3, 20_000), [[[0.5]], [[2.0]]]), ((), 0.5)],
        ids=["long-rows", "3d", "0d"],
    )
    def test_rows_longer_than_the_buffer(self, shape, scale):
        # Blocks that split a row, and a single value, draw the same stream.
        scale = np.array(scale)
        rng = np.random.default_rng(6)
        expected = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        z = complex_normal(np.random.default_rng(6), shape, scale)
        np.testing.assert_array_equal(z, expected)

    def test_per_row_scale_is_not_copied(self):
        # A (10, 1) scale over (10, 10000) draws: the output and the 128 KB run
        # buffer, plus small objects; a broadcast copy of the scale would add 800 KB.
        scale = np.linspace(0.5, 2.0, 10)[:, None]
        tracemalloc.start()
        try:
            z = complex_normal(np.random.default_rng(3), (10, 10_000), scale)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= z.nbytes + 16_384 * 8 + 16_384

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0,)])
    def test_empty_shapes_draw_nothing(self, shape):
        rng = np.random.default_rng(9)
        z = complex_normal(rng, shape, 1.0)
        x = np.zeros(shape, dtype=complex)
        assert complex_normal(rng, shape, 1.0, add_to=x) is x
        assert z.shape == shape and z.dtype == complex
        assert rng.standard_normal() == np.random.default_rng(9).standard_normal()

    def test_small_scale_draw_is_division_by_sqrt2(self):
        rng = np.random.default_rng(4)
        expected = (rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))) / math.sqrt(2.0)
        np.testing.assert_array_equal(draw_small_scale(6, 5, np.random.default_rng(4)), expected)


class TestComplexNormalRuns:
    @pytest.mark.parametrize("rows", [3, 7, 20])
    def test_runs_concatenate_to_one_draw(self, rows):
        # Ragged runs over 7 leading rows of the first values of a longer buffer;
        # each run, and its rows of the real buffer, are overwritten as soon as it
        # is yielded.
        shape = (7, 4, 5)
        expected = complex_normal(np.random.default_rng(5), shape, 0.5)
        real_rows = np.empty((10, 4, 5))[: shape[0]]
        got, start = [], 0
        for run in _runs(np.random.default_rng(5), real_rows, 0.5, rows):
            assert run.shape == (min(rows, shape[0] - start), *shape[1:])
            got.append(run.copy())
            run[...] = np.nan
            real_rows[start : start + len(run)] = np.nan
            start += len(run)
        assert start == shape[0]
        np.testing.assert_array_equal(np.concatenate(got), expected)

    def test_runs_longer_than_the_buffer(self):
        # Each leading row holds 20,000 values, more than complex_normal's
        # 16,384-value buffer.
        shape = (5, 40, 500)
        expected = complex_normal(np.random.default_rng(7), shape, 1.5)
        runs = _runs(np.random.default_rng(7), np.empty(shape), 1.5, 2)
        np.testing.assert_array_equal(np.concatenate([run.copy() for run in runs]), expected)

    def test_real_parts_fill_the_buffer(self):
        # The rows ahead of a yielded run hold their real parts; the run's own rows
        # were drawn over once its real parts were copied out.
        real = np.empty((10, 2))
        runs = _runs(np.random.default_rng(2), real[:3], 0.5, 2)
        next(runs)
        ahead = real[2].copy()
        np.testing.assert_array_equal(ahead, next(runs)[0].real)


class TestReceivedVariance:
    def test_single_gain(self):
        assert received_variance(np.array([1.0]), 1.0, 0.1) == pytest.approx(1.1)

    def test_noise_only(self):
        assert received_variance(np.zeros(5), 1.0, 0.3) == pytest.approx(0.3)

    def test_linearity(self):
        beta = np.array([0.5, 0.2, 0.1])
        base = received_variance(beta, 1.0, 0.0)
        assert received_variance(beta, 3.0, 0.0) == pytest.approx(3.0 * base)
        assert received_variance(beta, 1.0, 0.7) == pytest.approx(base + 0.7)

    def test_per_ap_rows(self):
        beta = np.array([[1.0, 2.0], [0.5, 0.5]])
        np.testing.assert_allclose(received_variance(beta, 2.0, 0.1), [6.1, 2.1])

    def test_against_symbol_level_simulation(self):
        # Direct simulation of the received mixture at one AP.
        rng = np.random.default_rng(11)
        beta = np.array([0.8, 0.3, 0.05, 0.01])
        sigma_s2, sigma_n2 = 1.0, 0.2
        n_draws = 100_000
        h = (rng.normal(size=(n_draws, 4)) + 1j * rng.normal(size=(n_draws, 4))) / math.sqrt(2.0)
        s = math.sqrt(sigma_s2 / 2.0) * (
            rng.normal(size=(n_draws, 4)) + 1j * rng.normal(size=(n_draws, 4))
        )
        n = math.sqrt(sigma_n2 / 2.0) * (
            rng.normal(size=n_draws) + 1j * rng.normal(size=n_draws)
        )
        x = (h * np.sqrt(beta) * s).sum(axis=1) + n
        assert np.mean(np.abs(x) ** 2) == pytest.approx(
            received_variance(beta, sigma_s2, sigma_n2), rel=0.02
        )

    def test_rejects_negative_gain(self):
        with pytest.raises(ValueError):
            received_variance(np.array([-0.1]), 1.0, 0.1)

    def test_rejects_nan_gain(self):
        with pytest.raises(ValueError, match="gains must be nonnegative"):
            received_variance(np.array([[0.2, np.nan], [0.1, 0.3]]), 1.0, 0.1)

    def test_rejects_infinite_gain(self):
        with pytest.raises(ValueError, match="gains must be nonnegative and finite"):
            received_variance(np.array([math.inf, 1.0]), 1.0, 0.1)
