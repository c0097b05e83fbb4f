import _thread
import collections
import hashlib
import json
import math
import re
import signal
import sys
import threading
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest

from cfquant import detection, quantizer, simulation
from cfquant.channel import draw_small_scale, received_variance
from cfquant.cli import _VALIDATE_DEFAULTS
from cfquant.detection import error_variances, per_user_sinr
from cfquant.quantizer import (
    FlatObjectiveWarning,
    _excess,
    bussgang_row,
    distortion_power,
    optimal_step,
)
from cfquant.simulation import (
    _CORRELATE_ROWS,
    _CSV_ROWS,
    _FADING,
    _MC_CHUNK,
    NMSE_DEFAULT_BITS,
    SINR_DEFAULT_BITS,
    CdfSeries,
    CheckResult,
    SimulationConfig,
    _draw_gains,
    _Moments,
    _detection_checks,
    _estimation_check,
    _one_blas_thread,
    bussgang_table,
    make_cdf,
    parse_config_file,
    run_nmse_campaign,
    run_sinr_campaign,
    substream,
    validate_closed_forms,
    write_cdf_csv,
)

SMALL = SimulationConfig(m_aps=15, k_users=6, n_geometries=4, n_smallscale=2, seed=11)


def _traced_peak(run):
    """Peak numpy and Python memory, in bytes, that tracemalloc sees during ``run()``."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _check_peak(check, bits):
    """``_traced_peak`` of one Monte Carlo check at the validate defaults."""
    cfg = SimulationConfig(**_VALIDATE_DEFAULTS)
    row = bussgang_table((bits,))[bits]
    return _traced_peak(
        partial(check, cfg, bits, row["alpha"], row["gap"], 100_000, threading.Event())
    )


def per_draw_sinr_trial(cfg, table, legacy_eq21, trial):
    """Reference for one SINR geometry trial: one receiver-kernel call per
    fading draw and bit depth, each bit depth on its own."""
    beta = _draw_gains(cfg, trial)
    sigma_n2 = cfg.sigma_n2
    out = {bits: [] for bits in table}
    for fade in range(cfg.n_smallscale):
        h = draw_small_scale(cfg.m_aps, cfg.k_users, substream(cfg.seed, _FADING, trial, fade))
        G = h * np.sqrt(beta)
        for bits, row in table.items():
            alpha = row["alpha"]
            c_delta = distortion_power(row["gap"], received_variance(beta, cfg.sigma_s2, sigma_n2))
            var = error_variances(G, alpha, cfg.sigma_s2, sigma_n2, c_delta, legacy_eq21)
            out[bits].append(10.0 * np.log10(per_user_sinr(var, cfg.sigma_s2)))
    return {bits: np.concatenate(chunks) for bits, chunks in out.items()}


class TestConfig:
    def test_defaults_match_reference_scenario(self):
        cfg = SimulationConfig()
        assert (cfg.m_aps, cfg.k_users) == (200, 40)
        assert cfg.l_serv_m == 1000.0
        assert cfg.snr_edge_db == 20.0
        assert cfg.sigma_sh_db == 8.0
        assert cfg.tau == 40
        assert cfg.resolved_bits(NMSE_DEFAULT_BITS) == (4, 6, 8, 10, 12, 14, 0)
        assert cfg.resolved_bits(SINR_DEFAULT_BITS) == (6, 8, 10, 12, 14, 0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m_aps": 0},
            {"k_users": 0},
            {"l_serv_m": -5.0},
            {"sigma_sh_db": -1.0},
            {"tau": 3, "k_users": 4},
            {"bits_list": ()},
            {"bits_list": (4, -1)},
            {"n_geometries": 0},
            {"sigma_s2": 0.0},
            {"seed": -1},
            {"d0_m": 200.0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimulationConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"l_serv_m": math.inf},
            {"l_serv_m": math.nan},
            {"snr_edge_db": math.inf},
            {"sigma_sh_db": math.inf},
            {"sigma_s2": math.nan},
            {"d1_m": math.inf},
            {"gamma1": math.nan},
            {"bits_list": (15,)},
            {"bits_list": (8, 20)},
            {"bits_list": (10**9,)},
            {"snr_edge_db": 4000.0},
            {"snr_edge_db": -4000.0},
        ],
    )
    def test_unsupported_configs_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite|not supported"):
            SimulationConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"tau": 3.5}, {"m_aps": 7.5}, {"n_geometries": 1.5}, {"seed": 2.5}],
    )
    def test_non_integer_int_fields_rejected(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SimulationConfig(**kwargs)

    def test_repeated_bit_depths_rejected(self):
        for bits_list in [(6, 6, 0), np.array([6, 6, 0])]:
            with pytest.raises(ValueError, match=r"repeats a bit depth: \[6, 6, 0\]"):
                SimulationConfig(bits_list=bits_list)

    def test_numpy_integers_accepted(self):
        cfg = SimulationConfig(m_aps=np.int64(7), tau=np.int32(40), seed=np.uint64(3))
        assert (cfg.m_aps, cfg.tau, cfg.seed) == (7, 40, 3)
        assert {type(cfg.m_aps), type(cfg.tau), type(cfg.seed)} == {int}

    def test_numpy_integer_bit_depths_write_a_manifest(self, tmp_path):
        # Numpy bit depths in the config (integers or an array) end up as
        # plain ints in the manifest.
        small = {"k_users": 3, "n_geometries": 1}
        cases = [
            SimulationConfig(m_aps=np.int64(6), bits_list=(np.int64(6), 0), **small),
            SimulationConfig(m_aps=6, bits_list=np.array([6, 0]), **small),
        ]
        for case, cfg in enumerate(cases):
            assert cfg == SimulationConfig(m_aps=6, bits_list=(6, 0), **small)
            assert [type(b) for b in cfg.resolved_bits(NMSE_DEFAULT_BITS)] == [int, int]
            out = tmp_path / str(case)
            write_cdf_csv(run_nmse_campaign(cfg), out, campaign="nmse", cfg=cfg)
            data = json.loads((out / "nmse_manifest.json").read_text())
            assert data["bits_list"] == list(cfg.bits_list)
            assert set(data["bussgang_table"]) == {str(b) for b in cfg.bits_list}
            assert data["m_aps"] == 6

    def test_from_mapping_coercion(self):
        cfg = SimulationConfig.from_mapping(
            {"m_aps": "12", "snr_edge_db": "15.5", "bits_list": "4, 8,12", "seed": "9"}
        )
        assert cfg.m_aps == 12
        assert cfg.snr_edge_db == 15.5
        assert cfg.bits_list == (4, 8, 12)
        assert cfg.seed == 9

    @pytest.mark.parametrize(
        "mapping, message",
        [
            ({"nonsense": "1"}, "unknown config key: nonsense"),
            ({"m_aps": "abc"}, "m_aps: expected an integer, got 'abc'"),
            ({"tau": "3.5"}, "tau: expected an integer, got '3.5'"),
            ({"bits_list": "4,x"}, "bits_list: expected integers, got '4,x'"),
            ({"snr_edge_db": "2O"}, "snr_edge_db: expected a number, got '2O'"),
        ],
        ids=["unknown-key", "m_aps", "tau", "bits_list", "snr_edge_db"],
    )
    def test_from_mapping_rejects_unknown_key(self, mapping, message):
        # A value that does not parse names its key, the expected type and the raw text.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SimulationConfig.from_mapping(mapping)

    @pytest.mark.parametrize(
        "mapping, message",
        [
            ({"m_aps": 6.9}, "m_aps must be an integer, got 6.9"),
            ({"bits_list": (4.5, 0)}, "bits entries must be nonnegative integers (0 = unquantized)"),
        ],
        ids=["m_aps", "bits_list"],
    )
    def test_from_mapping_passes_non_text_to_the_constructor(self, mapping, message):
        # Only text is parsed: a non-integer number is rejected, not truncated.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SimulationConfig.from_mapping(mapping)

    def test_float_fields_stored_as_float(self):
        cfg = SimulationConfig.from_mapping({"l_serv_m": 500, "snr_edge_db": np.float32(15.5)})
        assert (cfg.l_serv_m, cfg.snr_edge_db) == (500.0, 15.5)
        assert {type(cfg.l_serv_m), type(cfg.snr_edge_db)} == {float}
        assert repr(SimulationConfig(l_serv_m=500).l_serv_m) == "500.0"

    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("m_aps = 30\nk_users=5  # small\n\n# comment only\nseed=3\n")
        settings = parse_config_file(path)
        assert settings == {"m_aps": "30", "k_users": "5", "seed": "3"}
        cfg = SimulationConfig.from_mapping(settings)
        assert (cfg.m_aps, cfg.k_users, cfg.seed) == (30, 5, 3)

    def test_config_file_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just words\n")
        with pytest.raises(ValueError):
            parse_config_file(path)


class TestSubstreams:
    def test_same_keys_same_stream(self):
        a = substream(7, 2, 5).normal(size=4)
        b = substream(7, 2, 5).normal(size=4)
        np.testing.assert_array_equal(a, b)

    def test_different_keys_different_streams(self):
        a = substream(7, 2, 5).normal(size=4)
        b = substream(7, 2, 6).normal(size=4)
        c = substream(7, 3, 5).normal(size=4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


def csv_columns(path):
    """(values, cumulative probabilities) of a CDF file written by ``write_cdf_csv``."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T


class TestCdf:
    def test_sorting_and_probabilities(self, tmp_path):
        (series,) = make_cdf([[0.2, 0.1, 0.3]], ["4"])
        np.testing.assert_allclose(series.values, [0.1, 0.2, 0.3])
        _, probs = csv_columns(write_cdf_csv([series], tmp_path, campaign="nmse", cfg=SMALL)[0])
        np.testing.assert_allclose(probs, [1 / 3, 2 / 3, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_cdf([[]], ["x"])

    def test_monotone_invariants(self, tmp_path):
        rng = np.random.default_rng(0)
        (series,) = make_cdf(rng.normal(size=(1, 1000)), ["4"])
        assert np.all(np.diff(series.values) >= 0.0)
        _, probs = csv_columns(write_cdf_csv([series], tmp_path, campaign="sinr", cfg=SMALL)[0])
        assert np.all(np.diff(probs) > 0.0)
        assert probs[0] == pytest.approx(1e-3)
        assert probs[-1] == 1.0

    def test_stack_sorted_in_place(self):
        samples = np.random.default_rng(2).normal(size=(3, 50))
        unsorted = samples.copy()
        series = make_cdf(samples, [4, 8, 0])
        assert [entry.label for entry in series] == ["4", "8", "0"]
        for entry, row, original in zip(series, samples, unsorted):
            assert np.shares_memory(entry.values, row)
            np.testing.assert_array_equal(entry.values, np.sort(original))

    @pytest.mark.parametrize("samples, labels", [(np.zeros((2, 3)), ["a"]), ([0.1, 0.2], ["a"])])
    def test_rejects_unlabelled_rows_and_one_dimensional_samples(self, samples, labels):
        with pytest.raises(ValueError):
            make_cdf(samples, labels)


class TestWriteCsv:
    def test_file_contents(self, tmp_path):
        series = make_cdf([[0.2, 0.1, 0.3]], ["4"])
        paths = write_cdf_csv(series, tmp_path, campaign="nmse", cfg=SMALL)
        assert [p.name for p in paths] == ["nmse_b4.csv", "nmse_manifest.json"]
        lines = paths[0].read_text().splitlines()
        assert lines[0] == "value,cum_prob"
        assert lines[1].startswith("0.1,")
        assert len(lines) == 4

    def test_series_of_different_lengths(self, tmp_path):
        # Each series gets the probability column i/N of its own length N.
        values = np.array([-3.25e-7, 0.1, 2.0 / 3.0, 12345.678901234, 1e300, 5.0, 7.0])
        series = [
            CdfSeries("4", values[:3]),
            CdfSeries("6", values * 1.5),
            CdfSeries("8", values[:3] + 1.0),
        ]
        paths = write_cdf_csv(series, tmp_path, campaign="sinr", cfg=SMALL)
        for entry, path in zip(series, paths[:-1], strict=True):
            n = entry.values.size
            rows = "".join(f"{v:.9g},{i / n:.9g}\n" for i, v in enumerate(entry.values, start=1))
            assert path.read_bytes() == ("value,cum_prob\n" + rows).encode()

    @pytest.mark.parametrize(
        "n", [1, _CSV_ROWS - 1, _CSV_ROWS, _CSV_ROWS + 1, 2 * _CSV_ROWS + 1], ids=str
    )
    def test_bytes_across_chunk_boundaries(self, tmp_path, n):
        # Two series of one length N in one call: floats at the extremes of the
        # double range, signed zero and integer values, and an integer array; and a
        # third series of another length, one and a half chunks, in the same call.
        pattern = [-1.7e308, -0.0, 5e-324, 0.1, 2.0 / 3.0, 3.0, 2.0**53 + 2.0, -12345.0]
        series = [
            CdfSeries("4", np.resize(pattern, n)),
            CdfSeries("8", np.arange(n, dtype=np.int64) * 7_919 - 2**60),
            CdfSeries("10", np.resize(pattern[::-1], 3 * _CSV_ROWS // 2)),
        ]
        paths = write_cdf_csv(series, tmp_path, campaign="sinr", cfg=SMALL)
        for entry, path in zip(series, paths[:-1], strict=True):
            size = entry.values.size
            rows = "".join(
                f"{v:.9g},{i / size:.9g}\n" for i, v in enumerate(entry.values.tolist(), start=1)
            )
            assert path.read_bytes() == ("value,cum_prob\n" + rows).encode()

    def test_writer_memory_bounded(self, tmp_path):
        # One nmse-cdf file at the reference scenario: 50 geometries of 200 x 40 pairs.
        # Whole-series Python strings and floats would take about 40 MB.
        (series,) = make_cdf(np.random.default_rng(4).lognormal(size=(1, 400_000)), ["4"])
        assert _traced_peak(partial(write_cdf_csv, [series], tmp_path, "nmse", SMALL)) < 2e6
        # The six files of a sinr-cdf campaign at the reference scenario, 50 geometries
        # of 10 draws of 40 users each, written side by side: about 3.6 MB of text.
        series = make_cdf(np.random.default_rng(5).lognormal(size=(6, 20_000)), SINR_DEFAULT_BITS)
        assert _traced_peak(partial(write_cdf_csv, series, tmp_path, "sinr", SMALL)) < 2e6

    @pytest.mark.parametrize(
        "bad", [np.ones((2, 2)), np.array([0.1, 0.2j])], ids=["two-dimensional", "complex"]
    )
    def test_malformed_series_rejected_before_any_file(self, tmp_path, bad):
        series = [CdfSeries("4", np.array([0.1, 0.2])), CdfSeries("8", bad)]
        with pytest.raises(ValueError, match="series '8' is not a 1-D real array"):
            write_cdf_csv(series, tmp_path, campaign="sinr", cfg=SMALL)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_value_rejected_before_any_file(self, tmp_path, bad):
        series = make_cdf([[0.1, 0.2], [0.3, bad], [0.5, 0.6]], [4, 6, 8])
        with pytest.raises(ValueError, match="series '6' has a non-finite value"):
            write_cdf_csv(series, tmp_path, campaign="sinr", cfg=SMALL)
        assert list(tmp_path.iterdir()) == []

    def test_empty_series_rejected_before_any_file(self, tmp_path):
        series = [*make_cdf([[0.1, 0.2], [0.3, 0.4]], [4, 6]), CdfSeries("8", np.empty(0))]
        with pytest.raises(ValueError, match="series '8' is empty"):
            write_cdf_csv(series, tmp_path, campaign="nmse", cfg=SMALL)
        assert list(tmp_path.iterdir()) == []

    def test_repeated_label_rejected_before_any_file(self, tmp_path):
        # Both series would go to one file, sinr_b4.csv.
        series = [*make_cdf([[0.1, 0.2], [0.3, 0.4]], [4, 6]), CdfSeries("4", np.array([0.5]))]
        with pytest.raises(ValueError, match="series '4' repeats a label"):
            write_cdf_csv(series, tmp_path, campaign="sinr", cfg=SMALL)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "label, message",
        [
            ("x", "series 'x' is not labelled with a bit depth"),
            ("4.0", "series '4.0' is not labelled with a bit depth"),
            ("-2", "series '-2' is not labelled with a bit depth"),
            ("15", "levels=32768 exceeds 16384"),
        ],
        ids=["word", "float", "negative", "beyond-solver"],
    )
    def test_label_without_bussgang_row_rejected_before_any_file(self, tmp_path, label, message):
        # The manifest, Bussgang table included, is built before the directory is made.
        series = [*make_cdf([[0.1, 0.2]], [4]), CdfSeries(label, np.array([0.3, 0.4]))]
        with pytest.raises(ValueError, match=re.escape(message)):
            write_cdf_csv(series, tmp_path / "out", campaign="nmse", cfg=SMALL)
        assert not (tmp_path / "out").exists()

    def test_manifest_written(self, tmp_path):
        # The bit depths are the series' labels, not the config's default list.
        series = make_cdf([[1.0], [2.0]], ["8", "0"])
        paths = write_cdf_csv(series, tmp_path, campaign="nmse", cfg=SMALL, legacy_eq21=False)
        data = json.loads((tmp_path / "nmse_manifest.json").read_text())
        assert data["campaign"] == "nmse"
        assert data["seed"] == SMALL.seed
        assert data["m_aps"] == SMALL.m_aps
        assert data["bits_list"] == [8, 0]
        assert data["bussgang_table"] == json.loads(json.dumps(bussgang_table([8, 0])))
        assert data["legacy_eq21"] is False
        assert [p.name for p in paths] == ["nmse_b8.csv", "nmse_b0.csv", "nmse_manifest.json"]

    def test_rerun_identical(self, tmp_path):
        series = make_cdf(np.random.default_rng(1).normal(size=(1, 100)), ["8"])
        first = write_cdf_csv(series, tmp_path / "a", campaign="sinr", cfg=SMALL)[0].read_bytes()
        second = write_cdf_csv(series, tmp_path / "b", campaign="sinr", cfg=SMALL)[0].read_bytes()
        assert first == second

    def test_empty_series_list_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_cdf_csv([], tmp_path, campaign="nmse", cfg=SMALL)

    def test_unwritable_path_reports_filename(self, tmp_path):
        (tmp_path / "nmse_b4.csv").mkdir()  # occupies the target filename
        series = make_cdf([[1.0]], ["4"])
        with pytest.raises(OSError, match="nmse_b4.csv"):
            write_cdf_csv(series, tmp_path, campaign="nmse", cfg=SMALL)

    def test_uncreatable_directory_reported(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        series = make_cdf([[1.0]], ["4"])
        with pytest.raises(OSError, match="blocker"):
            write_cdf_csv(series, blocker / "sub", campaign="nmse", cfg=SMALL)


class TestBussgangRow:
    @pytest.mark.parametrize("levels", [4, 6, 100, 10_000, 16_384])
    def test_bit_identical_to_primitives(self, levels):
        # The step to the bit, and Python floats, as the manifests record them.
        # One ``_excess`` at the step gives alpha and gamma from the same
        # cancellation-free terms as the row, so they are its alpha and gamma to the bit.
        step = optimal_step(levels)
        row = bussgang_row(levels)
        assert list(row) == ["step", "alpha", "gamma", "gap"]
        assert all(type(value) is float for value in row.values())
        assert repr(row["step"]) == repr(step)
        assert (row["alpha"], row["gamma"]) == _excess(levels, step)[:2]
        assert 0.0 < row["gap"] < row["gamma"]

    def test_steps_independent_of_blas_threads(self):
        # Solved afresh at numpy's default BLAS thread count and at one thread.
        levels = [2**bits for bits in range(2, 15)]
        quantizer._solved_row.cache_clear()
        default = [repr(optimal_step(n)) for n in levels]
        quantizer._solved_row.cache_clear()
        with _one_blas_thread():
            one_thread = [repr(optimal_step(n)) for n in levels]
        assert one_thread == default

    def test_two_levels_warn_flat_objective(self):
        with pytest.warns(FlatObjectiveWarning):
            row = bussgang_row(2)
        assert row["step"] == 2.0 * math.sqrt(2.0 / math.pi)

    def test_second_table_computes_no_coefficient(self, monkeypatch):
        bits_list = (1, 4, 8, 0)
        with pytest.warns(FlatObjectiveWarning):
            first = bussgang_table(bits_list)
        computed = []
        monkeypatch.setattr(quantizer, "_excess", lambda *args: computed.append(args))
        with pytest.warns(FlatObjectiveWarning):  # at 2 levels on every call
            second = bussgang_table(bits_list)
        assert computed == []
        assert second == first
        assert all(second[bits] is not first[bits] for bits in bits_list)

    def test_table_maps_bit_depths_onto_rows(self):
        assert bussgang_table((8, 0, 4)) == {
            8: bussgang_row(256),
            0: {"step": None, "alpha": 1.0, "gamma": 1.0, "gap": 0.0},
            4: bussgang_row(16),
        }


class TestNmseCampaign:
    def test_series_shapes_and_labels(self):
        series = run_nmse_campaign(SMALL)
        assert [s.label for s in series] == [str(b) for b in NMSE_DEFAULT_BITS]
        expected = SMALL.m_aps * SMALL.k_users * SMALL.n_geometries
        assert all(s.values.size == expected for s in series)
        assert all(np.all((s.values > 0) & (s.values < 1)) for s in series)

    def test_quantized_series_dominated_by_unquantized(self):
        series = {s.label: s for s in run_nmse_campaign(SMALL)}
        unq = series["0"].values
        for bits in (4, 6, 8, 10, 12, 14):
            assert np.all(unq <= series[str(bits)].values)

    def test_medians_decrease_with_bits(self):
        series = {s.label: s for s in run_nmse_campaign(SMALL)}
        medians = [float(np.median(series[str(b)].values)) for b in (4, 6, 8, 10, 12, 14)]
        assert all(a > b for a, b in zip(medians, medians[1:]))

    def test_deterministic_and_worker_independent(self, tmp_path):
        first = run_nmse_campaign(SMALL, n_workers=1)
        second = run_nmse_campaign(SMALL, n_workers=2)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.values, b.values)
        bytes_a = write_cdf_csv(first, tmp_path / "a", campaign="nmse", cfg=SMALL)[0].read_bytes()
        bytes_b = write_cdf_csv(second, tmp_path / "b", campaign="nmse", cfg=SMALL)[0].read_bytes()
        assert bytes_a == bytes_b

    def test_custom_bits_list(self):
        cfg = SimulationConfig(m_aps=8, k_users=3, n_geometries=2, bits_list=(5, 0), seed=2)
        series = run_nmse_campaign(cfg)
        assert [s.label for s in series] == ["5", "0"]

    def test_pool_memory_bounded(self):
        # One copy of the pooled samples: trials listed and then concatenated held two.
        cfg = SimulationConfig(m_aps=50, k_users=10, n_geometries=40, seed=3)
        pool_bytes = 8 * len(NMSE_DEFAULT_BITS) * cfg.n_geometries * cfg.m_aps * cfg.k_users
        run_nmse_campaign(SMALL)  # the cached steps and numpy.random's import, untraced
        assert _traced_peak(partial(run_nmse_campaign, cfg, n_workers=1)) < 1.3 * pool_bytes

    def test_pool_filled_by_many_threads(self):
        # Four workers on fewer cores, switching every microsecond, each copying its
        # trials into its own columns of the one pool: the serial run's values.
        cfg = SimulationConfig(m_aps=6, k_users=3, n_geometries=64, seed=8)
        serial = run_nmse_campaign(cfg, n_workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_nmse_campaign(cfg, n_workers=4)
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, threaded, strict=True):
            np.testing.assert_array_equal(a.values, b.values)


class TestPoolFits:
    """A campaign whose pool is larger than the physical memory is refused before
    its first trial; the memory size is patched, and nothing that large is allocated."""

    @pytest.fixture
    def trials(self, monkeypatch):
        ran = []
        for name in ("_nmse_trial", "_sinr_trial"):
            trial = getattr(simulation, name)
            monkeypatch.setattr(
                simulation, name, lambda *args, trial=trial: ran.append(args[-1]) or trial(*args)
            )
        return ran

    @staticmethod
    def physical_memory(pages, page_size=4096):
        return {"SC_PHYS_PAGES": pages, "SC_PAGE_SIZE": page_size}.__getitem__

    @pytest.mark.parametrize(
        "campaign,shape",
        [(run_nmse_campaign, "7 x 10800 float64 values, 0.000605 GB"),
         (run_sinr_campaign, "6 x 1440 float64 values, 6.91e-05 GB")],
        ids=["nmse", "sinr"],
    )
    def test_refused_before_any_trial(self, monkeypatch, trials, campaign, shape):
        cfg = SimulationConfig(m_aps=15, k_users=6, n_geometries=120, n_smallscale=2, seed=11)
        monkeypatch.setattr(simulation.os, "sysconf", self.physical_memory(2))
        message = f"the campaign pools {shape}, more than this machine's 8.19e-06 GB of physical"
        with pytest.raises(ValueError, match=re.escape(message)):
            campaign(cfg)
        assert trials == []

    def test_pool_as_large_as_memory_runs(self, monkeypatch, trials):
        # 7 x 360 float64 values: 20,160 bytes, exactly the memory.
        monkeypatch.setattr(simulation.os, "sysconf", self.physical_memory(5, 4032))
        assert len(run_nmse_campaign(SMALL)) == len(NMSE_DEFAULT_BITS)
        assert sorted(trials) == list(range(SMALL.n_geometries))

    def test_runs_where_memory_size_is_unknown(self, monkeypatch, trials):
        def unknown(name):
            raise ValueError("unrecognized configuration name")

        monkeypatch.setattr(simulation.os, "sysconf", unknown)
        assert len(run_sinr_campaign(SMALL)) == len(SINR_DEFAULT_BITS)
        assert sorted(trials) == list(range(SMALL.n_geometries))


class TestSinrCampaign:
    def test_series_shapes_and_ordering(self):
        series = run_sinr_campaign(SMALL)
        assert [s.label for s in series] == [str(b) for b in SINR_DEFAULT_BITS]
        expected = SMALL.k_users * SMALL.n_geometries * SMALL.n_smallscale
        assert all(s.values.size == expected for s in series)
        by_label = {s.label: s.values for s in series}
        for low, high in zip((6, 8, 10, 12), (8, 10, 12, 14)):
            assert np.all(by_label[str(low)] <= by_label[str(high)] + 1e-12)
        assert np.all(by_label["14"] <= by_label["0"] + 1e-12)

    def test_degenerate_single_link_matches_scalar_form(self):
        # One AP, one user: SINR must equal the scalar closed form built
        # from the same gains.
        cfg = SimulationConfig(
            m_aps=1, k_users=1, n_geometries=1, n_smallscale=1, bits_list=(6,), seed=5
        )
        series = run_sinr_campaign(cfg)
        from cfquant.channel import draw_small_scale
        from cfquant.simulation import _draw_gains, _FADING, bussgang_table

        beta = _draw_gains(cfg, 0)
        h = draw_small_scale(1, 1, substream(cfg.seed, _FADING, 0, 0))
        row = bussgang_table((6,))[6]
        alpha = row["alpha"]
        sigma_n2 = cfg.sigma_n2
        c_delta = distortion_power(row["gap"], received_variance(beta, 1.0, sigma_n2))
        var = error_variances(h * np.sqrt(beta), alpha, 1.0, sigma_n2, c_delta)
        expected = 10.0 * np.log10(per_user_sinr(var, 1.0))
        assert series[0].values[0] == pytest.approx(expected[0], abs=1e-9)

    def test_zero_sinr_reported_not_clamped(self, monkeypatch):
        # Error variances at the prior, sigma_s2, mean a SINR of exactly
        # zero, which has no dB value.
        import cfquant.simulation as simulation

        def uninformative(G, alpha, sigma_s2, sigma_n2, c_delta, legacy_eq21=False):
            return np.full(G.shape[1], sigma_s2)

        monkeypatch.setattr(simulation, "error_variances", uninformative)
        with pytest.raises(ValueError, match=r"trial 0, fading draw 0, bits=6"):
            run_sinr_campaign(SMALL)

    def test_zero_sinr_names_first_bit_depth(self, monkeypatch):
        # Zero SINR at bits 10 and 0 of the first draw: the error names the
        # first of them in table order.
        import cfquant.simulation as simulation

        def partly_uninformative(G, alpha, sigma_s2, sigma_n2, c_delta, legacy_eq21=False):
            var = error_variances(G, alpha, sigma_s2, sigma_n2, c_delta, legacy_eq21)
            var[[2, 5]] = sigma_s2
            return var

        monkeypatch.setattr(simulation, "error_variances", partly_uninformative)
        with pytest.raises(ValueError, match=r"trial 0, fading draw 0, bits=10:"):
            run_sinr_campaign(SMALL)

    def test_runs_without_inverse_or_covariance(self, monkeypatch):
        # Where numpy bundles OpenBLAS, the kernel runs LAPACK's Cholesky
        # routines, and the campaign reads only the error variances.
        if detection._openblas() is None:
            pytest.skip("numpy bundles no scipy_openblas64_ library here")

        def forbidden(*args, **kwargs):
            raise AssertionError("called by the SINR campaign")

        for module, name in [(np.linalg, "inv"), (np.linalg, "cholesky"),
                             (simulation, "mmse_receiver")]:
            monkeypatch.setattr(module, name, forbidden)
        series = run_sinr_campaign(SMALL)
        assert [s.label for s in series] == [str(b) for b in SINR_DEFAULT_BITS]

    @pytest.mark.parametrize("legacy_eq21", [False, True])
    def test_matches_per_draw_reference(self, legacy_eq21):
        bits_list = SINR_DEFAULT_BITS
        table = bussgang_table(bits_list)
        per_trial = [
            per_draw_sinr_trial(SMALL, table, legacy_eq21, trial)
            for trial in range(SMALL.n_geometries)
        ]
        series = run_sinr_campaign(SMALL, legacy_eq21=legacy_eq21)
        assert [s.label for s in series] == [str(b) for b in bits_list]
        reference = make_cdf(
            [np.concatenate([t[bits] for t in per_trial]) for bits in bits_list], bits_list
        )
        for entry, expected in zip(series, reference, strict=True):
            np.testing.assert_array_equal(entry.values, expected.values)

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    @pytest.mark.parametrize("legacy_eq21", [False, True], ids=["default", "legacy"])
    def test_worker_independence(self, legacy_eq21, n_workers):
        # Reference: the trials one after another in this thread, at the
        # default BLAS thread count.
        table = bussgang_table(SINR_DEFAULT_BITS)
        serial = np.concatenate(
            [
                simulation._sinr_trial(SMALL, table, legacy_eq21, trial)
                for trial in range(SMALL.n_geometries)
            ],
            axis=1,
        )
        series = run_sinr_campaign(SMALL, n_workers=n_workers, legacy_eq21=legacy_eq21)
        for entry, expected in zip(series, serial, strict=True):
            np.testing.assert_array_equal(entry.values, np.sort(expected))

    def test_error_in_a_trial_cancels_the_queued_ones(self, monkeypatch):
        # One thread: trial 0 fails while the other 19 wait in the queue.
        ran = []
        sinr_trial = simulation._sinr_trial

        def failing_first(cfg, table, legacy_eq21, trial):
            ran.append(trial)
            if trial == 0:
                raise RuntimeError("trial failed")
            time.sleep(0.01)
            return sinr_trial(cfg, table, legacy_eq21, trial)

        monkeypatch.setattr(simulation, "_sinr_trial", failing_first)
        cfg = SimulationConfig(m_aps=5, k_users=2, n_geometries=20, n_smallscale=1, seed=4)
        with pytest.raises(RuntimeError, match="trial failed"):
            run_sinr_campaign(cfg, n_workers=1)
        assert ran[0] == 0
        assert len(ran) < 20

    @pytest.mark.parametrize("n_workers", [0, -3])
    def test_rejects_fewer_than_one_worker(self, n_workers):
        with pytest.raises(ValueError, match=f"n_workers must be at least 1, got {n_workers}$"):
            run_sinr_campaign(SMALL, n_workers=n_workers)

    def test_legacy_receiver_changes_results(self):
        default = run_sinr_campaign(SMALL)
        legacy = run_sinr_campaign(SMALL, legacy_eq21=True)
        assert any(
            not np.array_equal(a.values, b.values) for a, b in zip(default, legacy)
        )
        # The legacy receiver is mismatched to the observation covariance,
        # so it can only do worse on average.
        for a, b in zip(default, legacy):
            if a.label == "0":
                continue
            assert a.values.mean() >= b.values.mean() - 1e-9


# sha256 of each campaign CSV at M = 8, K = 3, 2 geometries, 2 fading draws, bits
# (4, 8, 0) and seed 1, and at two variants of it named after a slash: "bits1", the
# 2-level row at bits (1, 0), and "k1", one user, whose receiver kernel is 1 x 1.
# They pin the campaign outputs byte for byte: the substreams, the closed forms, the
# receiver kernel, the pooling in table order, the sort and the CSV format.  Re-pin
# only for an intended change of the numbers.
PINNED_VARIANTS = {"": {}, "bits1": dict(bits_list=(1, 0)), "k1": dict(k_users=1)}
PINNED_CSV = {
    "nmse": {
        "nmse_b4.csv": "e727cad269367ce3381cfc4a195e42e72391ed1501246f82a049aa84e3e741e6",
        "nmse_b8.csv": "e92ed8a0c12bab9aa820fd375625a55dc8abd1366648eaba5561b788cd4e22eb",
        "nmse_b0.csv": "3bef08ea269626df1369fbc82bd7f40102b2737c7ea8c78a24fafe5804ae09ca",
    },
    "sinr": {
        "sinr_b4.csv": "411b63aea7d6c194e58024c5a4acb8d24c510f7d6155405e52f37e738bc30a7a",
        "sinr_b8.csv": "6b485308b05ae33ec90f8368f89d45599c47b5ded682cb702ebabafe3f0ffb1a",
        "sinr_b0.csv": "139578c31a23cde096d6baa87cd699c12b23326cee1b8f6c08bcdd46f561c282",
    },
    "sinr-legacy": {
        "sinr_b4.csv": "7cae14b2c08acf0dd768fa21d55343bf0ea5d5fb9871300df2980e15460e5a8c",
        "sinr_b8.csv": "06b2d69542afad9d927678a388437360c2710d99e664401467c83e79ceb4806c",
        "sinr_b0.csv": "139578c31a23cde096d6baa87cd699c12b23326cee1b8f6c08bcdd46f561c282",
    },
    "nmse/bits1": {
        "nmse_b1.csv": "4c929ab08d047472870e21b06728baea29209dd200779214a6b737146a931739",
        "nmse_b0.csv": "3bef08ea269626df1369fbc82bd7f40102b2737c7ea8c78a24fafe5804ae09ca",
    },
    "sinr/bits1": {
        "sinr_b1.csv": "954260b9907d3b02acee8f3b6fcc9e171f1e7400835d20c909555605373d6c56",
        "sinr_b0.csv": "139578c31a23cde096d6baa87cd699c12b23326cee1b8f6c08bcdd46f561c282",
    },
    "sinr-legacy/bits1": {
        "sinr_b1.csv": "ebcdc83441694c4200ec6aae631500839748889b225ebda4ecd9bc343804892c",
        "sinr_b0.csv": "139578c31a23cde096d6baa87cd699c12b23326cee1b8f6c08bcdd46f561c282",
    },
    "sinr/k1": {
        "sinr_b4.csv": "45d1bfe6173bde9ad36892562ebf9b19dbc939778008a466f77120d3f30fe717",
        "sinr_b8.csv": "3092817774ff9cb62a602831464621f62ac25572cdba27e26fa551b7a552c626",
        "sinr_b0.csv": "eb69f6b36f177375d061aebbfa3a4314f371cf72adbf6e719d099a1de8888af5",
    },
    "sinr-legacy/k1": {
        "sinr_b4.csv": "c67d5ff269eac7fae9ffaa092f769856e052d29ecc1649f5b2018c23ff2ffdfc",
        "sinr_b8.csv": "3092817774ff9cb62a602831464621f62ac25572cdba27e26fa551b7a552c626",
        "sinr_b0.csv": "eb69f6b36f177375d061aebbfa3a4314f371cf72adbf6e719d099a1de8888af5",
    },
}


@pytest.mark.parametrize("case", PINNED_CSV)
@pytest.mark.filterwarnings("ignore::cfquant.quantizer.FlatObjectiveWarning")
def test_campaign_csv_bytes_pinned(tmp_path, case):
    campaign, _, variant = case.partition("/")
    cfg = SimulationConfig(**{
        **dict(m_aps=8, k_users=3, n_geometries=2, n_smallscale=2, bits_list=(4, 8, 0), seed=1),
        **PINNED_VARIANTS[variant],
    })
    series = {
        "nmse": lambda: run_nmse_campaign(cfg),
        "sinr": lambda: run_sinr_campaign(cfg),
        "sinr-legacy": lambda: run_sinr_campaign(cfg, legacy_eq21=True),
    }[campaign]()
    paths = write_cdf_csv(series, tmp_path, campaign=campaign.split("-")[0], cfg=cfg)
    got = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in paths
        if path.suffix == ".csv"
    }
    assert got == PINNED_CSV[case]


# validate_closed_forms at 2e4 trials: (statistic, threshold) of every Monte Carlo
# check, as exact floats.  They pin the random streams (10,000-trial blocks, real
# parts drawn before imaginary ones), the arithmetic of the sample-level pipeline and
# the rounding of the receiver kernel.
# The two identity checks measure LAPACK rounding, not the streams, and are left out.
PINNED_VALIDATE = [
    (
        dict(m_aps=10, k_users=4, seed=1),
        {
            "estimation_mse_mc_b4": (2.2550437718885346, 3.0),
            "estimation_mse_mc_b8": (3.784365951931689, 3.0),
            "estimation_mse_mc_b12": (2.8208329208853273, 3.0),
            "detection_mse_model_b6": (0.5701153550449145, 3.0),
            "detection_orthogonality_b6": (2.7817369119528146, 4.0),
            "detection_mse_quantized_b6": (0.05997716781065122, 0.10781459083918678),
            "detection_mse_model_b10": (1.743442260825525, 3.0),
            "detection_orthogonality_b10": (1.8549961496904437, 4.0),
            "detection_mse_quantized_b10": (0.046837985515396495, 0.11746063487133544),
            "detection_mse_model_b14": (0.955201884775375, 3.0),
            "detection_orthogonality_b14": (2.510117967435062, 4.0),
            "detection_mse_quantized_b14": (0.006823684345585199, 0.05),
        },
    ),
    (
        dict(m_aps=6, k_users=3, seed=3),
        {
            "estimation_mse_mc_b4": (1.368671704036932, 3.0),
            "estimation_mse_mc_b8": (2.456809275708182, 3.0),
            "estimation_mse_mc_b12": (2.870885408860751, 3.0),
            "detection_mse_model_b6": (2.350146871919983, 3.0),
            "detection_orthogonality_b6": (2.0113514408770894, 4.0),
            "detection_mse_quantized_b6": (0.07550614981295596, 0.1342035074631047),
            "detection_mse_model_b10": (0.38770341457816804, 3.0),
            "detection_orthogonality_b10": (3.21015974171954, 4.0),
            "detection_mse_quantized_b10": (0.009370675405164007, 0.05),
            "detection_mse_model_b14": (1.2815991004472929, 3.0),
            "detection_orthogonality_b14": (1.4433740570292197, 4.0),
            "detection_mse_quantized_b14": (0.00930776525942755, 0.05),
        },
    ),
]


class TestValidation:
    @pytest.mark.parametrize("settings, expected", PINNED_VALIDATE, ids=["seed1", "seed3"])
    def test_monte_carlo_statistics_pinned(self, settings, expected):
        cfg = SimulationConfig(sigma_sh_db=0.0, **settings)
        results = validate_closed_forms(cfg, n_trials=20_000)
        got = {r.name: (r.statistic, r.threshold) for r in results if "identity" not in r.name}
        assert got == expected

    def test_moments_match_broadcast_sums(self):
        # Running sums over two blocks against sums of the whole arrays: a real
        # (K, T) error power, and per-user (M, T) error-observation products, added
        # row by row, against the (K, M, T) cross array they replace.
        rng = np.random.default_rng(41)
        k_users, m_aps = 3, 5
        power = _Moments(k_users, axis=1)
        cross_moments = _Moments((k_users, m_aps), axis=1, dtype=complex)
        total, total_sq = np.zeros(k_users), np.zeros(k_users)
        resid = np.zeros((k_users, m_aps), dtype=complex)
        re_sq, im_sq = np.zeros((k_users, m_aps)), np.zeros((k_users, m_aps))
        for trials in (700, 300):
            e = rng.normal(size=(k_users, trials)) + 1j * rng.normal(size=(k_users, trials))
            y = rng.normal(size=(m_aps, trials)) + 1j * rng.normal(size=(m_aps, trials))
            p = np.abs(e) ** 2
            total += p.sum(axis=1)
            total_sq += (p**2).sum(axis=1)
            power.add(p)
            for user, e_k in enumerate(e):
                cross_moments.add(e_k * y.conj(), user)
            cross = e[:, None, :] * y.conj()[None, :, :]
            resid += cross.sum(axis=2)
            re_sq += (cross.real**2).sum(axis=2)
            im_sq += (cross.imag**2).sum(axis=2)
        np.testing.assert_array_equal(power.total, total)
        np.testing.assert_array_equal(power.total_sq, [total_sq])
        np.testing.assert_array_equal(cross_moments.total, resid)
        np.testing.assert_array_equal(cross_moments.total_sq, [re_sq, im_sq])

    def test_nan_statistic_fails(self):
        assert CheckResult("check", statistic=1.0, threshold=1.0).passed
        assert not CheckResult("check", statistic=1.5, threshold=1.0).passed
        assert not CheckResult("check", statistic=math.nan, threshold=1.0).passed

    def test_report_passes_on_small_config(self):
        cfg = SimulationConfig(
            m_aps=6, k_users=3, n_geometries=1, sigma_sh_db=0.0, seed=3, bits_list=(8,)
        )
        results = validate_closed_forms(cfg, n_trials=20_000)
        names = [r.name for r in results]
        assert "unquantized_estimation_identity" in names
        assert "unquantized_detection_identity" in names
        assert any(n.startswith("estimation_mse_mc") for n in names)
        assert any(n.startswith("detection_mse_model") for n in names)
        assert any(n.startswith("detection_mse_quantized") for n in names)
        assert any(n.startswith("detection_orthogonality") for n in names)
        for r in results:
            assert r.passed, f"{r.name}: statistic={r.statistic} threshold={r.threshold}"

    @pytest.mark.parametrize("n_trials", [0, 1, -5])
    def test_rejects_too_few_trials(self, n_trials):
        cfg = SimulationConfig(m_aps=5, k_users=2, n_geometries=1, seed=4)
        with pytest.raises(ValueError, match=f"n_trials .*got {n_trials}$"):
            validate_closed_forms(cfg, n_trials=n_trials)

    def test_check_names_in_order(self, monkeypatch):
        # The first check submitted finishes last; the report keeps the fixed order.
        estimation_check = simulation._estimation_check

        def slow_at_4_bits(cfg, bits, *args):
            if bits == 4:
                time.sleep(0.2)
            return estimation_check(cfg, bits, *args)

        monkeypatch.setattr(simulation, "_estimation_check", slow_at_4_bits)
        cfg = SimulationConfig(m_aps=5, k_users=2, n_geometries=1, seed=4)
        names = [r.name for r in validate_closed_forms(cfg, n_trials=1000)]
        detection = [
            f"detection_{kind}_b{bits}"
            for bits in (6, 10, 14)
            for kind in ("mse_model", "orthogonality", "mse_quantized")
        ]
        assert names == [
            "unquantized_estimation_identity",
            "unquantized_detection_identity",
            "estimation_mse_mc_b4",
            "estimation_mse_mc_b8",
            "estimation_mse_mc_b12",
            *detection,
        ]

    @pytest.mark.parametrize("fail", [False, True], ids=["passes", "check_raises"])
    def test_blas_threads_held_to_one_and_restored(self, monkeypatch, fail):
        # In validate's checks and in a campaign's trials alike.
        lib = detection._openblas()
        if lib is None:
            pytest.skip("numpy does not use a bundled OpenBLAS here")
        get, put = lib.get_num_threads, lib.set_num_threads
        cfg = SimulationConfig(m_aps=5, k_users=2, n_geometries=2, seed=4)
        for task_name, run in [
            ("_estimation_check", lambda: validate_closed_forms(cfg, n_trials=1000)),
            ("_sinr_trial", lambda: run_sinr_campaign(cfg, n_workers=2)),
        ]:
            task = getattr(simulation, task_name)
            seen = []

            def recording_task(*args):
                seen.append(get())
                if fail:
                    raise RuntimeError("task failed")
                return task(*args)

            monkeypatch.setattr(simulation, task_name, recording_task)
            original = get()
            put(2)
            try:
                before = get()
                if fail:
                    with pytest.raises(RuntimeError, match="task failed"):
                        run()
                else:
                    run()
                after = get()
            finally:
                put(original)
            assert seen and set(seen) == {1}, task_name
            assert after == before, task_name

    def test_first_failure_raises_while_earlier_tasks_run(self):
        # Task 1 fails while task 0 still runs: the error propagates and sets
        # stop at once, not after task 0 has finished.
        stop, started = threading.Event(), threading.Event()
        seen = []

        def waiting():
            started.set()
            seen.append(stop.wait(10))

        def failing():
            started.wait(10)
            raise RuntimeError("task 1 failed")

        with pytest.raises(RuntimeError, match="task 1 failed"):
            simulation._run_tasks([waiting, failing], n_workers=2, stop=stop)
        assert seen == [True]

    def test_error_in_one_check_stops_the_others(self, monkeypatch):
        # The 4-bit check fails once the 8- and 12-bit checks have each drawn a
        # block; they must then end at their next block instead of drawing all 50.
        # Blocks are counted through the pilot phase, which runs once per row run.
        runs = collections.Counter()
        both_drawing = threading.Event()
        pilot_phase = simulation.simulate_pilot_phase
        estimation_check = simulation._estimation_check

        def counting_pilot_phase(G, pilots, sigma_n2, bits, *args):
            runs[bits] += 1
            if runs[8] and runs[12]:
                both_drawing.set()
            return pilot_phase(G, pilots, sigma_n2, bits, *args)

        def failing_at_4_bits(cfg, bits, *args):
            if bits == 4:
                both_drawing.wait(10)
                raise RuntimeError("check failed")
            return estimation_check(cfg, bits, *args)

        monkeypatch.setattr(simulation, "simulate_pilot_phase", counting_pilot_phase)
        monkeypatch.setattr(simulation, "_estimation_check", failing_at_4_bits)
        # A thread per check, so the three estimation checks run at once on any machine.
        monkeypatch.setattr(simulation, "_run_tasks", partial(simulation._run_tasks, n_workers=6))
        cfg = SimulationConfig(**_VALIDATE_DEFAULTS)
        with pytest.raises(RuntimeError, match="check failed"):
            validate_closed_forms(cfg, n_trials=50 * _MC_CHUNK)
        runs_per_block = _MC_CHUNK // _CORRELATE_ROWS
        for bits in (8, 12):
            blocks = -(-runs[bits] // runs_per_block)
            assert 1 <= blocks < 25, (bits, blocks)

    def test_estimation_check_memory_bounded(self):
        # tracemalloc peak of one check at the validate defaults: one block of fading
        # and pilot-noise real parts (3.2e6 bytes each) and one run of 250 trials'
        # channels, pilot observations and one product, 7.0e6 bytes, or 7.7e6 when the
        # first call's imports are traced too.  It was 8.7e6 (9.4e6) with runs of 1,000
        # trials and a draw buffer per run stream, and 14.1e6 with the block's draws
        # held as complex arrays.
        assert _check_peak(_estimation_check, 4) <= 8e6

    def test_detection_check_memory_bounded(self):
        # 5.5e6 bytes at the validate defaults, or 6.1e6 with the imports; 6.7e6 with
        # the products in an array of their own, 9.8e6 with the noisy, conjugated and
        # quantized observations and each user's products out of place.
        assert _check_peak(_detection_checks, 6) <= 6.5e6

    def test_validate_memory_bounded(self, monkeypatch):
        # The six checks two at a time, as on two cores: 14.1e6 bytes, 14.7e6 on the
        # first call; 17.5e6 with runs of 1,000 trials, and 28.2e6 with the checks'
        # block-sized complex arrays.
        monkeypatch.setattr(simulation, "_run_tasks", partial(simulation._run_tasks, n_workers=2))
        cfg = SimulationConfig(**_VALIDATE_DEFAULTS)
        bussgang_table((4, 6, 8, 10, 12, 14))  # the steps are cached, not traced
        assert _traced_peak(partial(validate_closed_forms, cfg)) <= 15.5e6

    def test_statistics_do_not_depend_on_the_run_length(self, monkeypatch):
        # The estimation checks' run length is not part of the random-stream contract:
        # runs of 1,000, 500 and 400 trials, of the default length and of 333, which
        # does not divide the block, give the same bits, over two full blocks and a
        # partial one.
        cfg = SimulationConfig(**_VALIDATE_DEFAULTS)
        results = []
        for rows in (1_000, 500, 400, _CORRELATE_ROWS, 333):
            monkeypatch.setattr(simulation, "_CORRELATE_ROWS", rows)
            results.append(validate_closed_forms(cfg, n_trials=2 * _MC_CHUNK + 4_321))
        assert all(result == results[0] for result in results)

    def test_identity_checks_are_tight(self):
        cfg = SimulationConfig(m_aps=5, k_users=2, n_geometries=1, seed=4)
        results = {r.name: r for r in validate_closed_forms(cfg, n_trials=1000)}
        assert results["unquantized_estimation_identity"].statistic < 1e-12
        assert results["unquantized_detection_identity"].statistic < 1e-12


class TestRunTasks:
    # A call's new threads are those alive in its tasks and not before it.  Threads of
    # earlier calls may still be ending, so the tests compare sets, not active_count().

    def test_one_worker_runs_every_task_in_the_calling_thread(self):
        before = set(threading.enumerate())
        seen = []

        def task(index):
            seen.append((threading.current_thread(), set(threading.enumerate()) - before))
            return index

        results = simulation._run_tasks([partial(task, i) for i in range(5)], n_workers=1)
        assert results == list(range(5))
        assert seen == [(threading.current_thread(), set())] * 5

    def test_at_most_n_minus_one_helper_threads(self):
        # Later tasks finish first; the results keep the submission order.
        before = set(threading.enumerate())
        started, workers = set(), set()

        def task(index):
            started.update(set(threading.enumerate()) - before)
            workers.add(threading.current_thread())
            time.sleep(0.01 * (6 - index))
            return index

        results = simulation._run_tasks([partial(task, i) for i in range(6)], n_workers=3)
        assert results == list(range(6))
        assert len(started) <= 2
        assert workers <= started | {threading.current_thread()}

    @pytest.mark.parametrize("caller", ["running_a_task", "joining"])
    def test_interrupt_sets_stop(self, caller):
        # A helper interrupts the calling thread, then waits on stop: the interrupt
        # propagates and sets stop, whether it reaches the caller in its own task
        # or while it waits for the helper.  interrupt_main does nothing while SIGINT
        # is ignored (a background job of a non-interactive shell), so the test
        # installs Python's own handler, and a lost interrupt fails after 10 s.
        stop, seen = threading.Event(), []
        caller_running, helper_running = threading.Event(), threading.Event()
        calling_thread = threading.current_thread()
        deadline = time.monotonic() + 10.0

        def task():
            if threading.current_thread() is calling_thread:
                caller_running.set()
                if caller == "joining":
                    helper_running.wait(10)  # so the helper holds the other task
                    return
                while time.monotonic() < deadline:
                    time.sleep(0.01)  # until the interrupt arrives
                return
            helper_running.set()
            caller_running.wait(10)
            if caller == "joining":
                time.sleep(0.3)  # the caller has gone on to join by now
            _thread.interrupt_main()
            seen.append(stop.wait(10))

        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            with pytest.raises(KeyboardInterrupt):
                simulation._run_tasks([task, task], n_workers=2, stop=stop)
        finally:
            signal.signal(signal.SIGINT, previous)
        assert seen == [True]
