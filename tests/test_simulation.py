import json
import math

import numpy as np
import pytest

from cfquant.simulation import (
    NMSE_DEFAULT_BITS,
    SINR_DEFAULT_BITS,
    CdfSeries,
    SimulationConfig,
    campaign_manifest,
    make_cdf,
    parse_config_file,
    run_nmse_campaign,
    run_sinr_campaign,
    substream,
    validate_closed_forms,
    write_cdf_csv,
)

SMALL = SimulationConfig(m_aps=15, k_users=6, n_geometries=4, n_smallscale=2, seed=11)


class TestConfig:
    def test_defaults_match_reference_scenario(self):
        cfg = SimulationConfig()
        assert (cfg.m_aps, cfg.k_users) == (200, 40)
        assert cfg.l_serv_m == 1000.0
        assert cfg.snr_edge_db == 20.0
        assert cfg.sigma_sh_db == 8.0
        assert cfg.resolved_tau() == 40
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
        ],
    )
    def test_unsupported_configs_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite|not supported"):
            SimulationConfig(**kwargs)

    def test_from_mapping_coercion(self):
        cfg = SimulationConfig.from_mapping(
            {"m_aps": "12", "snr_edge_db": "15.5", "bits_list": "4, 8,12", "seed": "9"}
        )
        assert cfg.m_aps == 12
        assert cfg.snr_edge_db == 15.5
        assert cfg.bits_list == (4, 8, 12)
        assert cfg.seed == 9

    def test_from_mapping_rejects_unknown_key(self):
        with pytest.raises(ValueError):
            SimulationConfig.from_mapping({"nonsense": "1"})

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


class TestCdf:
    def test_sorting_and_probabilities(self):
        series = make_cdf([0.2, 0.1, 0.3], label="x")
        np.testing.assert_allclose(series.values, [0.1, 0.2, 0.3])
        np.testing.assert_allclose(series.probs, [1 / 3, 2 / 3, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_cdf([], label="x")

    def test_monotone_invariants(self):
        rng = np.random.default_rng(0)
        series = make_cdf(rng.normal(size=1000), label="n")
        assert np.all(np.diff(series.values) >= 0.0)
        assert np.all(np.diff(series.probs) > 0.0)
        assert series.probs[0] == pytest.approx(1e-3)
        assert series.probs[-1] == 1.0


class TestWriteCsv:
    def test_file_contents(self, tmp_path):
        series = make_cdf([0.2, 0.1, 0.3], label="4")
        paths = write_cdf_csv([series], tmp_path, campaign="nmse")
        assert [p.name for p in paths] == ["nmse_b4.csv"]
        lines = paths[0].read_text().splitlines()
        assert lines[0] == "value,cum_prob"
        assert lines[1].startswith("0.1,")
        assert len(lines) == 4

    def test_manifest_written(self, tmp_path):
        series = make_cdf([1.0], label="0")
        manifest = campaign_manifest(SMALL, "nmse", (0,))
        paths = write_cdf_csv([series], tmp_path, campaign="nmse", manifest=manifest)
        data = json.loads((tmp_path / "manifest.json").read_text())
        assert data["campaign"] == "nmse"
        assert data["seed"] == SMALL.seed
        assert data["m_aps"] == SMALL.m_aps
        assert any(p.name == "manifest.json" for p in paths)

    def test_rerun_identical(self, tmp_path):
        series = make_cdf(np.random.default_rng(1).normal(size=100), label="8")
        first = write_cdf_csv([series], tmp_path / "a", campaign="sinr")[0].read_bytes()
        second = write_cdf_csv([series], tmp_path / "b", campaign="sinr")[0].read_bytes()
        assert first == second

    def test_empty_series_list_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_cdf_csv([], tmp_path)

    def test_unwritable_path_reports_filename(self, tmp_path):
        (tmp_path / "nmse_b4.csv").mkdir()  # occupies the target filename
        series = make_cdf([1.0], label="4")
        with pytest.raises(OSError, match="nmse_b4.csv"):
            write_cdf_csv([series], tmp_path, campaign="nmse")

    def test_uncreatable_directory_reported(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        series = make_cdf([1.0], label="4")
        with pytest.raises(OSError, match="blocker"):
            write_cdf_csv([series], blocker / "sub", campaign="nmse")


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
        bytes_a = write_cdf_csv(first, tmp_path / "a", campaign="nmse")[0].read_bytes()
        bytes_b = write_cdf_csv(second, tmp_path / "b", campaign="nmse")[0].read_bytes()
        assert bytes_a == bytes_b

    def test_custom_bits_list(self):
        cfg = SimulationConfig(m_aps=8, k_users=3, n_geometries=2, bits_list=(5, 0), seed=2)
        series = run_nmse_campaign(cfg)
        assert [s.label for s in series] == ["5", "0"]


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
        from cfquant.detection import distortion_covariance, error_covariance, per_user_sinr
        from cfquant.simulation import _draw_gains, _FADING, bussgang_table

        beta = _draw_gains(cfg, 0)
        h = draw_small_scale(1, 1, substream(cfg.seed, _FADING, 0, 0))
        row = bussgang_table((6,))[6]
        alpha, gamma = row["alpha"], row["gamma"]
        noise = cfg.noise_model()
        c_delta = distortion_covariance(beta, alpha, gamma, 1.0, noise.sigma_n2)
        cov = error_covariance(h * np.sqrt(beta), alpha, 1.0, noise.sigma_n2, c_delta)
        expected = 10.0 * np.log10(per_user_sinr(cov, 1.0))
        assert series[0].values[0] == pytest.approx(expected[0], abs=1e-9)

    def test_zero_sinr_reported_not_clamped(self, monkeypatch):
        # An error covariance at the prior, sigma_s2*I, means a SINR of
        # exactly zero, which has no dB value.
        import cfquant.simulation as simulation

        def uninformative(G, alpha, sigma_s2, sigma_n2, c_delta):
            return sigma_s2 * np.eye(G.shape[1])

        monkeypatch.setattr(simulation, "error_covariance", uninformative)
        with pytest.raises(ValueError, match=r"trial 0, fading draw 0, bits=6"):
            run_sinr_campaign(SMALL)

    def test_worker_independence(self):
        first = run_sinr_campaign(SMALL, n_workers=1)
        second = run_sinr_campaign(SMALL, n_workers=2)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.values, b.values)

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


class TestValidation:
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

    def test_identity_checks_are_tight(self):
        cfg = SimulationConfig(m_aps=5, k_users=2, n_geometries=1, seed=4)
        results = {r.name: r for r in validate_closed_forms(cfg, n_trials=1000)}
        assert results["unquantized_estimation_identity"].statistic < 1e-12
        assert results["unquantized_detection_identity"].statistic < 1e-12
