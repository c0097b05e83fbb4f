import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cfquant.cli import main
from cfquant.quantizer import UniformQuantizer, bussgang_factors, optimal_step


def assert_records_bussgang_table(manifest):
    """The manifest holds, per bit depth, the exact step, alpha and gamma."""
    table = manifest["bussgang_table"]
    assert {int(key) for key in table} == set(manifest["bits_list"])
    for key, row in table.items():
        bits = int(key)
        if bits == 0:
            assert row == {"step": None, "alpha": 1.0, "gamma": 1.0}
            continue
        step = optimal_step(2**bits)
        factors = bussgang_factors(UniformQuantizer(2**bits, step), 1.0)
        assert row == {"step": step, "alpha": factors.alpha, "gamma": factors.gamma}


class TestQuantizerTable:
    def test_table_contents(self, capsys):
        assert main(["quantizer-table", "--levels", "2,4,8"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "levels,bits,step_opt,alpha,gamma,sdnr_db"
        rows = [line.split(",") for line in out[1:]]
        assert [r[0] for r in rows] == ["2", "4", "8"]
        assert [r[1] for r in rows] == ["1", "2", "3"]
        assert float(rows[0][2]) == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), abs=1e-5)
        assert float(rows[1][2]) == pytest.approx(0.9957, abs=1e-3)
        assert float(rows[2][2]) == pytest.approx(0.5860, abs=1e-3)
        # SDNR in dB increases with resolution.
        sdnrs = [float(r[5]) for r in rows]
        assert sdnrs == sorted(sdnrs)

    def test_rejects_odd_levels(self):
        with pytest.raises(SystemExit):
            main(["quantizer-table", "--levels", "3"])

    def test_largest_supported_level_count(self, capsys):
        assert main(["quantizer-table", "--levels", "16384"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("16384,14,")

    def test_rejects_level_count_beyond_solver_domain(self):
        # Fails before the step solver allocates or scans anything.
        start = time.monotonic()
        with pytest.raises(SystemExit, match="16384"):
            main(["quantizer-table", "--levels", "32768"])
        assert time.monotonic() - start < 1.0


class TestCampaignCommands:
    def test_nmse_cdf_writes_files(self, tmp_path, capsys):
        code = main(
            [
                "nmse-cdf",
                "--m-aps", "10",
                "--k-users", "4",
                "--geoms", "2",
                "--bits", "4,0",
                "--seed", "9",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        for name in ("nmse_b4.csv", "nmse_b0.csv", "manifest.json"):
            assert (tmp_path / name).exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["m_aps"] == 10
        assert manifest["seed"] == 9
        assert manifest["bits_list"] == [4, 0]
        assert_records_bussgang_table(manifest)
        lines = (tmp_path / "nmse_b4.csv").read_text().splitlines()
        assert lines[0] == "value,cum_prob"
        assert len(lines) == 1 + 10 * 4 * 2

    def test_sinr_cdf_with_legacy_flag(self, tmp_path):
        code = main(
            [
                "sinr-cdf",
                "--m-aps", "8",
                "--k-users", "3",
                "--geoms", "2",
                "--smallscale", "2",
                "--bits", "6,0",
                "--seed", "3",
                "--legacy-eq21",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["legacy_eq21"] is True
        assert_records_bussgang_table(manifest)
        assert (tmp_path / "sinr_b6.csv").exists()
        assert (tmp_path / "sinr_b0.csv").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("m_aps = 6\nk_users = 3\nn_geometries = 2\nseed = 4\n")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["nmse-cdf", "--config", str(cfg_file), "--bits", "4", "--out", str(out_a)])
        # Overriding the seed must change the samples.
        main(
            ["nmse-cdf", "--config", str(cfg_file), "--bits", "4", "--seed", "5",
             "--out", str(out_b)]
        )
        assert (out_a / "nmse_b4.csv").read_bytes() != (out_b / "nmse_b4.csv").read_bytes()
        manifest = json.loads((out_a / "manifest.json").read_text())
        assert manifest["m_aps"] == 6
        assert manifest["seed"] == 4

    def test_repeat_runs_byte_identical(self, tmp_path):
        args = ["nmse-cdf", "--m-aps", "6", "--k-users", "3", "--geoms", "2",
                "--bits", "4,0", "--seed", "7"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b"), "--workers", "2"])
        for name in ("nmse_b4.csv", "nmse_b0.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestValidateCommand:
    def test_validate_passes_and_prints_report(self, capsys):
        code = main(
            ["validate", "--m-aps", "6", "--k-users", "3", "--sigma-sh-db", "0",
             "--seed", "3", "--trials", "5000"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS unquantized_estimation_identity" in out
        assert "PASS unquantized_detection_identity" in out
        assert "checks passed" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("trials", ["0", "1", "-5"])
    def test_rejects_too_few_trials(self, trials, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--trials", trials])
        assert exc.value.code == f"validate: n_trials must be at least 2, got {trials}"
        assert "checks passed" not in capsys.readouterr().out


class TestEntryPoint:
    def test_installed_script_runs(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "cfquant.cli", "quantizer-table", "--levels", "4"],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("levels,bits")
