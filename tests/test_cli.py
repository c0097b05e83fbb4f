import contextlib
import hashlib
import io
import json
import logging
import math
import os
import subprocess
import sys
import time
import typing
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from cfquant.cli import _build_config, build_parser, main
from cfquant.detection import _openblas
from cfquant.quantizer import FlatObjectiveWarning, bussgang_row
from cfquant.simulation import SimulationConfig, parse_config_file


def assert_records_bussgang_table(manifest):
    """The manifest holds, per bit depth, the exact step, alpha, gamma and gap."""
    table = manifest["bussgang_table"]
    assert {int(key) for key in table} == set(manifest["bits_list"])
    for key, row in table.items():
        bits = int(key)
        if bits == 0:
            assert row == {"step": None, "alpha": 1.0, "gamma": 1.0, "gap": 0.0}
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FlatObjectiveWarning)
            expected = bussgang_row(2**bits)
        assert row == expected


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
        for name in ("nmse_b4.csv", "nmse_b0.csv", "nmse_manifest.json"):
            assert (tmp_path / name).exists()
        manifest = json.loads((tmp_path / "nmse_manifest.json").read_text())
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
        manifest = json.loads((tmp_path / "sinr_manifest.json").read_text())
        assert manifest["legacy_eq21"] is True
        assert_records_bussgang_table(manifest)
        assert (tmp_path / "sinr_b6.csv").exists()
        assert (tmp_path / "sinr_b0.csv").exists()

    @pytest.mark.parametrize("command", ["nmse-cdf", "sinr-cdf"])
    def test_repeated_bit_depth_rejected_before_output(self, command, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--m-aps", "6", "--k-users", "3", "--geoms", "1",
                  "--bits", "6,6,0", "--out", str(out)])
        assert exc.value.code == f"{command}: bits_list repeats a bit depth: [6, 6, 0]"
        assert not out.exists()
        assert capsys.readouterr().out == ""

    def test_pool_larger_than_memory_rejected_before_output(self, monkeypatch, tmp_path):
        # 10**9 geometries of 200 x 40 pairs at 7 bit depths, against 4 GiB of memory
        # that the patched sysconf reports; nothing of that size is allocated.
        memory = {"SC_PHYS_PAGES": 2**20, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(os, "sysconf", memory.__getitem__)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["nmse-cdf", "--geoms", str(10**9), "--out", str(out)])
        assert exc.value.code == (
            "nmse-cdf: the campaign pools 7 x 8000000000000 float64 values, 4.48e+05 GB, "
            "more than this machine's 4.29 GB of physical memory"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,flags,message",
        [
            ("nmse-cdf", ["--m-aps", "0"], "m_aps and k_users must be at least 1"),
            ("sinr-cdf", ["--m-aps", "0"], "m_aps and k_users must be at least 1"),
            ("validate", ["--m-aps", "0"], "m_aps and k_users must be at least 1"),
            # Accepted at construction, but the signal power underflows every SINR.
            (
                "sinr-cdf",
                ["--sigma-s2", "1e-300", "--m-aps", "8", "--k-users", "3", "--geoms", "1",
                 "--smallscale", "1"],
                "zero SINR in geometry trial 0, fading draw 0, bits=6: no finite dB value",
            ),
            # The path loss at l_serv/2 underflows, so the noise variance is zero.
            (
                "nmse-cdf",
                ["--l-serv-m", "1e300", "--m-aps", "8", "--k-users", "3", "--geoms", "2"],
                "sigma_n2 must be positive and finite, got 0.0",
            ),
            (
                "nmse-cdf",
                ["--d0-m", "1e-300", "--d1-m", "1e-299", "--m-aps", "8", "--k-users", "3",
                 "--geoms", "2"],
                "sigma_n2 must be positive and finite, got 0.0",
            ),
            (
                "nmse-cdf",
                ["--snr-edge-db", "4000"],
                "snr_edge_db=4000.0 is not supported: 10**(snr_edge_db/10) overflows",
            ),
            (
                "nmse-cdf",
                ["--snr-edge-db", "-4000"],
                "snr_edge_db=-4000.0 is not supported: 10**(snr_edge_db/10) underflows",
            ),
        ],
        ids=["nmse-cdf", "sinr-cdf", "validate", "sinr-cdf-zero-sinr", "nmse-cdf-huge-area",
             "nmse-cdf-tiny-breakpoints", "nmse-cdf-edge-snr-overflow",
             "nmse-cdf-edge-snr-underflow"],
    )
    def test_invalid_config_value_exits_cleanly(self, command, flags, message, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [command, *flags] + (["--out", str(out)] if command != "validate" else [])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == f"{command}: {message}"
        assert not out.exists()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("workers", ["0", "-3"])
    @pytest.mark.parametrize("command", ["nmse-cdf", "sinr-cdf"])
    def test_fewer_than_one_worker_rejected(self, command, workers, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--workers", workers, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == f"sim {command}: error: argument --workers: must be at least 1, got {workers}"
        assert not out.exists()

    def test_missing_config_file_exits_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        with pytest.raises(SystemExit) as exc:
            main(["nmse-cdf", "--config", str(missing), "--out", str(tmp_path / "out")])
        assert exc.value.code.startswith("nmse-cdf: ")
        assert str(missing) in exc.value.code
        assert not (tmp_path / "out").exists()
        assert capsys.readouterr().out == ""

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
        manifest = json.loads((out_a / "nmse_manifest.json").read_text())
        assert manifest["m_aps"] == 6
        assert manifest["seed"] == 4

    def test_campaigns_sharing_a_directory_keep_their_own_manifests(self, tmp_path):
        # Each manifest describes the CSVs beside it, whichever campaign ran last.
        small = ["--m-aps", "6", "--k-users", "3", "--geoms", "1", "--out", str(tmp_path)]
        assert main(["nmse-cdf", "--bits", "4,0", *small]) == 0
        assert main(["sinr-cdf", "--bits", "6,8", "--smallscale", "1", *small]) == 0
        for campaign, bits in [("nmse", [4, 0]), ("sinr", [6, 8])]:
            manifest = json.loads((tmp_path / f"{campaign}_manifest.json").read_text())
            assert manifest["campaign"] == campaign
            assert manifest["bits_list"] == bits
            assert_records_bussgang_table(manifest)
            for b in bits:
                assert (tmp_path / f"{campaign}_b{b}.csv").exists()
        assert not (tmp_path / "manifest.json").exists()

    def test_repeat_runs_byte_identical(self, tmp_path):
        args = ["nmse-cdf", "--m-aps", "6", "--k-users", "3", "--geoms", "2",
                "--bits", "4,0", "--seed", "7"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b"), "--workers", "2"])
        for name in ("nmse_b4.csv", "nmse_b0.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def has_annotated_type(value, annotation):
    """``value`` is of the annotated type, reading ``X | None`` as X."""
    (kind,) = [t for t in typing.get_args(annotation) or (annotation,) if t is not type(None)]
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return type(value) is tuple and all(type(v) is item for v in value)
    return type(value) is kind


class TestConfigFields:
    # One non-default value per SimulationConfig field, as text.
    SETTINGS = {
        "m_aps": "7", "k_users": "3", "l_serv_m": "500.5", "snr_edge_db": "15.5",
        "sigma_sh_db": "4.5", "tau": "5", "bits_list": "4,6", "n_geometries": "2",
        "n_smallscale": "3", "seed": "9", "sigma_s2": "1.5", "d0_m": "10.5", "d1_m": "90.5",
        "gamma0": "2.5", "gamma1": "3.25",
    }
    OWN_FLAGS = {"bits_list": "--bits", "n_geometries": "--geoms",
                 "n_smallscale": "--smallscale", "seed": "--seed"}

    def test_every_field_reachable_with_its_annotated_type(self, tmp_path):
        # Each field is set from the config file and from a flag, and lands
        # with its annotated type on both routes.
        assert list(self.SETTINGS) == [f.name for f in fields(SimulationConfig)]
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in self.SETTINGS.items()))
        from_file = SimulationConfig.from_mapping(parse_config_file(cfg_file))
        argv = ["sinr-cdf"]
        for name, value in self.SETTINGS.items():
            argv += [self.OWN_FLAGS.get(name, "--" + name.replace("_", "-")), value]
        args = build_parser().parse_args(argv)
        from_flags = _build_config(args, bits=args.bits, geoms=args.geoms, smallscale=args.smallscale)
        assert from_flags == from_file
        for f in fields(SimulationConfig):
            for cfg in (from_file, from_flags):
                value = getattr(cfg, f.name)
                assert has_annotated_type(value, f.type), (f.name, value)
                assert value != f.default, f.name


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

    def test_repeated_bit_depth_rejected_before_any_check(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("bits_list = 6, 6\n")
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--config", str(cfg_file), "--trials", "1000"])
        assert exc.value.code == "validate: bits_list repeats a bit depth: [6, 6]"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("trials", ["0", "1", "-5"])
    def test_rejects_too_few_trials(self, trials, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--trials", trials])
        assert exc.value.code == f"validate: n_trials must be at least 2, got {trials}"
        assert "checks passed" not in capsys.readouterr().out


def run_fresh(*args, env=None, **kwargs):
    """``python ARGS`` in a fresh interpreter that imports this checkout's cfquant,
    in the environment ``env`` (by default this process's)."""
    env = dict(os.environ if env is None else env)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, text=True, **kwargs)


# Runs two small campaigns through cli.main into the directory argv[2]; with
# argv[1] == "fallback", on the numpy receiver kernel, as without the bundled OpenBLAS.
_TWO_CAMPAIGNS = """
import sys
from cfquant import cli, detection, simulation
if sys.argv[1] == "fallback":
    detection._openblas = simulation._openblas = lambda: None
small = ["--m-aps", "8", "--k-users", "3", "--geoms", "2", "--workers", "1", "--out", sys.argv[2]]
cli.main(["sinr-cdf", "--smallscale", "2", *small])
cli.main(["nmse-cdf", *small])
"""


class TestBlasCores:
    def test_csvs_identical_across_cores_and_the_fallback(self, tmp_path):
        # The CSVs and manifests of both campaigns do not depend on the kernels
        # OpenBLAS picks for the CPU (SkylakeX on AVX-512 machines, Haswell on
        # AVX2 ones) nor on whether the receiver kernel runs on numpy instead.
        base = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        variants = {
            "default": (base, "openblas"),
            "Haswell": ({**base, "OPENBLAS_CORETYPE": "Haswell"}, "openblas"),
            "fallback": (base, "fallback"),
        }
        digests = {}
        for name, (env, kernel) in variants.items():
            out = tmp_path / name
            result = run_fresh("-c", _TWO_CAMPAIGNS, kernel, str(out), env=env,
                               capture_output=True, timeout=120)
            assert result.returncode == 0, result.stderr
            digests[name] = {
                path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(out.iterdir())
            }
        assert len(digests["default"]) == 15  # 6 sinr and 7 nmse CSVs, 2 manifests
        assert digests["Haswell"] == digests["default"]
        assert digests["fallback"] == digests["default"]


class TestEntryPoint:
    def test_installed_script_runs(self):
        result = run_fresh("-m", "cfquant.cli", "quantizer-table", "--levels", "4", capture_output=True)
        assert result.returncode == 0
        assert result.stdout.startswith("levels,bits")

    def test_import_loads_no_scipy(self):
        code = "import sys, cfquant; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        result = run_fresh("-c", code, capture_output=True)
        assert result.returncode == 0
        assert result.stdout == "[]\n"

    def test_jobs_leave_the_host_process_as_they_found_it(self, tmp_path):
        # cli.main runs in the caller's process (the bench worker, a notebook):
        # after a job, and after a job that fails inside the task runner, the
        # OpenBLAS thread count, warnings.showwarning and the root logger are
        # what they were, and each job logs to the stderr of its own call.
        lib = _openblas()
        if lib is None:
            pytest.skip("numpy does not use a bundled OpenBLAS here")
        get, put = lib.get_num_threads, lib.set_num_threads
        original = get()
        put(2)
        root = logging.getLogger()

        def state():
            return get(), warnings.showwarning, root.handlers[:], root.level

        try:
            before = state()
            with contextlib.redirect_stderr(io.StringIO()) as err:
                assert main(["validate", "--trials", "2000"]) in (0, 1)
            assert err.getvalue() == "INFO validation: M=10 K=4 trials=2000 seed=1\n"
            assert state() == before
            with pytest.raises(SystemExit, match="zero SINR"):
                main(["sinr-cdf", "--m-aps", "8", "--k-users", "3", "--geoms", "2",
                      "--sigma-s2", "1e-300", "--workers", "2", "--out", str(tmp_path)])
            assert state() == before
        finally:
            put(original)

    def test_each_job_logs_to_the_stderr_of_its_call(self, tmp_path):
        # In a host whose root logger has no handlers yet, two jobs in a row,
        # each under its own redirect, log there and leave the root logger alone.
        host = (
            "import contextlib, io, logging, sys\n"
            "from cfquant.cli import main\n"
            "root = logging.getLogger()\n"
            "before = (root.handlers[:], root.level)\n"
            "for out in sys.argv[1:]:\n"
            "    with contextlib.redirect_stderr(io.StringIO()) as err:\n"
            "        main(['nmse-cdf', '--m-aps', '4', '--k-users', '2', '--geoms', '1',\n"
            "              '--bits', '4', '--out', out])\n"
            "    print(err.getvalue().count('INFO '), (root.handlers, root.level) == before)\n"
        )
        result = run_fresh("-c", host, str(tmp_path / "a"), str(tmp_path / "b"),
                           capture_output=True)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == "3 True\n3 True\n"

    def test_lost_stderr_fails_no_command(self, capsys):
        # Started with fd 2 closed (as by `2>&-`) sys.stderr is None, and a closed
        # stream raises on write: either way the warning line is dropped, not
        # written to stdout, and the table is whole.
        assert main(["quantizer-table", "--levels", "2,4"]) == 0
        table = capsys.readouterr().out
        assert len(table.splitlines()) == 3
        closed = io.StringIO()
        closed.close()
        with contextlib.redirect_stderr(closed):
            assert main(["quantizer-table", "--levels", "2,4"]) == 0
        assert capsys.readouterr().out == table
        code = ("import os, sys; os.close(2); os.execv(sys.executable, [sys.executable, "
                "'-m', 'cfquant.cli', 'quantizer-table', '--levels', '2,4'])")
        result = run_fresh("-c", code, capture_output=True)
        assert (result.returncode, result.stdout) == (0, table)

    @pytest.mark.parametrize(
        "command, before, after",
        [
            (["quantizer-table", "--levels", "2"], [], []),
            (
                ["nmse-cdf", "--bits", "1", "--geoms", "1", "--m-aps", "4", "--k-users", "2"],
                ["INFO nmse campaign: M=4 K=2 geometries=1 bits=[1] seed=1"],
                ["INFO wrote results/nmse_b1.csv", "INFO wrote results/nmse_manifest.json"],
            ),
        ],
        ids=["quantizer-table", "nmse-cdf"],
    )
    def test_library_warning_is_one_plain_line(self, command, before, after, tmp_path, capfd):
        # The flat-objective warning on stderr, without the library's file,
        # line number and source line, between the command's own lines.
        assert run_fresh("-m", "cfquant.cli", *command, cwd=tmp_path).returncode == 0
        assert capfd.readouterr().err.splitlines() == [
            *before,
            "WARNING FlatObjectiveWarning: SDNR objective is constant in the step for a "
            "2-level quantizer; returning the canonical minimum-distortion step 2*sqrt(2/pi)",
            *after,
        ]
