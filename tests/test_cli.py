"""Command-line contract tests: files, determinism, exit codes, runtime."""

import csv
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from stapbench import cli


def read(path):
    return path.read_bytes()


TOY_SCENE = """
num_sensors = 2
num_pulses = 2
clutter_patches = 31
cnr_db = 20
jammers = none

[experiment]
kind = sinr-vs-snapshots
algorithms = optimal, smi, lr-jio
k_max = 16
k_grid = 8, 16
runs = 2
seed = 4
"""


class TestComplexityRun:
    def test_row_count_contract(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("[experiment]\nkind = complexity\nalgorithms = smi, lr-jidf\nm_grid = 32, 64\n")
        out = tmp_path / "out"
        assert cli.main(["--config", str(cfg_path), "--out", str(out)]) == 0
        lines = (out / "complexity.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + |algorithms| * |m_grid|
        summary = capsys.readouterr().out
        assert "complexity" in summary and "smi" in summary


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "s.cfg"
        cfg_path.write_text(TOY_SCENE)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cli.main(["--config", str(cfg_path), "--out", str(out1)]) == 0
        assert cli.main(["--config", str(cfg_path), "--out", str(out2)]) == 0
        name = "sinr-vs-snapshots.csv"
        assert read(out1 / name) == read(out2 / name)
        for alg in ("optimal", "smi", "lr-jio"):
            dat = f"sinr-vs-snapshots_{alg}.dat"
            assert read(out1 / dat) == read(out2 / dat)

    def test_blas_thread_count_does_not_change_metrics(self, tmp_path):
        # every K >= M: below K = M, lr-evd picks eigenvectors out of a degenerate
        # eigenspace of the sample covariance, and those depend on the BLAS threading
        cfg_path = tmp_path / "s.cfg"
        cfg_path.write_text(
            "[experiment]\nkind = sinr-vs-snapshots\nk_max = 128\nk_grid = 64, 96, 128\n"
            "runs = 2\nseed = 7\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        tables = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            subprocess.run(
                [sys.executable, "-m", "stapbench.cli", "--config", str(cfg_path), "--out", str(out)],
                env=env, check=True, capture_output=True,
            )
            with open(out / "sinr-vs-snapshots.csv", newline="") as fh:
                tables.append(list(csv.DictReader(fh)))
        one, two = tables
        assert len(one) == len(two) == 8 * 3
        for a, b in zip(one, two):
            assert (a["algorithm"], a["x_value"], a["runs"]) == (b["algorithm"], b["x_value"], b["runs"])
            for key in ("metric", "std"):
                assert math.isclose(float(a[key]), float(b[key]), rel_tol=1e-8), (a, b)


class TestSmokeRuntime:
    def test_toy_snapshot_sweep_is_fast(self, tmp_path):
        cfg_path = tmp_path / "s.cfg"
        cfg_path.write_text(TOY_SCENE)
        start = time.monotonic()
        assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        assert time.monotonic() - start < 5.0


def refuse_runs(monkeypatch):
    """Make starting an experiment fail the test: bad input must stop before it."""
    from stapbench import evaluation as ev

    def started(*args):
        raise AssertionError("an experiment started")

    monkeypatch.setattr(ev, "_make_context", started)


class TestExitCodes:
    def test_validation_failure_is_two(self, tmp_path, capsys, monkeypatch):
        refuse_runs(monkeypatch)
        cfg_path = tmp_path / "bad.cfg"
        for text, key in (
            ("num_sensors = 0\n", "num_sensors"),
            ("cnr_db = nan\n", "cnr_db"),
            (TOY_SCENE.replace("k_grid = 8, 16", "k_grid = 0, 16"), "k_grid"),
            (TOY_SCENE.replace("k_grid = 8, 16", "k_grid = 8, 32"), "k_grid"),
            (
                TOY_SCENE.replace("kind = sinr-vs-snapshots", "kind = pd-vs-snr\nsnr_grid_db = 0, nan"),
                "snr_grid_db",
            ),
            (TOY_SCENE + "doppler_min_hz = 50\ndoppler_max_hz = -50\n", "doppler_min_hz"),
            (TOY_SCENE.replace("lr-jio", "lr-jidf") + "branches = 0\n", "branches"),
            (TOY_SCENE.replace("lr-jio", "ka-mvdr") + "ka_eta = 5\n", "ka_eta"),
        ):
            cfg_path.write_text(text)
            assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
            assert key in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    def test_negative_seed_is_two(self, tmp_path, capsys, monkeypatch):
        refuse_runs(monkeypatch)
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(TOY_SCENE.replace("seed = 4\n", ""))
        assert cli.main(["--config", str(cfg_path), "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err
        monkeypatch.setenv("STAP_BENCH_SEED", "-3")
        assert cli.main(["--config", str(cfg_path)]) == 2
        assert "seed" in capsys.readouterr().err
        monkeypatch.delenv("STAP_BENCH_SEED")
        cfg_path.write_text("master_seed = -5\n" + TOY_SCENE.replace("seed = 4\n", ""))
        assert cli.main(["--config", str(cfg_path)]) == 2
        assert "master_seed" in capsys.readouterr().err

    def test_missing_config_is_two(self, tmp_path):
        assert cli.main(["--config", str(tmp_path / "absent.cfg")]) == 2

    def test_bad_experiment_override_is_two(self, tmp_path):
        cfg_path = tmp_path / "ok.cfg"
        cfg_path.write_text("")
        assert cli.main(["--config", str(cfg_path), "--experiment", "nonsense"]) == 2

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(TOY_SCENE.replace("seed = 4\n", ""))
        monkeypatch.setenv("STAP_BENCH_SEED", "12")
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        assert cli.main(["--config", str(cfg_path), "--out", str(out1)]) == 0
        monkeypatch.setenv("STAP_BENCH_SEED", "13")
        assert cli.main(["--config", str(cfg_path), "--out", str(out2)]) == 0
        assert read(out1 / "sinr-vs-snapshots.csv") != read(out2 / "sinr-vs-snapshots.csv")

    def test_numeric_budget_exit_is_three(self, tmp_path, monkeypatch, capsys):
        from stapbench import evaluation as ev
        from stapbench.linalg import NumericalError

        real = ev.design_algorithm

        def flaky(name, ctx, r_hat, block):
            if name == "smi":
                raise NumericalError("injected")
            return real(name, ctx, r_hat, block)

        monkeypatch.setattr(ev, "design_algorithm", flaky)
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(TOY_SCENE)
        assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
        assert "budget" in capsys.readouterr().err

    def test_nan_design_exit_is_three(self, tmp_path, monkeypatch, capsys):
        from stapbench import evaluation as ev

        real = ev.design_algorithm

        def nan_design(name, ctx, r_hat, block):
            w = real(name, ctx, r_hat, block)
            if name == "smi":
                w.w = w.w * np.nan
            return w

        monkeypatch.setattr(ev, "design_algorithm", nan_design)
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(TOY_SCENE)
        assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
        captured = capsys.readouterr()
        assert "error: smi failed 4/4 designs" in captured.err
        assert captured.out.splitlines()[3].split()[-1] == "4"  # the smi row's failure count
