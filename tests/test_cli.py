"""Command-line contract tests: files, determinism, exit codes, runtime."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from stapbench import cli, evaluation


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
    @pytest.mark.parametrize("kind", evaluation.RUNNERS)
    def test_same_seed_byte_identical(self, tmp_path, kind):
        cfg_path = tmp_path / "s.cfg"
        cfg_path.write_text(TOY_SCENE.replace("sinr-vs-snapshots", kind) + "trials = 2000\ndesigns = 2\n")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cli.main(["--config", str(cfg_path), "--out", str(out1)]) == 0
        assert cli.main(["--config", str(cfg_path), "--out", str(out2)]) == 0
        # the complexity sweep has no curve for the clairvoyant bound
        algorithms = ("smi", "lr-jio") if kind == "complexity" else ("optimal", "smi", "lr-jio")
        names = sorted([f"{kind}.csv"] + [f"{kind}_{alg}.dat" for alg in algorithms])
        assert sorted(p.name for p in out1.iterdir()) == names
        for name in names:
            assert read(out1 / name) == read(out2 / name)

    def test_blas_thread_count_does_not_change_metrics(self, tmp_path):
        # at the standard scene's M = 64, threaded OpenBLAS rounds the clutter
        # product, zpotrf and zheevd differently; linalg runs one thread, so
        # neither the thread count nor the import order reaches a byte
        src = str(Path(cli.__file__).resolve().parents[1])
        outputs = {}
        for threads, order in (("1", "stapbench-first"), ("2", "stapbench-first"), ("2", "numpy-first")):
            run_dir = tmp_path / f"{threads}-{order}"
            run_dir.mkdir()
            (run_dir / "s.cfg").write_text(EVERY_KIND_STUDY)
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            run = subprocess.run([sys.executable, "-c", EVERY_KIND_RUN, order], cwd=run_dir, env=env,
                                 check=True, capture_output=True)
            outputs[threads, order] = {p.name: p.read_bytes() for p in (run_dir / "out").iterdir()}
            outputs[threads, order]["stdout"] = run.stdout
        reference = outputs.pop(("1", "stapbench-first"))
        # a CSV, a .dat per algorithm (complexity has no optimal) and stdout
        assert len(reference) == 4 * (1 + 8) - 1 + 1
        for setting, files in outputs.items():
            assert files == reference, (setting, sorted(n for n in reference if files.get(n) != reference[n]))


# Small grids on the standard scene, for every experiment kind.
EVERY_KIND_STUDY = """
[experiment]
k_max = 128
k_grid = 10, 43, 128
runs = 2
seed = 7
doppler_step_hz = 50
trials = 2000
designs = 2
snr_grid_db = 0, 6
m_grid = 16, 64
"""

# Runs every experiment kind through the CLI in one process. With the argument
# "numpy-first" it imports numpy before stapbench, as a program that calls
# cli.main from its own code may.
EVERY_KIND_RUN = """
import sys
if sys.argv[1] == "numpy-first":
    import numpy
from stapbench import cli, evaluation
for kind in evaluation.RUNNERS:
    assert cli.main(["--config", "s.cfg", "--experiment", kind, "--out", "out"]) == 0
"""

# Imports numpy before stapbench, then reads the thread count of numpy's
# OpenBLAS, the one copy the package loads (see TestImportCost).
BLAS_THREADS_PROBE = """
import ctypes
from numpy.linalg import _umath_linalg
import stapbench.linalg
print(ctypes.CDLL(_umath_linalg.__file__).scipy_openblas_get_num_threads64_())
"""


class TestBlasThreads:
    def test_linalg_pins_one_thread(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", BLAS_THREADS_PROBE], env=env, check=True,
                             capture_output=True, text=True)
        assert run.stdout.strip() == "1"


# What importing the CLI loads: scipy modules, and the OpenBLAS shared objects
# mapped into the process (None where /proc/self/maps does not exist).
IMPORT_PROBE = """
import json, os, sys
import stapbench.cli
maps = open("/proc/self/maps").read().splitlines() if os.path.exists("/proc/self/maps") else None
print(json.dumps({
    "scipy": sorted(name for name in sys.modules if name.startswith("scipy")),
    "openblas": None if maps is None else sorted({line.split()[-1] for line in maps if "openblas" in line.lower()}),
}))
"""


class TestImportCost:
    def test_cli_loads_no_scipy_and_one_openblas(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True, capture_output=True,
                             text=True)
        loaded = json.loads(run.stdout)
        assert loaded["scipy"] == []
        if loaded["openblas"] is None:
            pytest.skip("no /proc/self/maps to list the mapped OpenBLAS copies")
        assert len(loaded["openblas"]) == 1, loaded["openblas"]


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
            (TOY_SCENE.replace("lr-jio", "ka-mvdr") + "ka_alpha = 0.5\n", "ka_alpha"),
            (TOY_SCENE + "runs = 5\n", "'runs' is set twice"),
            (TOY_SCENE.replace("lr-jio", "smi"), "algorithms names 'smi' twice"),
            (TOY_SCENE.replace("lr-jio", "lr-evd") + "evd_rank = 2\n", "evd_rank"),
            (TOY_SCENE.replace("lr-jio", "lr-krylov") + "krylov_rank = 2\n", "krylov_rank"),
            (TOY_SCENE.replace("lr-jio", "lr-evd") + "evd_selection = pc\n", "evd_selection"),
            ("platform_height_m = 9000\n", "platform_height_m"),
            ("range_ambiguities = 2\n", "range_ambiguities"),
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
        # the scene has no seed: the key is unknown, whatever its value
        cfg_path.write_text("master_seed = -5\n" + TOY_SCENE.replace("seed = 4\n", ""))
        assert cli.main(["--config", str(cfg_path)]) == 2
        assert "master_seed" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ("pd-vs-snr", "complexity"))
    def test_runs_with_a_kind_that_has_none_is_two(self, tmp_path, capsys, monkeypatch, kind):
        monkeypatch.setattr(cli, "run_experiment", lambda *args: pytest.fail("an experiment started"))
        assert cli.main(["--experiment", kind, "--runs", "5", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "--runs" in err and kind in err
        assert not (tmp_path / "o").exists()

    def test_missing_config_is_two(self, tmp_path):
        assert cli.main(["--config", str(tmp_path / "absent.cfg")]) == 2

    def test_bad_experiment_override_is_two(self, tmp_path):
        cfg_path = tmp_path / "ok.cfg"
        cfg_path.write_text("")
        assert cli.main(["--config", str(cfg_path), "--experiment", "nonsense"]) == 2

    def test_environment_does_not_seed(self, tmp_path, monkeypatch):
        # the experiment's seed is the only seed: the environment moves no byte
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(TOY_SCENE.replace("seed = 4\n", ""))
        monkeypatch.setenv("STAP_BENCH_SEED", "12")
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        assert cli.main(["--config", str(cfg_path), "--out", str(out1)]) == 0
        monkeypatch.setenv("STAP_BENCH_SEED", "13")
        assert cli.main(["--config", str(cfg_path), "--out", str(out2)]) == 0
        assert read(out1 / "sinr-vs-snapshots.csv") == read(out2 / "sinr-vs-snapshots.csv")

    def test_numeric_budget_exit_is_three(self, tmp_path, monkeypatch, capsys):
        from stapbench import evaluation as ev
        from stapbench.linalg import NumericalError

        real = ev.design_algorithm

        def flaky(name, ctx, r_hat):
            if name == "smi":
                raise NumericalError("injected")
            return real(name, ctx, r_hat)

        monkeypatch.setattr(ev, "design_algorithm", flaky)
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(TOY_SCENE)
        assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
        assert "budget" in capsys.readouterr().err
        # a Pd sweep makes one design per block, scored across the whole grid
        cfg_path.write_text(TOY_SCENE.replace("sinr-vs-snapshots", "pd-vs-snr") + "trials = 400\ndesigns = 4\n")
        assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "p")]) == 3
        assert "error: smi failed 4/4 designs" in capsys.readouterr().err

    def test_nan_design_exit_is_three(self, tmp_path, monkeypatch, capsys):
        from stapbench import evaluation as ev

        real = ev.design_algorithm

        def nan_design(name, ctx, r_hat):
            design = real(name, ctx, r_hat)
            if name == "smi":
                design.w = design.w * np.nan
            return design

        monkeypatch.setattr(ev, "design_algorithm", nan_design)
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(TOY_SCENE)
        assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
        captured = capsys.readouterr()
        assert "error: smi failed 4/4 designs" in captured.err
        assert captured.out.splitlines()[3].split()[-1] == "4"  # the smi row's failure count
