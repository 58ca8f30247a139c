"""Self-check of the benchmark harness, on its small-size studies.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def printed_metrics(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name, entry in result["metrics"].items():
        assert f"{name} = " in stdout and stdout.count(f"{name} = ") == 1
        assert next(line for line in lines if line.startswith(f"{name} = ")).endswith(" " + entry["unit"])
    return result["metrics"]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_by_name_with_its_unit(trace, section):
    proc = run_bench("snapshots-m64", trace)
    assert proc.returncode == 0, proc.stderr
    metrics = printed_metrics(proc.stdout)
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: entry["unit"] for name, entry in metrics.items()} == want
    assert all(math.isfinite(entry["value"]) for entry in metrics.values())


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("snapshots-m64", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def small_study(workload: str, out: Path):
    """Run a workload's small study once; returns its oracle and CSV text."""
    study = workloads.WORKLOADS[workload].study(small=True)
    config = out / "study.cfg"
    config.write_text(study.config_text(5, str(out)))
    subprocess.run([sys.executable, "-m", "stapbench.cli", "--config", str(config)],
                   cwd=ROOT / "src", check=True, capture_output=True, timeout=120)
    return gate.Oracle(study), (out / f"{study.kind}.csv").read_text()


@pytest.fixture(scope="module")
def snapshot_csv(tmp_path_factory):
    return small_study("snapshots-m64", tmp_path_factory.mktemp("study"))


def _edit(text: str, edit) -> str:
    header, *rows = text.strip().splitlines()
    fields = [row.split(",") for row in rows]
    return "\n".join([header] + [",".join(f) for f in edit(fields)]) + "\n"


def test_gate_passes_the_program_output(snapshot_csv):
    oracle, text = snapshot_csv
    assert oracle.check(text) == []


def test_gate_rejects_shifted_optimal(snapshot_csv):
    oracle, text = snapshot_csv

    def shift(fields):
        for f in fields:
            if f[0] == "optimal":
                f[2] = format(float(f[2]) + 0.1, ".9g")
        return fields

    assert any("optimal" in msg for msg in oracle.check(_edit(text, shift)))


def test_gate_rejects_nan_row(snapshot_csv):
    oracle, text = snapshot_csv

    def nan(fields):
        fields[3][2] = "nan"
        return fields

    assert any("non-finite" in msg for msg in oracle.check(_edit(text, nan)))


def test_gate_rejects_missing_row(snapshot_csv):
    oracle, text = snapshot_csv
    assert oracle.check(_edit(text, lambda fields: fields[:-1]))


def test_gate_rejects_smi_off_the_rmb_law(snapshot_csv):
    oracle, text = snapshot_csv

    def sink(fields):
        for f in fields:
            if f[0] == "smi":
                f[2] = format(float(f[2]) - 3.0, ".9g")
        return fields

    assert any("RMB" in msg for msg in oracle.check(_edit(text, sink)))


def test_gate_rejects_optimal_pd_off_the_closed_form(tmp_path):
    oracle, text = small_study("detection-m64", tmp_path)
    assert oracle.check(text) == []

    def lower(fields):
        for f in fields:
            if f[0] == "optimal":
                f[2] = format(float(f[2]) - 0.1, ".9g")
        return fields

    assert any("optimal Pd" in msg for msg in oracle.check(_edit(text, lower)))
