"""stapbench benchmark: the cost of a finished study, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--small]

Each workload is a generated config file (see workloads.py), with the seed
written into it. With `--trace 0` the benchmark runs that study as one fresh
`python -m stapbench.cli --config FILE` process at a time, in a closed loop
with a single client, for about S seconds, and reports the end-to-end
metrics as medians over the studies. Set-up is timed separately, in its own
fresh interpreter (setup_probe.py). With `--trace 1` it runs untraced studies
for S/2 seconds and then one traced study (tracer.py), and reports the
per-layer metrics and the tracing overhead.

The parent environment passes through unchanged: the benchmark sets no BLAS
or worker thread count. Every study's CSV must pass the correctness gate
(gate.py) and be byte-identical to the first study's; a study that fails is
counted as failed, never as slow. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Run records,
spans and CSVs go to `.bench_out/` at the root of the checkout.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import gate
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_out"

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "designs_per_s": "1/s",
    "trials_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}
SETUP_REPEATS = 5
MIN_INVOCATIONS = 2
RUN_DEADLINE_S = 150.0  # the whole run must end well within 180 s


@dataclass
class Invocation:
    """One run of the program on the study, and what the gate made of it."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    status: int
    csv_sha256: str | None
    failures: list = field(default_factory=list)
    designs: int = 0
    samples: int = 0
    samples_attempted: int = 0


def spawn(argv, cwd, timeout_s, stderr_path, capture=False):
    """Run one child to completion; returns (wall s, rusage, exit code, stdout)."""
    out = subprocess.PIPE if capture else subprocess.DEVNULL
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
    killer = threading.Timer(timeout_s, proc.kill)
    killer.start()
    try:
        stdout = proc.stdout.read() if capture else b""
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        if proc.stdout:
            proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, proc.returncode, stdout.decode()


class Bench:
    def __init__(self, workload: workloads.Workload, seed: int, small: bool, trace: int):
        self.workload = workload
        self.study = workload.study(small)
        self.oracle = gate.Oracle(self.study)
        self.started = time.perf_counter()
        self.dir = WORK / f"{workload.name}{'-small' if small else ''}-seed{seed}-trace{trace}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.out_dir = self.dir / "out"
        self.config = self.dir / "study.cfg"
        self.config.write_text(self.study.config_text(seed, str(self.out_dir)))
        self.csv = self.out_dir / f"{self.study.kind}.csv"
        self.invocations: list[Invocation] = []

    def time_left(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def probe_setup(self, env: bool = False):
        argv = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(self.config)]
        wall, _, code, stdout = spawn(argv + (["--env"] if env else []), ROOT,
                                      self.time_left(), self.dir / "setup.err", capture=env)
        if code != 0:
            raise RuntimeError(f"setup probe exited {code}: {_tail(self.dir / 'setup.err')}")
        return json.loads(stdout.strip().splitlines()[-1]) if env else wall

    def invoke(self, traced_spans: Path | None = None) -> Invocation:
        if self.csv.exists():
            self.csv.unlink()
        if traced_spans is None:
            argv = [sys.executable, "-m", "stapbench.cli", "--config", str(self.config)]
        else:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(SRC), str(self.config), str(traced_spans),
                    f"{self.dir.name}-invocation{len(self.invocations)}"]
        wall, usage, code, _ = spawn(argv, SRC, max(self.time_left(), 1.0), self.dir / "study.err")
        text = self.csv.read_text() if self.csv.exists() else ""
        inv = Invocation(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, code,
                         hashlib.sha256(text.encode()).hexdigest() if text else None)
        if code != 0:
            inv.failures.append(f"exit status {code}: {_tail(self.dir / 'study.err')}")
        else:
            inv.failures += self.oracle.check(text)
        reference = next((i.csv_sha256 for i in self.invocations if not i.failures), None)
        if not inv.failures and reference is not None and inv.csv_sha256 != reference:
            inv.failures.append(f"CSV sha256 {inv.csv_sha256} differs from the first invocation's {reference}")
        self._count_work(inv, text)
        self.invocations.append(inv)
        return inv

    def _count_work(self, inv: Invocation, text: str) -> None:
        grid_points = len(self.study.algorithms) * len(self.study.x_grid())
        per_point = self.study.samples_per_point()
        inv.samples_attempted = grid_points * per_point
        if inv.failures:
            return  # a failed invocation counts in full as failed work
        rows = gate.read_rows(text)
        inv.samples = sum(n for *_, n in rows)
        if self.study.kind == "pd-vs-snr":
            first = {a: n for a, _, _, _, n in reversed(rows)}
            designs = self.study.experiment["designs"]
            inv.designs = sum(round(designs * n / per_point) for n in first.values())
        else:
            inv.designs = inv.samples  # one SINR score per completed design

    def closed_loop(self, seconds: float) -> None:
        start = time.perf_counter()
        while True:
            self.invoke()
            elapsed = time.perf_counter() - start
            typical = statistics.median(i.wall_s for i in self.invocations)
            if len(self.invocations) >= MIN_INVOCATIONS and elapsed + typical > seconds:
                return
            if typical > self.time_left():
                return

    def passing(self) -> list:
        good = [s for s in self.invocations if not s.failures]
        return good or self.invocations

    def end_to_end(self, setup_walls: list) -> dict:
        good = self.passing()
        done = sum(s.samples for s in self.invocations)
        attempted = sum(s.samples_attempted for s in self.invocations)
        values = {
            "wall_s": statistics.median(s.wall_s for s in good),
            "setup_s": statistics.median(setup_walls),
            "designs_per_s": statistics.median(s.designs / s.wall_s for s in good),
            "trials_per_s": statistics.median(s.samples / s.wall_s for s in good),
            "cpu_s": statistics.median(s.cpu_s for s in good),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in good),
            "ok_share": done / attempted if attempted else 0.0,
        }
        return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def _tail(path: Path, lines: int = 5) -> str:
    try:
        return " | ".join(path.read_text(errors="replace").strip().splitlines()[-lines:])
    except OSError:
        return ""


def _git_state() -> dict:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
            return {"git_sha": None, "git_dirty": None}
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True,
                               timeout=10)
        return {"git_sha": lines[1], "git_dirty": bool(dirty.stdout.strip())}
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": None, "git_dirty": None}


def environment(bench: Bench) -> dict:
    """What this result depends on besides the code; recorded, never set."""
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        **_git_state(),
    }
    env.update(bench.probe_setup(env=True))
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny studies, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "stapbench" / "cli.py").is_file():
        print(f"error: no stapbench sources under {SRC}", file=sys.stderr)
        return 2

    bench = Bench(workloads.WORKLOADS[args.workload], args.seed, args.small, args.trace)
    env = environment(bench)
    print("env: " + json.dumps(env))
    record = {"workload": args.workload, "seed": args.seed, "small": args.small, "trace": args.trace,
              "env": env}
    if args.trace:
        bench.closed_loop(args.seconds / 2)
        untraced = statistics.median(s.wall_s for s in bench.passing())
        spans = bench.dir / "spans.json"
        spans.unlink(missing_ok=True)
        traced = bench.invoke(traced_spans=spans)
        metrics = tracer.layer_metrics(json.loads(spans.read_text())) if spans.exists() else {}
        metrics["trace.overhead_s"] = (traced.wall_s - untraced, "s")
        _cost_model(bench, metrics, args.small)
    else:
        setup_walls = [bench.probe_setup() for _ in range(SETUP_REPEATS)]
        bench.closed_loop(args.seconds)
        metrics = bench.end_to_end(setup_walls)
        record["setup_walls_s"] = setup_walls

    failed = sum(1 for s in bench.invocations if s.failures)
    for i, s in enumerate(bench.invocations):
        verdict = "pass" if not s.failures else "FAIL " + "; ".join(s.failures[:3])
        print(f"invocation {i}: {s.wall_s:.3f} s, sha256 {s.csv_sha256}, gate {verdict}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.9g} {unit}")
    record.update(invocations=[asdict(s) for s in bench.invocations],
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    (bench.dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    result = {"correct": failed == 0, "attempted": len(bench.invocations), "failed": failed,
              "metrics": record["metrics"]}
    print(json.dumps(result))
    return 0


def _cost_model(bench: Bench, metrics: dict, small: bool) -> None:
    """Keep this snapshot workload's design costs; print the model once both sizes exist."""
    if bench.study.kind != "sinr-vs-snapshots":
        return
    suffix = "-small" if small else ""
    costs_dir = WORK / "cost"
    costs_dir.mkdir(exist_ok=True)
    (costs_dir / f"{bench.workload.name}{suffix}.json").write_text(
        json.dumps(tracer.design_costs(metrics, bench.study.m)))
    pair = [costs_dir / f"snapshots-m64{suffix}.json", costs_dir / f"snapshots-m256{suffix}.json"]
    if all(p.exists() for p in pair):
        small_m, large_m = (json.loads(p.read_text()) for p in pair)
        print("\n".join(tracer.cost_model_lines(small_m, large_m)))


if __name__ == "__main__":
    sys.exit(main())
