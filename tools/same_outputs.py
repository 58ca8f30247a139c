"""Check that two stapbench source trees write the same bytes.

    python3 tools/same_outputs.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the `src/` directories of two checkouts. The
script runs `python -m stapbench.cli` from each on the same studies: the four
benchmark workloads at full size and seed 13 (config text from
bench/workloads.py, read only); the small `detection-m64` and `snapshots-m64`
studies at `loading = 0` with training sets below M, whose failing designs
reach the NaN-row path and exit 3; the small `detection-m64` study with all
eight algorithms, whose detector outputs are drawn jointly from one 8x8 law,
so a change to one design's weight moves every algorithm's row; the small
`snapshots-m64` study at `rank = 12` and at `rank = 16`, where `lr-jidf` keeps
2 of its 8 branches and then 1, whose interpolator taps reach past the array;
a `complexity` study at `m_grid = 4, 6, 9, 16`, below `rank` and `interp_len`,
where the sweep charges D, I and B' at the sizes they clamp to and `lr-jidf`
at fewer branches; and `--experiment KIND --seed 7` for every experiment kind,
with `--runs 2` for the two SINR sweeps (the other kinds reject the
flag): 14 studies. Each run has its own temporary directory.
The parent runs each study once, at OPENBLAS_NUM_THREADS=1; the change runs
it at =1 and =2, and both of its runs must write the parent's bytes. It
compares every output file, stdout, stderr and the exit status byte for byte,
prints each moved CSV field as config, threads, algorithm, x, column, old ->
new, and exits 1 if anything differs. After the cases it prints a summary:
the largest |old - new| of the moved CSV fields for each study, algorithm
and column, over both thread counts.

Standard library only. It writes nothing into either tree or into this
checkout: outputs go to a temporary directory and bytecode is not written.
"""

import csv
import difflib
import io
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

BENCH_SEED = 13
KINDS = ("sinr-vs-snapshots", "sinr-vs-doppler", "pd-vs-snr", "complexity")
RUNS_KINDS = KINDS[:2]  # the kinds that take --runs
THREADS = ("1", "2")
# small studies and the keys each one changes: designs that fail (no loading,
# training sets below M = 16); every algorithm's detector output in one
# joint draw; ranks at which M = 16 leaves lr-jidf 2 usable branches, and 1.
# COMPLEXITY_STUDY charges every design below rank = 6 and interp_len = 8,
# where D, I and lr-jidf's branch count B' clamp (B' = 1, 1, 2, 5); the
# default complexity grid starts at M = 32, where none does
SMALL_STUDIES = (
    ("detection-m64", {"loading": 0.0, "k_train": 8}),
    ("detection-m64", {"algorithms": workloads.ALL_ALGORITHMS}),
    ("snapshots-m64", {"loading": 0.0, "k_grid": (8, 16, 32, 64)}),
    ("snapshots-m64", {"rank": 12}),
    ("snapshots-m64", {"rank": 16}),
)
COMPLEXITY_STUDY = "[experiment]\nkind = complexity\nm_grid = 4, 6, 9, 16\nout_dir = out\n"


def studies():
    """(name, config text or None, CLI arguments) of every study compared."""
    for name, workload in workloads.WORKLOADS.items():
        yield name, workload.study(small=False).config_text(BENCH_SEED, "out"), ["--config", "study.cfg"]
    for name, keys in SMALL_STUDIES:
        small = workloads.WORKLOADS[name].study(small=True)
        study = replace(small, experiment=dict(small.experiment, **keys))
        label = f"{name} small, " + ", ".join(f"{key}={value}" for key, value in keys.items())
        yield label, study.config_text(BENCH_SEED, "out"), ["--config", "study.cfg"]
    yield "complexity, m_grid=4, 6, 9, 16", COMPLEXITY_STUDY, ["--config", "study.cfg"]
    for kind in KINDS:
        args = [kind, *(["--runs", "2"] if kind in RUNS_KINDS else []), "--seed", "7"]
        yield " ".join(args), None, ["--experiment", *args, "--out", "out"]


def run(src: Path, config: str | None, args: list, threads: str, workdir: Path):
    """Run the CLI from ``src`` in ``workdir``; returns (status, stdout, stderr, {file: bytes})."""
    workdir.mkdir()
    if config is not None:
        (workdir / "study.cfg").write_text(config)
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "stapbench.cli", *args], cwd=workdir, env=env,
                          capture_output=True)
    out = workdir / "out"
    files = {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    # a traceback names the tree it came from; the trees differ by path alone
    stderr = proc.stderr.replace(str(src).encode(), b"<src>")
    return proc.returncode, proc.stdout, stderr, files


def csv_moves(label: str, old: bytes, new: bytes) -> list:
    """One line per CSV field that differs, keyed by (algorithm, x)."""
    old_rows, new_rows = ([*csv.reader(io.StringIO(data.decode()))] for data in (old, new))
    header = old_rows[0]
    old_by_key = {tuple(row[:2]): row for row in old_rows[1:]}
    new_by_key = {tuple(row[:2]): row for row in new_rows[1:]}
    lines = [] if new_rows[0] == header else [f"{label}: header {header} -> {new_rows[0]}"]
    for key in [*old_by_key, *(k for k in new_by_key if k not in old_by_key)]:
        a, b = old_by_key.get(key), new_by_key.get(key)
        if a is None or b is None:
            lines.append(f"{label}, {key[0]}, {key[1]}: row only in the {'change' if a is None else 'parent'}")
            continue
        for column, x, y in zip(header[2:], a[2:], b[2:]):
            if x != y:
                lines.append(f"{label}, {key[0]}, {key[1]}, {column}: {x} -> {y}")
    return lines or [f"{label}: rows reordered, no field moved"]


def largest_moves(old: bytes, new: bytes, largest: dict, study: str) -> None:
    """Raise largest[(study, algorithm, column)] to the largest |old - new| of
    the numeric CSV fields that differ between two runs' files."""
    old_rows, new_rows = ([*csv.reader(io.StringIO(data.decode()))] for data in (old, new))
    new_by_key = {tuple(row[:2]): row for row in new_rows[1:]}
    for a in old_rows[1:]:
        b = new_by_key.get(tuple(a[:2]))
        for column, x, y in zip(old_rows[0][2:], a[2:], b[2:] if b else ()):
            if x != y:
                key = (study, a[0], column)
                delta = abs(float(y) - float(x))
                if not delta <= largest.get(key, 0.0):  # a NaN delta sticks
                    largest[key] = delta


def compare(label: str, old, new) -> list:
    """Every difference between two runs' (status, stdout, stderr, files)."""
    lines = []
    if old[0] != new[0]:
        lines.append(f"{label}: exit status {old[0]} -> {new[0]}")
    for stream, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
        if a != b:
            diff = difflib.unified_diff(a.decode(errors="replace").splitlines(),
                                        b.decode(errors="replace").splitlines(), "parent", "change", lineterm="")
            lines.append(f"{label}: {stream} differs\n" + "\n".join(diff))
    for name in sorted(old[3].keys() | new[3].keys()):
        a, b = old[3].get(name), new[3].get(name)
        if a == b:
            continue
        if a is None or b is None:
            lines.append(f"{label}: {name} only in the {'change' if a is None else 'parent'}")
        elif name.endswith(".csv"):
            lines += csv_moves(label, a, b)
        else:
            lines.append(f"{label}: {name} differs")
    return lines


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change = (Path(p).resolve() for p in argv)
    for src in (parent, change):
        if not (src / "stapbench" / "cli.py").is_file():
            print(f"error: no stapbench sources under {src}", file=sys.stderr)
            return 2
    differences = cases = 0
    largest = {}
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        for index, (name, config, args) in enumerate(studies()):
            old = run(parent, config, args, "1", Path(tmp) / f"{index}-parent")
            for threads in THREADS:
                label = f"{name}, threads={threads}"
                new = run(change, config, args, threads, Path(tmp) / f"{index}-{threads}-change")
                lines = compare(label, old, new)
                cases += 1
                differences += bool(lines)
                files = len(old[3].keys() | new[3].keys())
                print(f"{label}: exit {old[0]}, {files} files, " + ("DIFFERS" if lines else "same bytes"),
                      flush=True)
                for line in lines:
                    print("  " + line)
                for file in sorted(old[3].keys() & new[3].keys()):
                    if file.endswith(".csv") and old[3][file] != new[3][file]:
                        largest_moves(old[3][file], new[3][file], largest, name)
    if largest:
        print("largest |old - new| by study, algorithm and column:")
        for (study, algorithm, column), delta in largest.items():
            print(f"  {study}, {algorithm}, {column}: {delta:.3g}")
    print(f"{cases - differences}/{cases} cases byte-identical")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
