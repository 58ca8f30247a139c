"""Command-line front end: parse a config, run one experiment, write results.

Outputs per experiment: ``<kind>.csv`` with (algorithm, x, metric, std, runs)
rows, one plot-ready two-column ``<kind>_<algorithm>.dat`` per algorithm, and
a summary table (final metric per algorithm) on stdout.

Exit status: 0 on success, 2 on configuration/validation errors, 3 when any
algorithm's failed designs exceed ``FAILURE_BUDGET`` of its designs.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import evaluation, storage
from .config_io import parse_config, parse_config_text

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
FAILURE_BUDGET = 0.01  # the share of an algorithm's designs that may fail


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stapbench",
        description="Synthesize an airborne-radar interference scene and benchmark "
        "space-time beamformers.",
    )
    parser.add_argument("--config", metavar="PATH", help="configuration file (defaults apply if omitted)")
    parser.add_argument("--experiment", dest="kind", metavar="KIND", help="override the experiment kind")
    parser.add_argument("--seed", type=int, metavar="U64", help="override the experiment seed")
    parser.add_argument("--runs", type=int, metavar="N", help="override the run count of the two SINR "
                        "sweeps; with any other kind it exits 2")
    parser.add_argument("--out", dest="out_dir", metavar="DIR", help="output directory")
    return parser


def run_experiment(cfg, target, spec):
    """Run the experiment ``spec`` describes; returns its ExperimentResult."""
    return getattr(evaluation, evaluation.RUNNERS[spec.kind])(cfg, target, spec)


def write_outputs(result, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    storage.write_csv(out / f"{result.kind}.csv", result.rows())
    for name, points in result.curves.items():
        xs, ys = [p.x for p in points], [p.value for p in points]
        storage.write_xy(out / f"{result.kind}_{name}.dat", xs, ys)


def print_summary(result, stream=None) -> None:
    stream = stream or sys.stdout
    print(f"experiment: {result.kind}", file=stream)
    print(f"{'algorithm':<12} {'final ' + result.metric_label:>18} {'failures':>9}", file=stream)
    for name, points in result.curves.items():
        fails = result.failures.get(name, 0)
        print(f"{name:<12} {points[-1].value:>18.6g} {fails:>9}", file=stream)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg, target, spec = parse_config(args.config) if args.config else parse_config_text("")
        # every flag but --config overrides the experiment field it is named for
        overrides = {
            key: value for key, value in vars(args).items() if key != "config" and value is not None
        }
        if overrides:
            spec = replace(spec, **overrides)
        if args.runs is not None and spec.kind not in ("sinr-vs-snapshots", "sinr-vs-doppler"):
            raise ValueError(f"--runs applies to the two SINR sweeps only, not to {spec.kind}")
        result = run_experiment(cfg, target, spec)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        write_outputs(result, spec.out_dir)
    except OSError as exc:
        print(f"error writing {spec.out_dir}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print_summary(result)

    total = result.designs
    exceeded = [(name, fails) for name, fails in result.failures.items() if fails > FAILURE_BUDGET * total]
    for name, fails in exceeded:
        print(f"error: {name} failed {fails}/{total} designs (budget {FAILURE_BUDGET:.0%})", file=sys.stderr)
    return EXIT_NUMERIC if exceeded else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
