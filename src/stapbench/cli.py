"""Command-line front end: parse a config, run one experiment, write results.

Outputs per experiment: ``<kind>.csv`` with (algorithm, x, metric, std, runs)
rows, one plot-ready two-column ``<kind>_<algorithm>.dat`` per algorithm, and
a summary table (final metric per algorithm) on stdout.

Exit status: 0 on success, 2 on configuration/validation errors, 3 when any
algorithm's failed-design count exceeds the configured failure budget.
"""

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import evaluation, scene, storage
from .config_io import ExperimentSpec, parse_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stapbench",
        description="Synthesize an airborne-radar interference scene and benchmark "
        "space-time beamformers.",
    )
    parser.add_argument("--config", metavar="PATH", help="configuration file (defaults apply if omitted)")
    parser.add_argument("--experiment", dest="kind", metavar="KIND", help="override the experiment kind")
    parser.add_argument("--seed", type=int, metavar="U64", help="override the master seed")
    parser.add_argument("--runs", type=int, metavar="N", help="override the Monte-Carlo run count")
    parser.add_argument("--out", dest="out_dir", metavar="DIR", help="output directory")
    return parser


def run_experiment(cfg, target, spec: ExperimentSpec):
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
        if args.config:
            cfg, target, spec = parse_config(args.config)
        else:
            cfg, target, spec = scene.RadarConfig(), scene.TargetSpec(), ExperimentSpec()
        # every flag but --config overrides the experiment field it is named for
        overrides = {
            key: value for key, value in vars(args).items() if key != "config" and value is not None
        }
        if args.seed is None and spec.seed is None and os.environ.get("STAP_BENCH_SEED"):
            overrides["seed"] = int(os.environ["STAP_BENCH_SEED"])
        if overrides:
            spec = replace(spec, **overrides)
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

    budget_exceeded = []
    for name, fail_count in result.failures.items():
        total = result.designs.get(name, 0)
        if total and fail_count > spec.failure_budget * total:
            budget_exceeded.append((name, fail_count, total))
    if budget_exceeded:
        for name, fail_count, total in budget_exceeded:
            print(
                f"error: {name} failed {fail_count}/{total} designs "
                f"(budget {spec.failure_budget:.0%})",
                file=sys.stderr,
            )
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
