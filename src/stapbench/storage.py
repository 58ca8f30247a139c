"""File formats: CSV tables and plot data."""

from pathlib import Path

import numpy as np

__all__ = ["write_csv", "write_xy"]

CSV_HEADER = ("algorithm", "x_value", "metric", "std", "runs")


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".9g")


def write_csv(path, rows) -> None:
    """Write (algorithm, x, metric, std, runs) rows with a fixed header.

    Numeric fields carry nine significant digits; row order is exactly the
    iteration order of ``rows`` so output is deterministic.
    """
    lines = [",".join(CSV_HEADER)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_xy(path, xs, ys) -> None:
    """Two-column plot-ready data file."""
    lines = [f"{_fmt(x)} {_fmt(y)}" for x, y in zip(xs, ys)]
    Path(path).write_text("\n".join(lines) + "\n")
