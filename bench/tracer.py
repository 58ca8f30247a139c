"""Outside-in trace of one study, and the per-layer metrics derived from it.

Run as a script, this is the traced study: it imports `stapbench.cli`, wraps
every public function of the seven layer modules in a timing span, calls
`stapbench.cli.main(["--config", CONFIG])` exactly as the untraced study does,
and writes the spans and counters as JSON when the study ends:

    python bench/tracer.py SRC_DIR CONFIG SPANS_JSON INVOCATION_ID

Spans are kept in memory as (name, start, end, parent index, ok, invocation
id) and written out once. Counters are recorded at the same boundaries as the spans. Flop and
byte counters are computed from call sizes, not measured.
"""

import functools
import importlib
import inspect
import json
import math
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from workloads import ALL_ALGORITHMS

# module -> span-name prefix
LAYER_MODULES = {
    "cli": "cli",
    "config_io": "config_io",
    "scene": "scene",
    "beamformers": "bf",
    "evaluation": "evaluation",
    "linalg": "linalg",
    "storage": "storage",
}
BASIS_DESIGNS = ("krylov_basis", "evd_basis", "jio_design", "jidf_design", "sa_mvdr_weights")
SMALL_SOLVE = 16  # an hpd_solve of n <= 16 counts as small


class Tracer:
    """Spans and counters of one traced study."""

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans = []  # [name, start, end, parent index, ok, invocation]
        self.counters = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name, fn, on_call=None, on_return=None):
        """Wrap ``fn`` in a span; ``name`` may be a function of the call's args."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_name = name(args) if callable(name) else name
            with self._lock:
                index = len(self.spans)
                span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, False, self.invocation]
                self.spans.append(span)
                if on_call is not None:
                    on_call(self.counters, args, kwargs)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[4] = True
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if on_return is not None:
                with self._lock:
                    on_return(self.counters, args, result)
            return result

        return traced


def _count_solve(counters, args, kwargs):
    n = args[0].shape[0]
    rhs = args[1] if len(args) > 1 else kwargs["b"]
    columns = 1 if getattr(rhs, "ndim", 1) == 1 else rhs.shape[1]
    counters["linalg.hpd_solve.small_calls"] += n <= SMALL_SOLVE
    # complex Cholesky 4n^3/3 real flops, two triangular solves 8n^2 per column
    counters["linalg.hpd_solve.flops_computed"] += 4 * n**3 / 3 + 8 * n**2 * columns


def _count_draw(counters, args, kwargs):
    cov, count = args[0], args[1] if len(args) > 1 else kwargs["count"]
    # the complex128 normal draw and the coloured block, M x count each
    counters["scene.draw_bytes_computed"] += 2 * 16 * cov.size * count


def _count_mults(counters, args, weights):
    counters[f"design.{args[0]}.mults_computed"] += weights.multiplication_count


def _count_file(counters, args, result):
    counters["storage.bytes"] += Path(args[0]).stat().st_size


HOOKS = {
    "linalg.hpd_solve": {"on_call": _count_solve},
    "scene.draw_interference_block": {"on_call": _count_draw},
    "evaluation.design_algorithm": {"on_return": _count_mults},
    "storage.write_csv": {"on_return": _count_file},
    "storage.write_xy": {"on_return": _count_file},
}


def install(tracer: Tracer) -> None:
    """Replace every public layer function, wherever the package refers to it."""
    replacements = {}
    for module_name, prefix in LAYER_MODULES.items():
        module = importlib.import_module(f"stapbench.{module_name}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            name = f"{prefix}.{attr}"
            if name == "evaluation.design_algorithm":
                name = lambda args: f"design.{args[0]}"  # noqa: E731
            replacements[obj] = tracer.wrap(name, obj, **HOOKS.get(f"{prefix}.{attr}", {}))
    for module_name, module in list(sys.modules.items()):
        if module_name == "stapbench" or module_name.startswith("stapbench."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    setattr(module, attr, replacements[obj])
    cov_set = importlib.import_module("stapbench.scene").CovarianceSet
    cov_set.sampling_factor = tracer.wrap("scene.sampling_factor", cov_set.sampling_factor)


def traced_study(src_dir: str, config: str, spans_path: str, invocation: str) -> int:
    start = time.perf_counter()
    sys.path.insert(0, src_dir)
    cli = importlib.import_module("stapbench.cli")
    tracer = Tracer(invocation)
    tracer.counters["cli.import_s"] = time.perf_counter() - start
    install(tracer)
    try:
        status = cli.main(["--config", config])
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)
    return status


# ---- parent side: spans -> per-layer metrics ---------------------------------


def _percentile(values, q):
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_quantile(samples: int) -> float:
    """The highest percentile with at least ten samples beyond it, and never
    below the median: with fewer than twenty samples the tail is the median."""
    return max(0.5, math.floor(100 * (1 - 10 / samples)) / 100) if samples else 0.5


def layer_metrics(doc: dict) -> dict:
    """Per-layer metrics of one traced study, as {name: (value, unit)}.

    Times named `_s` are inclusive span time; `self_s` subtracts the time of
    child spans. A layer the study never entered reads 0.
    """
    spans, counters = doc["spans"], doc["counters"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, total, self_time, failed = defaultdict(int), defaultdict(float), defaultdict(float), defaultdict(int)
    durations = defaultdict(list)
    for i, (name, start, end, _, ok, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_time[name] += end - start - child_time[i]
        failed[name] += not ok
        if name.startswith("design."):
            durations[name].append(end - start)
    runner_self = sum(v for k, v in self_time.items() if k.startswith("evaluation.run_"))

    out = {
        "cli.import_s": (counters.get("cli.import_s", 0.0), "s"),
        "config_io.parse_s": (total["config_io.parse_config"], "s"),
        "scene.synth_s": (total["scene.total_covariance"], "s"),
        "scene.factor_s": (total["scene.sampling_factor"], "s"),
        "bf.ka_prior_s": (total["bf.ka_prior"], "s"),
        "scene.draw_calls": (calls["scene.draw_interference_block"], "count"),
        "scene.draw_s": (total["scene.draw_interference_block"], "s"),
        "scene.draw_bytes_computed": (int(counters.get("scene.draw_bytes_computed", 0)), "B"),
        "linalg.complex_standard_normal_s": (total["linalg.complex_standard_normal"], "s"),
    }
    for alg in ALL_ALGORITHMS:
        key = f"design.{alg}"
        times = durations[key]
        out[f"{key}.calls"] = (calls[key], "count")
        out[f"{key}.s"] = (total[key], "s")
        out[f"{key}.p50_ms"] = (1e3 * _percentile(times, 0.5) if times else 0.0, "ms")
        out[f"{key}.tail_ms"] = (1e3 * _percentile(times, tail_quantile(len(times))) if times else 0.0, "ms")
        out[f"{key}.failed"] = (failed[key], "count")
        out[f"{key}.mults_computed"] = (int(counters.get(f"{key}.mults_computed", 0)), "count")
    for fn in BASIS_DESIGNS:
        out[f"bf.{fn}_s"] = (total[f"bf.{fn}"], "s")
        out[f"bf.{fn}_calls"] = (calls[f"bf.{fn}"], "count")
    out.update({
        "linalg.hpd_solve.calls": (calls["linalg.hpd_solve"], "count"),
        "linalg.hpd_solve.self_s": (self_time["linalg.hpd_solve"], "s"),
        "linalg.hpd_solve.small_calls": (int(counters.get("linalg.hpd_solve.small_calls", 0)), "count"),
        "linalg.hpd_solve.flops_computed": (round(counters.get("linalg.hpd_solve.flops_computed", 0)), "flop"),
        "linalg.require_hermitian.calls": (calls["linalg.require_hermitian"], "count"),
        "linalg.require_hermitian.s": (total["linalg.require_hermitian"], "s"),
        "linalg.hermitian_evd.calls": (calls["linalg.hermitian_evd"], "count"),
        "linalg.hermitian_evd.s": (total["linalg.hermitian_evd"], "s"),
        "evaluation.sinr.calls": (calls["evaluation.sinr"], "count"),
        "evaluation.runner_self_s": (runner_self, "s"),
        "storage.write_s": (total["storage.write_csv"] + total["storage.write_xy"], "s"),
        "storage.bytes": (int(counters.get("storage.bytes", 0)), "B"),
        "trace.spans": (len(spans), "count"),
    })
    return out


def design_costs(metrics: dict, m: int) -> dict:
    """Mean design time and mean computed multiplication count per algorithm."""
    costs = {}
    for alg in ALL_ALGORITHMS:
        calls = metrics[f"design.{alg}.calls"][0]
        if calls:
            costs[alg] = {
                "m": m,
                "design_ms": 1e3 * metrics[f"design.{alg}.s"][0] / calls,
                "mults_computed": metrics[f"design.{alg}.mults_computed"][0] / calls,
            }
    return costs


def cost_model_lines(small: dict, large: dict) -> list:
    """Measured design time next to the computed multiplication count, with the
    scaling exponent of each fitted between the two problem sizes."""
    m_small, m_large = (next(iter(c.values()))["m"] for c in (small, large))
    lines = ["cost model (mults are computed from call sizes by evaluation.multiplication_count):",
             f"{'algorithm':<10} {f'ms@M={m_small}':>10} {f'ms@M={m_large}':>10} {'time exp':>9} "
             f"{f'mults@M={m_small}':>14} {f'mults@M={m_large}':>14} {'mults exp':>9}"]
    for alg in ALL_ALGORITHMS:
        if alg not in small or alg not in large:
            continue
        a, b = small[alg], large[alg]
        ratio = math.log(b["m"] / a["m"])
        t_exp = math.log(b["design_ms"] / a["design_ms"]) / ratio
        c_exp = math.log(b["mults_computed"] / a["mults_computed"]) / ratio
        lines.append(f"{alg:<10} {a['design_ms']:>10.3f} {b['design_ms']:>10.3f} {t_exp:>9.2f} "
                     f"{a['mults_computed']:>14.4g} {b['mults_computed']:>14.4g} {c_exp:>9.2f}")
    return lines


if __name__ == "__main__":
    sys.exit(traced_study(*sys.argv[1:5]))
