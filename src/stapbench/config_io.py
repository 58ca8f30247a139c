"""Plain-text configuration: scene parameters plus an experiment description.

Format: flat ``key = value`` lines for the scene, repeated ``[jammer]``
sections, an optional ``[target]`` section and an optional ``[experiment]``
section. ``#`` starts a comment. An empty file yields the standard scene
(450 MHz / 300 Hz / 75 m/s / 8x8 / CNR 40 dB, two 40 dB jammers) and the
default experiment. Unknown keys, and a key set twice in one section (each
``[jammer]`` is a section of its own), are rejected by name; parse errors
carry line numbers.
"""

from dataclasses import dataclass, fields
from typing import get_args, get_origin

from . import scene
from .evaluation import ALGORITHMS, RUNNERS, AlgorithmParams

__all__ = ["ConfigError", "ExperimentSpec", "parse_config", "parse_config_text", "serialize_config"]

EXPERIMENT_KINDS = tuple(RUNNERS)


class ConfigError(ValueError):
    """Configuration problem; the message names the offending key or line."""


@dataclass(frozen=True)
class ExperimentSpec(AlgorithmParams):
    """Which experiment to run, with what protocol parameters and, through
    :class:`AlgorithmParams`, with what design hyperparameters."""

    kind: str = "sinr-vs-snapshots"
    algorithms: tuple[str, ...] = ALGORITHMS
    runs: int = 10
    trials: int = 100000
    designs: int = 20
    k_max: int = 800
    k_grid: tuple[int, ...] | None = None
    k_train: int | None = None  # None -> per-kind default (100 doppler, 200 pd)
    snr_grid_db: tuple[float, ...] = tuple(float(v) for v in range(-6, 13))
    doppler_min_hz: float = -100.0
    doppler_max_hz: float = 100.0
    doppler_step_hz: float = 5.0
    pfa: float = 1e-3
    loading: float = 0.01
    m_grid: tuple[int, ...] = (32, 64, 128, 256)
    seed: int = 1234
    out_dir: str = "."
    failure_budget: float = 0.01

    def __post_init__(self):
        scene._require_finite(self, ConfigError)
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"kind must be one of {EXPERIMENT_KINDS}, got {self.kind!r}")
        if not self.algorithms:
            raise ConfigError("algorithms must be nonempty")
        if self.kind == "complexity" and set(self.algorithms) == {"optimal"}:
            raise ConfigError("algorithms must name more than optimal: complexity has no optimal curve")
        for i, name in enumerate(self.algorithms):
            if name not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {name!r} in algorithms list")
            if name in self.algorithms[:i]:
                raise ConfigError(f"algorithms names {name!r} twice")
        for key in ("runs", "trials", "designs", "k_max", "k_train", "rank", "branches", "interp_len", "iterations"):
            value = getattr(self, key)
            if value is not None and value < 1:
                raise ConfigError(f"{key} must be >= 1, got {value}")
        if self.kind == "pd-vs-snr" and self.trials < self.designs:
            raise ConfigError(f"trials must be >= designs, got trials {self.trials} < designs {self.designs}")
        if self.k_grid is not None and not (self.k_grid and all(1 <= k <= self.k_max for k in self.k_grid)):
            raise ConfigError(f"k_grid must be a nonempty list in [1, k_max={self.k_max}], got {self.k_grid}")
        if not self.snr_grid_db:
            raise ConfigError("snr_grid_db must be nonempty")
        if not self.m_grid or min(self.m_grid) < 1:
            raise ConfigError(f"m_grid must be nonempty with entries >= 1, got {self.m_grid}")
        if self.doppler_step_hz <= 0:
            raise ConfigError("doppler_step_hz must be positive")
        if self.doppler_min_hz > self.doppler_max_hz:
            raise ConfigError(
                "doppler_min_hz must be <= doppler_max_hz, "
                f"got {self.doppler_min_hz} > {self.doppler_max_hz}"
            )
        if not 0.0 < self.pfa <= 1.0:
            raise ConfigError(f"pfa must be in (0, 1], got {self.pfa}")
        if self.loading < 0.0:
            raise ConfigError(f"loading must be >= 0, got {self.loading}")
        if not 0.0 <= self.failure_budget <= 1.0:
            raise ConfigError(f"failure_budget must be in [0, 1], got {self.failure_budget}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.sa_penalty < 0.0:
            raise ConfigError(f"sa_penalty must be >= 0, got {self.sa_penalty}")
        if self.sa_epsilon <= 0.0:
            raise ConfigError(f"sa_epsilon must be > 0, got {self.sa_epsilon}")

    def doppler_grid(self) -> tuple:
        grid, value = [], self.doppler_min_hz
        while value <= self.doppler_max_hz + 1e-9:
            grid.append(round(value, 9))
            value += self.doppler_step_hz
        return tuple(grid)

    def effective_k_train(self) -> int:
        if self.k_train is not None:
            return self.k_train
        return 200 if self.kind == "pd-vs-snr" else 100


# section -> {key: type annotation of the dataclass field it sets}
_SECTION_KEYS = {
    None: {f.name: f.type for f in fields(scene.RadarConfig) if f.name != "jammers"},
    "jammer": {f.name: f.type for f in fields(scene.JammerSpec)},
    "target": {f.name: f.type for f in fields(scene.TargetSpec)},
    "experiment": {f.name: f.type for f in fields(ExperimentSpec)},
}


def _parse_value(annotation, raw: str, key: str, line: int):
    """Convert ``raw`` as the field annotation says: int, float or str, an
    optional one ('none' or 'auto' for None), or a comma-separated tuple."""
    options = get_args(annotation)
    if type(None) in options:
        if raw.lower() in ("none", "auto"):
            return None
        annotation = next(a for a in options if a is not type(None))
    if get_origin(annotation) is tuple:
        item = get_args(annotation)[0]
        parts = [part.strip() for part in raw.split(",")]
        return tuple(_parse_value(item, part, key, line) for part in parts if part)
    try:
        return annotation(raw)
    except ValueError:
        expected = "an integer" if annotation is int else "a number"
        raise ConfigError(f"line {line}: {key} expects {expected}, got {raw!r}") from None


def parse_config_text(text: str):
    """Parse configuration text into (RadarConfig, TargetSpec, ExperimentSpec)."""
    values: dict = {section: {} for section in _SECTION_KEYS}
    jammers: list = []
    jammers_cleared = False
    section = None

    def flush_jammer(line_no):
        if section == "jammer":
            missing = _SECTION_KEYS["jammer"].keys() - values["jammer"].keys()
            if missing:
                raise ConfigError(f"line {line_no}: [jammer] section missing {sorted(missing)}")
            try:
                jammers.append(scene.JammerSpec(**values["jammer"]))
            except ValueError as exc:
                raise ConfigError(f"line {line_no}: {exc}") from exc
            values["jammer"] = {}

    lines = text.splitlines()
    for line_no, raw_line in enumerate(lines, start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {line_no}: malformed section header {line!r}")
            flush_jammer(line_no)
            name = line[1:-1].strip().lower()
            if name not in _SECTION_KEYS:
                raise ConfigError(f"line {line_no}: unknown section [{name}]")
            section = name
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if section is None and key == "jammers":
            if raw.lower() != "none":
                raise ConfigError(f"line {line_no}: jammers accepts only 'none'; use [jammer] sections")
            jammers_cleared = True
            continue
        annotation = _SECTION_KEYS[section].get(key)
        if annotation is None:
            raise ConfigError(f"line {line_no}: unknown {section or 'scene'} key {key!r}")
        if key in values[section]:
            raise ConfigError(f"line {line_no}: {section or 'scene'} key {key!r} is set twice")
        values[section][key] = _parse_value(annotation, raw, key, line_no)
    flush_jammer(len(lines))

    if jammers or jammers_cleared:
        values[None]["jammers"] = tuple(jammers)
    try:
        cfg = scene.RadarConfig(**values[None])
        target = scene.TargetSpec(**values["target"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg, target, ExperimentSpec(**values["experiment"])


def parse_config(path):
    """Parse a configuration file; see :func:`parse_config_text`."""
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def _fmt_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return ", ".join(_fmt_value(v) for v in value)
    if isinstance(value, float):
        return format(value, ".17g")  # lossless float round-trip
    return str(value)


def _key_lines(obj) -> list:
    return [f"{f.name} = {_fmt_value(getattr(obj, f.name))}" for f in fields(obj) if f.name != "jammers"]


def serialize_config(cfg: scene.RadarConfig, target: scene.TargetSpec, spec: ExperimentSpec) -> str:
    """Render a configuration that parses back to identical structures."""
    out = ([] if cfg.jammers else ["jammers = none"]) + _key_lines(cfg)
    sections = [("jammer", jam) for jam in cfg.jammers] + [("target", target), ("experiment", spec)]
    for name, obj in sections:
        out += ["", f"[{name}]"] + _key_lines(obj)
    return "\n".join(out) + "\n"
