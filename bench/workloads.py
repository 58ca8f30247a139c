"""The benchmark's workloads, written out as stapbench config files.

Every scene parameter is spelled out in the generated file, so the program
sees one complete study and the correctness gate can rebuild the same scene
on its own without relying on the program's defaults.
"""

from dataclasses import dataclass, field

ALL_ALGORITHMS = ("optimal", "smi", "lr-evd", "lr-krylov", "lr-jio", "lr-jidf", "sa-mvdr", "ka-mvdr")

# The standard scene: 450 MHz, 300 Hz PRF, 75 m/s, CNR 40 dB, two 40 dB jammers.
STANDARD_SCENE = {
    "carrier_frequency_hz": 450e6,
    "prf_hz": 300.0,
    "platform_velocity_mps": 75.0,
    "num_sensors": 8,
    "num_pulses": 8,
    "cnr_db": 40.0,
    "noise_power": 1.0,
    "clutter_patches": 361,
}
STANDARD_JAMMERS = ((-45.0, 40.0), (60.0, 40.0))
STANDARD_TARGET = {"azimuth_deg": 0.0, "doppler_hz": 100.0, "snr_db": 10.0}


def _snr_grid(low: float, high: float, count: int) -> tuple:
    step = (high - low) / (count - 1)
    return tuple(round(low + i * step, 6) for i in range(count))


@dataclass(frozen=True)
class Workload:
    """A named study at full size, and a small size for the benchmark's own tests."""

    name: str
    why: str
    kind: str
    experiment: dict
    small_experiment: dict
    scene: dict = field(default_factory=dict)
    small_scene: dict = field(default_factory=lambda: {"num_sensors": 4, "num_pulses": 4})

    def study(self, small: bool) -> "Study":
        scene = dict(STANDARD_SCENE, **(self.small_scene if small else self.scene))
        experiment = self.small_experiment if small else self.experiment
        return Study(self.kind, scene, STANDARD_JAMMERS, dict(STANDARD_TARGET), dict(experiment))


@dataclass(frozen=True)
class Study:
    """One fully specified study: what the config file says, as data."""

    kind: str
    scene: dict
    jammers: tuple
    target: dict
    experiment: dict

    @property
    def m(self) -> int:
        return self.scene["num_sensors"] * self.scene["num_pulses"]

    @property
    def algorithms(self) -> tuple:
        return self.experiment["algorithms"]

    def x_grid(self) -> tuple:
        """The grid points the CSV must hold, in order."""
        exp = self.experiment
        if self.kind == "sinr-vs-snapshots":
            return tuple(float(k) for k in exp["k_grid"])
        if self.kind == "sinr-vs-doppler":
            count = round((exp["doppler_max_hz"] - exp["doppler_min_hz"]) / exp["doppler_step_hz"]) + 1
            return tuple(exp["doppler_min_hz"] + i * exp["doppler_step_hz"] for i in range(count))
        return tuple(float(v) for v in exp["snr_grid_db"])

    def samples_per_point(self) -> int:
        """The CSV `runs` value of a point at which nothing failed."""
        return self.experiment["trials" if self.kind == "pd-vs-snr" else "runs"]

    def config_text(self, seed: int, out_dir: str) -> str:
        lines = ["# generated by bench/workloads.py"]
        lines += [f"{key} = {_fmt(value)}" for key, value in self.scene.items()]
        for azimuth, jnr in self.jammers:
            lines += ["", "[jammer]", f"azimuth_deg = {_fmt(azimuth)}", f"jnr_db = {_fmt(jnr)}"]
        lines += ["", "[target]"] + [f"{key} = {_fmt(value)}" for key, value in self.target.items()]
        lines += ["", "[experiment]", f"kind = {self.kind}", f"seed = {seed}", f"out_dir = {out_dir}"]
        lines += [f"{key} = {_fmt(value)}" for key, value in self.experiment.items()]
        return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "snapshots-m64",
            "M=64 training-size sweep: design layer dominates, many small JIDF solves, "
            "so per-call overhead in hpd_solve and validation shows",
            "sinr-vs-snapshots",
            {"algorithms": ALL_ALGORITHMS, "k_max": 800, "k_grid": (25, 50, 100, 200, 400, 800),
             "runs": 2, "loading": 0.01},
            {"algorithms": ALL_ALGORITHMS, "k_max": 64, "k_grid": (8, 16, 32, 64),
             "runs": 2, "loading": 0.01},
        ),
        Workload(
            "doppler-m64",
            "41 Doppler bins on one sample covariance per run: shows factor-once-solve-many, "
            "while snapshot draws are negligible",
            "sinr-vs-doppler",
            {"algorithms": ALL_ALGORITHMS, "doppler_min_hz": -100.0, "doppler_max_hz": 100.0,
             "doppler_step_hz": 5.0, "k_train": 100, "runs": 1, "loading": 0.01},
            {"algorithms": ALL_ALGORITHMS, "doppler_min_hz": -100.0, "doppler_max_hz": 100.0,
             "doppler_step_hz": 50.0, "k_train": 32, "runs": 1, "loading": 0.01},
        ),
        Workload(
            "detection-m64",
            "1e5-trial Pd sweep: snapshot draws and the scoring loop dominate and only 80 "
            "designs run, so a design-layer change should not move it",
            "pd-vs-snr",
            {"algorithms": ("optimal", "smi", "lr-jio", "lr-jidf"), "snr_grid_db": _snr_grid(-4, 40, 46),
             "k_train": 200, "trials": 100000, "designs": 20, "pfa": 0.001, "loading": 0.01},
            {"algorithms": ("optimal", "smi", "lr-jio", "lr-jidf"), "snr_grid_db": _snr_grid(-4, 40, 5),
             "k_train": 32, "trials": 2000, "designs": 4, "pfa": 0.001, "loading": 0.01},
        ),
        Workload(
            "snapshots-m256",
            "M=256 training-size sweep: arithmetic (eigh, Cholesky, Krylov, JIO) dominates "
            "and per-call overhead is small",
            "sinr-vs-snapshots",
            {"algorithms": ALL_ALGORITHMS, "k_max": 1024, "k_grid": (128, 256, 512, 1024),
             "runs": 1, "loading": 0.01},
            {"algorithms": ALL_ALGORITHMS, "k_max": 100, "k_grid": (25, 50, 100),
             "runs": 1, "loading": 0.01},
            scene={"num_sensors": 16, "num_pulses": 16},
            small_scene={"num_sensors": 5, "num_pulses": 5},
        ),
    )
}
