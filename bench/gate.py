"""Correctness gate for one study's CSV, checked against closed forms.

The gate rebuilds the interference covariance from the study's scene with
plain numpy, independently of the program, and checks:

* one finite row per (algorithm, grid point), in order;
* `optimal` equals the clairvoyant SINR 10*log10(xi*M*s^H R^-1 s);
* `smi` at K >= 2M lies within a statistical window of the
  Reed-Mallett-Brennan loss law (K+2-M)/(K+1) (IEEE TAES 1974);
* the empirical Pd of `optimal` lies within a binomial bound of the analytic
  pfa^(1/(1+SINR)) of a square-law detector on a Gaussian-amplitude target.
"""

import csv
import io
import math

import numpy as np

SPEED_OF_LIGHT = 299792458.0
OPTIMAL_TOL_DB = 1e-6  # the CSV keeps nine significant digits
PD_SIGMAS = 5.0
RMB_SIGMAS = 5.0
RMB_BIAS_DB = 0.1  # diagonal loading and the mean of dB against dB of the mean


def interference_covariance(study) -> np.ndarray:
    """Clutter ridge plus barrage jammers plus white noise, sensor-major order."""
    sc = study.scene
    n, j = sc["num_sensors"], sc["num_pulses"]
    noise = sc["noise_power"]
    wavelength = SPEED_OF_LIGHT / sc["carrier_frequency_hz"]
    spacing = wavelength / 2
    slope = 2 * sc["platform_velocity_mps"] / (spacing * sc["prf_hz"])
    patches = sc["clutter_patches"]
    az = np.deg2rad(-90.0 + 180.0 * (np.arange(patches) + 0.5) / patches)
    spatial = spacing / wavelength * np.sin(az)
    u = np.stack([np.kron(np.exp(-2j * np.pi * np.arange(n) * f),
                          np.exp(-2j * np.pi * np.arange(j) * slope * f)) for f in spatial], axis=1)
    r = noise * 10 ** (sc["cnr_db"] / 10) / patches * (u @ u.conj().T)
    for azimuth, jnr in study.jammers:
        b = np.exp(-2j * np.pi * np.arange(n) * spacing / wavelength * np.sin(np.deg2rad(azimuth)))
        r = r + noise * 10 ** (jnr / 10) * np.kron(np.outer(b, b.conj()), np.eye(j))
    return r + noise * np.eye(n * j)


def clairvoyant_sinr_linear(study, r: np.ndarray, doppler_hz: float, snr_db: float) -> float:
    sc = study.scene
    n, j = sc["num_sensors"], sc["num_pulses"]
    spatial = 0.5 * np.sin(np.deg2rad(study.target["azimuth_deg"]))
    temporal = doppler_hz / sc["prf_hz"]
    s = np.kron(np.exp(-2j * np.pi * np.arange(n) * spatial),
                np.exp(-2j * np.pi * np.arange(j) * temporal)) / math.sqrt(n * j)
    xi = sc["noise_power"] * 10 ** (snr_db / 10)
    return xi * n * j * float((s.conj() @ np.linalg.solve(r, s)).real)


def read_rows(text: str) -> list:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != ["algorithm", "x_value", "metric", "std", "runs"]:
        raise ValueError(f"unexpected CSV header {header}")
    return [(a, float(x), float(v), float(sd), int(n)) for a, x, v, sd, n in reader]


class Oracle:
    """Expected values for one study, computed once and reused per invocation."""

    def __init__(self, study):
        self.study = study
        self.grid = study.x_grid()
        r = interference_covariance(study)
        tgt = study.target
        if study.kind == "sinr-vs-snapshots":
            lin = clairvoyant_sinr_linear(study, r, tgt["doppler_hz"], tgt["snr_db"])
            self.optimal = [10 * math.log10(lin)] * len(self.grid)
        elif study.kind == "sinr-vs-doppler":
            self.optimal = [10 * math.log10(clairvoyant_sinr_linear(study, r, fd, tgt["snr_db"]))
                            for fd in self.grid]
        else:
            pfa = study.experiment["pfa"]
            self.optimal = [pfa ** (1 / (1 + clairvoyant_sinr_linear(study, r, tgt["doppler_hz"], snr)))
                            for snr in self.grid]

    def check(self, text: str) -> list:
        """Failures of the gate on one CSV, as messages; empty when it passes."""
        try:
            rows = read_rows(text)
        except (ValueError, StopIteration) as exc:
            return [f"unreadable CSV: {exc}"]
        study = self.study
        expected = [(a, x) for a in study.algorithms for x in self.grid]
        got = [(a, x) for a, x, _, _, _ in rows]
        if len(got) != len(expected) or any(
            ga != ea or abs(gx - ex) > 1e-6 * max(1.0, abs(ex)) for (ga, gx), (ea, ex) in zip(got, expected)
        ):
            return [f"CSV rows {len(got)} do not match the expected {len(expected)} (algorithm, x) pairs"]
        failures = [f"non-finite row {a} x={x}" for a, x, v, sd, _ in rows
                    if not (math.isfinite(v) and math.isfinite(sd))]
        if failures:
            return failures
        curves = {}
        for a, _, v, _, n in rows:
            curves.setdefault(a, []).append((v, n))
        if "optimal" in curves:
            failures += self._check_optimal(curves["optimal"])
        if study.kind == "sinr-vs-snapshots" and "smi" in curves and "optimal" in curves:
            failures += self._check_rmb(curves["smi"])
        return failures

    def _check_optimal(self, curve) -> list:
        out = []
        for x, (value, n), want in zip(self.grid, curve, self.optimal):
            if self.study.kind == "pd-vs-snr":
                tol = PD_SIGMAS * math.sqrt(want * (1 - want) / n) + 1 / n
                what = "Pd"
            else:
                tol = OPTIMAL_TOL_DB
                what = "SINR dB"
            if abs(value - want) > tol:
                out.append(f"optimal {what} at x={x:g} is {value:.9g}, closed form {want:.9g} (tol {tol:.2g})")
        return out

    def _check_rmb(self, curve) -> list:
        out = []
        m = self.study.m
        for k, (value, n), opt in zip(self.grid, curve, self.optimal):
            if k < 2 * m:
                continue
            a, b = k + 2 - m, m - 1  # normalized SMI SINR ~ Beta(a, b)
            mean = a / (a + b)
            sd_db = 10 / math.log(10) * math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1))) / mean
            window = RMB_SIGMAS * sd_db / math.sqrt(max(n, 1)) + RMB_BIAS_DB
            loss, law = value - opt, 10 * math.log10(mean)
            if abs(loss - law) > window:
                out.append(f"smi loss at K={k:g} is {loss:.3f} dB, RMB law {law:.3f} dB (window {window:.3f})")
        return out
