"""Interference-scene synthesis for a pulsed-Doppler airborne array radar.

Builds the space-time steering vectors and the clutter / jammer / noise
covariance components for a sideway-looking uniform linear array, and draws
snapshot realizations under the target-absent and target-present hypotheses.

Conventions, fixed once here and relied on everywhere else:

* N sensors, J pulses, M = J*N; a snapshot stacks sensor-major, i.e. entry
  n*J + j is sensor n at pulse j (spatial (x) temporal Kronecker order).
* Normalized spatial frequency of an azimuth angle: (d/lambda)*sin(az), with
  elevation folded flat (the platform height is retained in the config but
  unused under this approximation).
* Clutter ridge: Doppler locked to angle through beta = 2*v/(d*prf).
* SNR / CNR / JNR are per element, referenced to the noise power.
* Steering vectors returned by :func:`target_steering` are unit-energy; the
  target power enters at snapshot synthesis as the amplitude sqrt(xi*M), so
  the distortionless constraint w^H s = 1 stays scale-free.
"""

import math
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import linalg

__all__ = [
    "SPEED_OF_LIGHT",
    "JammerSpec",
    "TargetSpec",
    "RadarConfig",
    "CovarianceSet",
    "spatial_steering",
    "temporal_steering",
    "space_time_steering",
    "target_steering",
    "target_power",
    "clutter_covariance",
    "jammer_covariance",
    "noise_covariance",
    "total_covariance",
    "draw_interference_block",
    "draw_target_block",
    "sample_covariance",
]

SPEED_OF_LIGHT = 299792458.0


def _require_finite(spec, error=ValueError) -> None:
    """Raise ``error``, naming the field, if a float field of a dataclass, or a
    float entry of one of its tuple fields, is NaN or infinite."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, float) and not math.isfinite(item):
                raise error(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class JammerSpec:
    """A barrage-noise jammer: azimuth and per-element power over noise (dB)."""

    azimuth_deg: float
    jnr_db: float

    def __post_init__(self):
        _require_finite(self)
        if not -90.0 <= self.azimuth_deg <= 90.0:
            raise ValueError(f"jammer azimuth_deg must be in [-90, 90], got {self.azimuth_deg}")


@dataclass(frozen=True)
class TargetSpec:
    """Target look direction, Doppler and per-element power over noise (dB)."""

    azimuth_deg: float = 0.0
    doppler_hz: float = 100.0
    snr_db: float = 10.0

    def __post_init__(self):
        _require_finite(self)


_TABLE_JAMMERS = (JammerSpec(-45.0, 40.0), JammerSpec(60.0, 40.0))


@dataclass(frozen=True)
class RadarConfig:
    """Platform, array, waveform and interference-scene parameters.

    Defaults reproduce the standard simulation scene: 450 MHz carrier,
    300 Hz PRF, 75 m/s platform, 8 sensors x 8 pulses, CNR 40 dB, two
    40 dB jammers at -45 and +60 degrees.
    """

    carrier_frequency_hz: float = 450e6
    prf_hz: float = 300.0
    platform_velocity_mps: float = 75.0
    platform_height_m: float = 9000.0
    num_sensors: int = 8
    num_pulses: int = 8
    element_spacing_m: float | None = None  # None -> half wavelength
    cnr_db: float | None = 40.0  # None disables clutter entirely
    noise_power: float = 1.0
    jammers: tuple[JammerSpec, ...] = _TABLE_JAMMERS
    clutter_patches: int = 361
    range_ambiguities: int = 1
    master_seed: int = 1234

    def __post_init__(self):
        _require_finite(self)
        if self.num_sensors < 1:
            raise ValueError(f"num_sensors must be >= 1, got {self.num_sensors}")
        if self.num_pulses < 1:
            raise ValueError(f"num_pulses must be >= 1, got {self.num_pulses}")
        if self.carrier_frequency_hz <= 0:
            raise ValueError("carrier_frequency_hz must be positive")
        if self.prf_hz <= 0:
            raise ValueError("prf_hz must be positive")
        if self.element_spacing_m is not None and self.element_spacing_m <= 0:
            raise ValueError("element_spacing_m must be positive")
        if self.noise_power <= 0:
            raise ValueError("noise_power must be positive")
        if self.clutter_patches < 1:
            raise ValueError(f"clutter_patches must be >= 1, got {self.clutter_patches}")
        if self.range_ambiguities < 1:
            raise ValueError(f"range_ambiguities must be >= 1, got {self.range_ambiguities}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency_hz

    @property
    def spacing_m(self) -> float:
        return self.element_spacing_m if self.element_spacing_m is not None else 0.5 * self.wavelength_m

    @property
    def size(self) -> int:
        """Space-time dimension M = J*N."""
        return self.num_pulses * self.num_sensors

    @property
    def clutter_slope(self) -> float:
        """Ridge slope beta = 2*v/(d*prf) tying clutter Doppler to angle."""
        return 2.0 * self.platform_velocity_mps / (self.spacing_m * self.prf_hz)

    def spatial_frequency(self, azimuth_deg: float) -> float:
        return self.spacing_m / self.wavelength_m * np.sin(np.deg2rad(azimuth_deg))


def spatial_steering(spatial_freq: float, num_sensors: int) -> np.ndarray:
    """Array phase ramp exp(-j*2*pi*n*f) across n = 0..N-1; unit-modulus entries."""
    if num_sensors < 1:
        raise ValueError("num_sensors must be >= 1")
    return np.exp(-2j * np.pi * spatial_freq * np.arange(num_sensors))


def temporal_steering(normalized_doppler: float, num_pulses: int) -> np.ndarray:
    """Pulse phase ramp exp(-j*2*pi*m*f) across m = 0..J-1."""
    if num_pulses < 1:
        raise ValueError("num_pulses must be >= 1")
    return np.exp(-2j * np.pi * normalized_doppler * np.arange(num_pulses))


def space_time_steering(
    spatial_freq: float, normalized_doppler: float, num_sensors: int, num_pulses: int
) -> np.ndarray:
    """Unit-energy space-time steering vector: kron(spatial, temporal)/sqrt(M)."""
    b = spatial_steering(spatial_freq, num_sensors)
    a = temporal_steering(normalized_doppler, num_pulses)
    m = num_sensors * num_pulses
    return np.kron(b, a) / np.sqrt(m)


def target_steering(cfg: RadarConfig, tgt: TargetSpec) -> np.ndarray:
    """Unit-energy steering vector of a target; power is applied at synthesis.

    A normalized Doppler beyond +-0.5 aliases; that is legitimate (the phase
    ramp is periodic) but usually unintended, so it warns instead of failing.
    """
    varpi = tgt.doppler_hz / cfg.prf_hz
    if abs(varpi) > 0.5:
        warnings.warn(
            f"normalized Doppler {varpi:.3f} is outside [-0.5, 0.5] and will alias",
            stacklevel=2,
        )
    vartheta = cfg.spatial_frequency(tgt.azimuth_deg)
    return space_time_steering(vartheta, varpi, cfg.num_sensors, cfg.num_pulses)


def target_power(cfg: RadarConfig, tgt: TargetSpec) -> float:
    """Per-element target power xi_t = noise_power * 10^(snr_db/10)."""
    return cfg.noise_power * 10.0 ** (tgt.snr_db / 10.0)


def _patch_azimuths_deg(count: int) -> np.ndarray:
    # centered even grid over [-90, 90): one patch lands exactly at broadside
    return -90.0 + 180.0 * (np.arange(count) + 0.5) / count


def clutter_covariance(cfg: RadarConfig) -> np.ndarray:
    """Ground-clutter covariance: a dense ring of azimuth patches on the ridge.

    Each patch contributes an outer product of its space-time steering
    vector; per-patch powers are equal and scaled so that trace(Rc)/M equals
    noise_power * 10^(cnr_db/10). Under the flat-earth ridge every range
    ambiguity traces the same (angle, Doppler) set, so the trace-normalized
    result is independent of range_ambiguities.

    Returns the zero matrix when ``cfg.cnr_db`` is None (clutter disabled).
    """
    m = cfg.size
    if cfg.cnr_db is None:
        return np.zeros((m, m), dtype=complex)
    azimuths = _patch_azimuths_deg(cfg.clutter_patches)
    vartheta = cfg.spacing_m / cfg.wavelength_m * np.sin(np.deg2rad(azimuths))
    varpi = cfg.clutter_slope * vartheta
    b = np.exp(-2j * np.pi * np.arange(cfg.num_sensors)[:, None] * vartheta[None, :])
    a = np.exp(-2j * np.pi * np.arange(cfg.num_pulses)[:, None] * varpi[None, :])
    # column p of u is kron(b[:, p], a[:, p]); each has squared norm M
    u = np.einsum("np,jp->njp", b, a).reshape(m, azimuths.size)
    clutter_power = cfg.noise_power * 10.0 ** (cfg.cnr_db / 10.0)
    # N_r identical replicas, per-patch power clutter_power/(N_r*N_c): the
    # replication cancels, leaving trace(rc)/M = clutter_power exactly
    rc = clutter_power / cfg.clutter_patches * (u @ u.conj().T)
    return 0.5 * (rc + rc.conj().T)


def jammer_covariance(cfg: RadarConfig) -> np.ndarray:
    """Barrage-jammer covariance: directional in space, white across pulses."""
    m = cfg.size
    rj = np.zeros((m, m), dtype=complex)
    eye_pulses = np.eye(cfg.num_pulses)
    for jam in cfg.jammers:
        power = cfg.noise_power * 10.0 ** (jam.jnr_db / 10.0)
        b = spatial_steering(cfg.spatial_frequency(jam.azimuth_deg), cfg.num_sensors)
        rj += power * np.kron(np.outer(b, b.conj()), eye_pulses)
    return 0.5 * (rj + rj.conj().T)


def noise_covariance(cfg: RadarConfig) -> np.ndarray:
    """White receiver noise, noise_power per element."""
    return cfg.noise_power * np.eye(cfg.size, dtype=complex)


@dataclass
class CovarianceSet:
    """Clutter, jammer and noise covariances with their sum."""

    r_clutter: np.ndarray
    r_jammer: np.ndarray
    r_noise: np.ndarray
    r_total: np.ndarray
    _factor: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def size(self) -> int:
        return self.r_total.shape[0]

    def sampling_factor(self) -> np.ndarray:
        """Cached Hermitian principal square root of r_total, for repeated snapshot draws.

        The root is unique (see ``linalg.covariance_factor``), so draws depend
        only on r_total and the generator, not on the LAPACK or BLAS build.
        """
        if self._factor is None:
            self._factor = linalg.covariance_factor(self.r_total)
        return self._factor


def total_covariance(cfg: RadarConfig) -> CovarianceSet:
    """Assemble the full interference-plus-noise covariance set."""
    rc = clutter_covariance(cfg)
    rj = jammer_covariance(cfg)
    rn = noise_covariance(cfg)
    return CovarianceSet(rc, rj, rn, rc + rj + rn)


def draw_interference_block(cov: CovarianceSet, count: int, rng: np.random.Generator) -> np.ndarray:
    """(M, count) block of target-absent snapshots (columns i.i.d.)."""
    z = linalg.complex_standard_normal(rng, (cov.size, count))
    return cov.sampling_factor() @ z


def draw_target_block(
    cov: CovarianceSet,
    steering: np.ndarray,
    xi_t: float,
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """(M, count) block of target-present snapshots.

    The target amplitude is drawn per snapshot as a circular complex standard
    normal scaled by sqrt(xi_t * M) (slow-fluctuating point target with unit
    mean power carried entirely by xi_t).
    """
    m = cov.size
    amp = linalg.complex_standard_normal(rng, count) * np.sqrt(xi_t * m)
    noise = draw_interference_block(cov, count, rng)
    return steering[:, None] * amp[None, :] + noise


def sample_covariance(snapshots, loading: float = 0.0) -> np.ndarray:
    """Diagonally loaded sample covariance loading*I + (1/K) * sum r r^H.

    Args:
        snapshots: an (M, K) array of snapshot columns, K >= 1.
        loading: nonnegative ridge added to the diagonal.
    """
    block = np.asarray(snapshots, dtype=complex)
    if block.ndim != 2 or block.size == 0:
        raise ValueError(f"sample_covariance needs an (M, K) block with K >= 1, got shape {block.shape}")
    k = block.shape[1]
    est = block @ block.conj().T / k
    est = 0.5 * (est + est.conj().T)
    if loading:
        est = est + loading * np.eye(block.shape[0])
    return est


def perturbed_config(cfg: RadarConfig, velocity_fraction: float, cnr_offset_db: float) -> RadarConfig:
    """Scene with velocity scaled by (1+fraction) and CNR shifted in dB."""
    cnr = None if cfg.cnr_db is None else cfg.cnr_db + cnr_offset_db
    return replace(
        cfg,
        platform_velocity_mps=cfg.platform_velocity_mps * (1.0 + velocity_fraction),
        cnr_db=cnr,
    )
