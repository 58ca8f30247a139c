"""Space-time adaptive processing workbench.

Synthesizes airborne-radar interference scenes from first-principles
covariance models and benchmarks space-time beamformer families (full-rank,
low-rank, sparsity-aware, knowledge-aided) on SINR, detection probability,
and arithmetic-complexity metrics.
"""

from .beamformers import (
    BeamformerWeights,
    JidfDesign,
    KaPrior,
    RankReduction,
    evd_basis,
    jidf_design,
    jio_design,
    ka_mvdr_weights,
    ka_prior,
    krylov_basis,
    lr_mvdr_weights,
    mvdr_weights,
    sa_mvdr_weights,
)
from .config_io import ConfigError, ExperimentSpec, parse_config, serialize_config
from .evaluation import (
    ALGORITHMS,
    ExperimentResult,
    multiplication_count,
    pd_analytic,
    run_complexity_sweep,
    run_pd_vs_snr,
    run_sinr_vs_doppler,
    run_sinr_vs_snapshots,
    sinr,
)
from .linalg import NumericalError
from .scene import (
    CovarianceSet,
    JammerSpec,
    RadarConfig,
    TargetSpec,
    clutter_covariance,
    jammer_covariance,
    sample_covariance,
    target_steering,
    total_covariance,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BeamformerWeights",
    "ConfigError",
    "CovarianceSet",
    "ExperimentResult",
    "ExperimentSpec",
    "JammerSpec",
    "JidfDesign",
    "KaPrior",
    "NumericalError",
    "RadarConfig",
    "RankReduction",
    "TargetSpec",
    "clutter_covariance",
    "evd_basis",
    "jammer_covariance",
    "jidf_design",
    "jio_design",
    "ka_mvdr_weights",
    "ka_prior",
    "krylov_basis",
    "lr_mvdr_weights",
    "multiplication_count",
    "mvdr_weights",
    "parse_config",
    "pd_analytic",
    "run_complexity_sweep",
    "run_pd_vs_snr",
    "run_sinr_vs_doppler",
    "run_sinr_vs_snapshots",
    "sa_mvdr_weights",
    "sample_covariance",
    "serialize_config",
    "sinr",
    "target_steering",
    "total_covariance",
]
