"""Space-time adaptive processing workbench.

Synthesizes airborne-radar interference scenes from first-principles
covariance models and benchmarks space-time beamformer families (full-rank,
low-rank, sparsity-aware, knowledge-aided) on SINR, detection probability,
and arithmetic-complexity metrics.
"""

__version__ = "0.1.0"
