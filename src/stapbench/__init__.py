"""Space-time adaptive processing workbench.

Synthesizes airborne-radar interference scenes from first-principles
covariance models and benchmarks space-time beamformer families (full-rank,
low-rank, sparsity-aware, knowledge-aided) on SINR, detection probability,
and arithmetic-complexity metrics.
"""

import os

# Start-up cost only: at one thread OpenBLAS starts no worker when numpy loads
# it. A value already set wins; linalg pins one thread anyway, so no byte moves.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
