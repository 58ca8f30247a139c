"""Test-session setup shared by every test module.

The matrices here are at most a few hundred wide, where OpenBLAS threads cost
more than they save: the suite runs about five times faster on one thread.
The variable is read when numpy loads OpenBLAS, so it is set before any test
module imports numpy; a value already in the environment wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
