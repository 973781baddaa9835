"""Run BLAS on one thread in the pytest process, as every sfvda process does.

pytest imports this file before any test module, so numpy is not loaded
yet and OpenBLAS reads the setting when it starts. A value the caller set
is kept."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
