"""Settings shared by every test module.

BLAS and OpenMP get one thread unless the caller set a count: the tests factor
small matrices, where a second thread only competes with the test process
(a 200 x 200 Cholesky took 20 ms with two OpenBLAS threads on a busy 2-core
machine against 0.6 ms with one). numpy reads these variables once, when it
is first imported, which is after this file loads.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
