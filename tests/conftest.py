"""Pin every BLAS/OpenMP thread pool to one thread before NumPy loads.

The timing tests (criterion 3's slopes, `bench_attention` medians) measure
algorithmic cost, so they must not ride on a multi-threaded BLAS.  The pool
sizes are read once, when NumPy is first imported; this file is imported
before any test module, and it checks that NumPy is not loaded yet.  The
variables are the ones `perfbench/run.py` sets.
"""

import os
import sys

assert "numpy" not in sys.modules, "NumPy was imported before the thread pools were pinned"
os.environ.update({var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                        "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                        "NUMEXPR_NUM_THREADS")})
