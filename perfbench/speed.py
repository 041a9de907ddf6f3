"""Machine-speed scaling: a fixed calibration kernel timed between calls.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent over minutes, as the host's other tenants come and go; the median
wall time of a 30 s run moved by up to a quarter between runs of the same
code.  Longer runs do not help, because the drift is slower than a run.

So a worker times `kernel()` between calls (not inside them) about every
`INTERVAL_S` seconds, and reports every time metric scaled by
`REFERENCE_S / median(kernel time)`: seconds at the machine speed at which
the kernel takes `REFERENCE_S`.  The kernel has the two kinds of work that
dominate the workloads, in about equal time: small NumPy calls driven from a
Python loop (RANSAC, reverse-mode autodiff) and a dense product reduced over
a table larger than the L2 cache (ratio matching, seed selection).  Over
ten 30 s runs of each workload, the quartile spread of `call_s_p50` was
0.04 to 0.07 of its median scaled, against 0.06 to 0.16 unscaled.  A
change to linmatch moves the call times and not the kernel, so it shows in
full.  The unscaled wall times are printed and kept in the run's record.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Median kernel time on the 2-vCPU VM the benchmark was defined on; only
# sets the unit, so scaled times read about as that VM's wall seconds.
REFERENCE_S = 0.018
INTERVAL_S = 0.5

_rng = np.random.default_rng(0)
_A, _B, _EYE = _rng.random((64, 3)), _rng.random((3, 2)), np.eye(3)
_X, _Y = _rng.random((1536, 64)), _rng.random((1536, 64))


def kernel():
    for _ in range(300):
        residual = np.linalg.norm(_A @ _B - 1.0, axis=1)
        int((residual < 0.5).sum())
        np.linalg.solve(_EYE + _A[:3], _A[:3])
    (_X @ _Y.T).min(axis=1)


class Speedometer:
    """Kernel times sampled between calls, and the scale they give."""

    def __init__(self):
        kernel()  # warm-up, not recorded
        self.samples = []
        self.spent = 0.0  # wall time taken by the samples, excluded from throughput
        self._last = float("-inf")

    def tick(self):
        """Time the kernel once if `INTERVAL_S` has passed since the last sample."""
        now = perf_counter()
        if now - self._last < INTERVAL_S:
            return
        kernel()
        self._last = perf_counter()
        self.samples.append(self._last - now)
        self.spent += self._last - now

    def kernel_s(self):
        return statistics.median(self.samples)

    def scale(self):
        """Factor from this machine's wall seconds to reference seconds."""
        return REFERENCE_S / self.kernel_s()
