"""Box-speed calibration: a fixed load that owes nothing to morreylab.

The machines this benchmark runs on drift in speed by 10-30% over
minutes, and CPU time keeps pace with wall time: the cores and the
memory system slow down, the process does not wait.  Every time the
benchmark reports is therefore rescaled to a reference speed,
``raw * REFERENCE_S / box``, where ``box`` is the median time of the
kernel below measured next to the timed work.  The kernel mixes what the
sweeps spend their time on: mapping and faulting in fresh memory,
elementwise passes over it, a sort, small matrix-vector products and an
interpreter loop.  A change to morreylab moves the raw time and leaves
the kernel alone, so it passes one to one into the rescaled figure.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# the kernel's median time on the reference box (2-vCPU Xeon, numpy 2.4,
# one BLAS thread) in a quiet phase; it only sets the unit of the figures
REFERENCE_S = 0.030
REPEATS = 3
FRESH_FLOATS = 5_000_000  # 40 MB


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._keys = rng.random(100_000)
        self._sorted = np.empty_like(self._keys)
        self._mat = rng.random((300, 300))
        self._vec = rng.random(300)
        self._prod = np.empty(300)

    def kernel_s(self):
        t0 = perf_counter()
        # above glibc's largest mmap threshold (32 MB): every call maps and
        # faults in fresh pages, whatever heap state a workload left behind
        big = np.full(FRESH_FLOATS, 0.5)
        np.exp(big, out=big)
        big.sum()
        del big
        self._sorted[:] = self._keys
        self._sorted.sort()
        for _ in range(10):
            np.dot(self._mat, self._vec, out=self._prod)
        acc = 0
        for i in range(30_000):
            acc += i
        return perf_counter() - t0

    def box_s(self):
        """Median kernel time now: the box's current speed."""
        return statistics.median(self.kernel_s() for _ in range(REPEATS))


def rescale(raw_s, box_s):
    """Seconds at the reference speed for ``raw_s`` seconds measured at ``box_s``."""
    return raw_s * REFERENCE_S / box_s
