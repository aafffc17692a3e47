"""Host-speed calibration of the benchmark's timings.

On a shared virtual machine, CPU speed can swing by up to 2x in phases of
seconds to minutes (NOTES.md), and the swing is shared by everything that
runs on it.  So the benchmark runs a fixed calibration kernel before and
after the calls it times, and reports each call's time rescaled to the host
speed at which the kernel takes its nominal time:

    reported = measured * nominal / mean(kernel time before, kernel time after)

A change to the program moves the measured time and not the kernel's, so it
shows in full; a slow phase of the host moves both and cancels.  A slow
phase does not slow all code alike, so each workload's kernel mixes LAPACK
and interpreted Python in about the proportions of its own work.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel per workload: matrix size, repetitions, interpreted blocks per
# repetition, and the kernel's time in a quiet phase of the 2-vCPU Xeon host
# the benchmark was tuned on (the nominal time only fixes the unit).
KERNELS = {
    "verify-n256": (256, 1, 16, 0.040),
}
DEFAULT_KERNEL = (64, 10, 1, 0.015)


class Calibration:
    """Small svd/eigh calls and interpreted Python; it uses no specdet code
    and no seeded input, so its time follows only the host's speed.  `times`
    holds every kernel time."""

    def __init__(self, workload: str):
        n, self._reps, self._blocks, self.nominal_s = KERNELS.get(workload, DEFAULT_KERNEL)
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        self._h = self._a + self._a.conj().T
        self.times = []
        self.run()   # warm-up: the first run loads LAPACK code and fills caches
        self.times.clear()

    def run(self) -> float:
        """Run the kernel once; returns time.perf_counter() at its end."""
        t0 = time.perf_counter()
        for _ in range(self._reps):
            np.linalg.svd(self._a, compute_uv=False)
            np.linalg.eigh(self._h)
            for _ in range(self._blocks):
                acc = 0.0
                for i in range(3000):
                    acc += (i * 0.5) ** 0.5
                sorted(range(2000, 0, -1))
        end = time.perf_counter()
        self.times.append(end - t0)
        return end

    def scale(self, seconds: float, before: int, after: int) -> float:
        """`seconds`, measured between kernel runs `before` and `after`,
        at the nominal host speed."""
        return seconds * 2.0 * self.nominal_s / (self.times[before] + self.times[after])
