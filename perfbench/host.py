"""A fixed calibration kernel that tracks the host's speed.

On a shared host the same work takes up to half as long again when a
neighbour is busy, and such phases last from a second to minutes.  The
benchmark runs this kernel between chunks of work all through a loop and
scales the loop's wall times by REF_S over the kernel's mean time, so a
rate reads as if measured on a host where the kernel takes REF_S.  The
kernel mixes interpreter work and small matrix products, as the program
does; it is part of the benchmark, so no change to the program moves it.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.0015     # kernel time on this 2-core host in its faster phases


class Calibrator:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples: list[float] = []
        self._a = np.random.default_rng(0).random((48, 48))
        self._run()            # first call pays one-off costs: not a sample

    def _run(self) -> float:
        t0 = self.clock()
        s = 0
        for j in range(20_000):
            s += j * j
        a = self._a
        for _ in range(100):
            a @ a
        return self.clock() - t0

    def kernel(self) -> float:
        """Time one kernel run and keep it as a sample."""
        dt = self._run()
        self.samples.append(dt)
        return dt


def scaled(seconds: float, kernel: float) -> float:
    """Wall time scaled to the reference host, given the mean kernel time
    measured over the same stretch of time."""
    return seconds * REF_S / kernel
