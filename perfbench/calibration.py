"""Convert a run's measured times to reference seconds.

On a shared host the same work can take up to 1.7 times as long for seconds
to minutes at a time, whole 30-second runs included, so neither the fastest
nor the median round time repeats from run to run. The calibration kernel
below is a fixed piece of work of the program's own kind: a Python loop of
small numpy generator calls and scalar array updates. ``HostClock`` runs it
between the run's timed calls, so that its samples fall all through the run,
and converts a time measured in the run to reference seconds: the time it
would have taken on a host that runs the kernel in ``REFERENCE_S``, scaled by
the mean kernel time over the run. The kernel lives here, not in the program,
so no change to the program moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

LOOPS = 1600
# The kernel's fastest time on the reference host: a 2-vCPU virtual machine,
# Python 3.11.7, numpy 2.4.6 (the figures in README.md).
REFERENCE_S = 0.0100
# One kernel time varies by about 20% from one call to the next, so the clock
# spends this share of the run's time on samples; a 30-second run takes
# 150-300 of them.
SHARE = 0.1


def kernel_seconds() -> float:
    rng = np.random.default_rng(0)
    bits = np.zeros(64, dtype=np.int8)
    acc = 0
    start = time.perf_counter()
    for _ in range(LOOPS):
        i, j = rng.integers(0, 64, size=2)
        bits[i] ^= 1
        acc += int(bits[j]) + sum(range(16))
    return time.perf_counter() - start


class HostClock:
    """Call ``sample`` between timed calls, never inside one."""

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.samples: list[float] = []
        self.sampled_s = 0.0

    def sample(self) -> None:
        while True:
            self.samples.append(kernel_seconds())
            self.sampled_s += self.samples[-1]
            if self.sampled_s >= SHARE * (time.perf_counter() - self.start):
                return

    def to_reference(self, seconds: float) -> float:
        return seconds * REFERENCE_S / statistics.fmean(self.samples)


class NoClock:
    """Takes no samples; the traced run, which reports raw times."""

    @staticmethod
    def sample() -> None:
        pass
