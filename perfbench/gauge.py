"""Machine-speed gauge: timings at a fixed reference speed.

A shared virtual machine runs the same code 25% faster or slower from
one minute to the next, so raw wall times of one build wander far more
than the differences between builds the benchmark must resolve.  The
gauge times a fixed pure-Python reference kernel right before and right
after each measured interval, on the one CPU the measured work is
pinned to, and scales the interval's wall time by ``NOMINAL_S / kernel
time``: the result is the interval's length in seconds at the speed at
which the kernel takes ``NOMINAL_S``.  The kernel is the benchmark's
own code, so no change to the program under test can move it.
"""

from __future__ import annotations

import statistics
import time

#: Seconds one reference kernel run takes at the reference speed.
NOMINAL_S = 0.0025
#: Dictionary stores per kernel run.
_STORES = 20_000


def _kernel() -> float:
    start = time.perf_counter()
    table = {}
    for key in range(_STORES):
        table[key * 7919 % 10007] = key
    return time.perf_counter() - start


class SpeedGauge:
    """Tracks the momentary speed of the CPU the process runs on."""

    def __init__(self) -> None:
        self._last = self.sample()

    @staticmethod
    def sample() -> float:
        """Reference kernel seconds, median of three runs."""
        return statistics.median(_kernel() for _ in range(3))

    def factor(self) -> float:
        """Reference speed over the speed seen since the previous call."""
        now = self.sample()
        factor = NOMINAL_S / ((now + self._last) / 2)
        self._last = now
        return factor
