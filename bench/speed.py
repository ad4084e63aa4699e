"""Calibration of timed intervals against a fixed reference loop.

The reference machine is a shared VM whose speed switches between states
about 1.7x apart, several times a minute, with CPU time tracking wall time.
Medians over a run cannot hide that, so each timed interval is rescaled by
the speed of a fixed reference loop run just before it, just after it and,
when sampling, every ``PERIOD`` seconds during it (from a timer signal):

    calibrated = (elapsed - time in samples) * REFERENCE_SECONDS / mean(loops)

A change to the program changes the interval but not the loop, so it shows
in full; a change of machine speed slows both and mostly cancels.  The loop
mixes pure-Python integer arithmetic and numpy array work, the two kinds of
work the jobs do; it slows less than pure-Python jobs and more than
numpy-heavy ones, so the correction is partial for both.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Callable, List, Tuple, TypeVar

#: Seconds the reference loop takes when the reference machine runs at full
#: speed; calibrated times are seconds at that speed.
REFERENCE_SECONDS = 0.002

#: Seconds between reference loops sampled during an interval.
PERIOD = 0.1

T = TypeVar("T")


def reference_loop() -> float:
    """Wall time of one run of the fixed reference work."""
    import numpy as np  # imported late, after the runner pins BLAS threads

    started = time.perf_counter()
    total = 0
    for a in range(-12, 13):
        for b in range(-12, 13):
            for c in range(-4, 5):
                total += (3 * a + b) * (b - 2 * c) - a * c
    grid = np.linspace(-1.0, 1.0, 1 << 14)
    for _ in range(2):
        total += int((grid * grid % 0.7).sum()) + int(np.sinc(grid).sum())
    return time.perf_counter() - started


class Clock:
    """Times consecutive intervals in raw and reference-speed seconds."""

    def __init__(self, sample: bool) -> None:
        self.sample = sample
        self._before = reference_loop()

    def time(self, fn: Callable[[], T]) -> Tuple[float, float, T]:
        """Run ``fn``; returns (raw seconds, calibrated seconds, result).

        Raw seconds exclude the loops sampled during the call.
        """
        samples: List[float] = []
        if self.sample:
            previous = signal.signal(
                signal.SIGALRM, lambda *_: samples.append(reference_loop()))
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        started = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - started
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        after = reference_loop()
        loops = statistics.fmean([self._before, *samples, after])
        self._before = after
        raw = elapsed - sum(samples)
        return raw, raw * REFERENCE_SECONDS / loops, result
