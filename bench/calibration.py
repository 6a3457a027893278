"""Wall-clock timings rescaled to a reference machine speed.

Shared machines drift in speed by a quarter or more over tens of seconds,
which swamps the differences the benchmark is meant to show. A fixed
pure-Python loop, timed just before and just after each measured piece of
work, tracks that drift: on a 2-vCPU Intel Xeon VM at 2.0 GHz with Python
3.11, 90 s of one identical replicate gave an interquartile spread of 0.28
of the median over 7-second windows when timed raw, and 0.046 when each
replicate was rescaled by the loop timed around it.

A rescaled time is `wall * REFERENCE_S / calibration`, where calibration
is the mean of the loop's times before and after the work: the seconds the
work would have taken on the reference machine at the loop's reference
speed. The loop calls nothing in the package, so a change to the package
moves rescaled times exactly as it moves wall times on a steady machine.
"""

from __future__ import annotations

import gc
import time

KERNEL_ITERATIONS = 6000
# The loop's median time on the machine above (4.8 ms), rounded.
REFERENCE_S = 0.005


def _kernel() -> int:
    counts: dict[tuple[int, int, int], int] = {}
    total = 0
    for i in range(KERNEL_ITERATIONS):
        key = (i % 15, (i * 7) % 15, i % 11)
        counts[key] = counts.get(key, 0) + 1
        total += len(set(key))
    return total


def calibrate() -> float:
    """Seconds one run of the loop takes now, with garbage collection off so
    that the program's heap cannot slow the loop down."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _kernel()
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


class ReferenceClock:
    """Rescales each piece of work by the loop timed before and after it."""

    def __init__(self) -> None:
        self._before = calibrate()

    def rescale(self, wall: float) -> float:
        """Rescale `wall` seconds of work that has just ended."""
        after = calibrate()
        factor = REFERENCE_S / ((self._before + after) / 2)
        self._before = after
        return wall * factor
