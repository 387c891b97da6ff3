"""Reference seconds: wall seconds corrected for the machine's current speed.

On a shared host the speed of one core drifts by tens of percent over
minutes, and it moves every timing of a run together.  Between timings the
benchmark runs a fixed piece of pure-Python work that uses no simplexvol
code.  A timing is scaled by REFERENCE_S over the mean of the calibrations
just before and just after it, so it reads as seconds on a machine that does
the calibration work in REFERENCE_S.  A change to the program moves the
timings but not the calibration, so it shows in full.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# Seconds the calibration work takes on the reference machine; about its
# median on the 2-vCPU machine the benchmark was defined on.
REFERENCE_S = 0.008


def calibration_work() -> int:
    """Big-integer arithmetic, tuples, dicts, sets, Fractions and a keyed
    sort: the kinds of work the solver spends its time on."""
    counts: dict[tuple, int] = {}
    seen = set()
    acc = 0
    for i in range(6000):
        t = (i * 7919 % 1009, i * 104729 % 997, i % 31)
        counts[t] = counts.get(t, 0) + 1
        seen.add(t[0] * t[1] - t[2])
        acc += (t[0] * t[1] - t[2] * t[2]) ** 2
    f = Fraction(0)
    for i in range(1, 300):
        f += Fraction(i, 3 * i + 1)
    order = sorted(counts, key=lambda t: (t[1], t[0]))
    return acc + len(seen) + len(order) + f.denominator % 7


def calibrate(repeats: int = 3) -> float:
    """Median seconds of the calibration work, with the garbage collector
    off so that a collection of the caller's heap does not land in it."""
    times = []
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            calibration_work()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)


class ReferenceClock:
    """Scales wall timings to reference seconds.  Call scale() right after
    each timing; the calibration it runs also serves the next timing."""

    def __init__(self):
        self.before = calibrate()
        self.calibrations = [self.before]

    def scale(self, wall_s: float) -> float:
        after = calibrate()
        self.calibrations.append(after)
        scaled = wall_s * REFERENCE_S / ((self.before + after) / 2)
        self.before = after
        return scaled
