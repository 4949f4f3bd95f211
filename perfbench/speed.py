"""The machine's current speed, read from a fixed reference workload.

On the 2-core machine this benchmark was built on, stretches of 20-40 s run
about 1.8 times slower than the rest: CLI launches, set-ups and operations
all slow down together, so a run that falls in such a stretch reads slow on
every metric.  The timed pass therefore takes a reference timing after every
operation and rescales each round to a nominal machine speed: wall times
times REFERENCE_S over the median reference timing of the round.  The
reference is a fixed piece of pure-Python work (Fraction and integer
arithmetic, dict updates, the kinds of work trajspace does) that shares no
code with trajspace, runs with the garbage collector off, and keeps the
fastest of three timings, so one interruption does not move it.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

REFERENCE_S = 0.005   # about the reference's duration on the machine of the README's figures


def _reference_work():
    fracs = []
    for i in range(1, 600):
        fracs.append(Fraction(i, i + 7) * Fraction(3, 2 * i + 1) + Fraction(1, i + 1))
    p = [3, -1, 4, 1, -5, 9, 2, -6]
    for _ in range(60):
        p = [(3 * a - b) % 1000003 for a, b in zip(p + [0], [0] + p)]
    counts = {}
    for i in range(12000):
        counts[i % 613] = counts.get(i % 613, 0) + i
    return fracs, p, counts


def reference_seconds():
    """Fastest of three timings of the reference work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            _reference_work()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()
