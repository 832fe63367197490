"""Durations expressed at a reference host speed.

This box (and, by ISSUE 12's sizing notes, the driver's) runs in two clock
modes about 1.3x apart, in episodes that last from a second to longer than a
whole run.  Raw wall-clock medians of ten runs therefore spread by 20-25 %,
more than any bound the benchmark may set.  The slowdown is uniform: a
fixed pure-Python loop and an engine query slow down by the same factor
(measured: raw inter-quartile spread 23 %, 3.7 % after the correction
below, fast-mode and slow-mode medians within 1.3 % of each other).

So every timed interval is bracketed by that loop and multiplied by
``REFERENCE_SPIN_MS / spin``: a millisecond reported by the benchmark is a
millisecond at the clock at which the loop takes ``REFERENCE_SPIN_MS``.
Absolute figures shift by a constant on another host; comparisons between
two commits on one host, which is all the benchmark is for, do not.  The
factor itself is reported as ``host.speed_factor`` next to the spin times,
so a corrected figure can always be turned back into the raw one.
"""

from __future__ import annotations

import time

from typing import List

#: The loop below at this box's full clock.
REFERENCE_SPIN_MS = 1.10
_ITERATIONS = 30_000

#: Every factor applied so far in this process, in order: the run's record
#: of how fast the host was while it was being timed.
observed: List[float] = []


def spin_ms() -> float:
    """Time the fixed calibration loop: three short runs, the fastest one
    counted three times.  A clock mode outlasts all three; a scheduler
    tick or a page fault lands on one of them and is dropped."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(_ITERATIONS // 3):
            total += i * i % 7
        best = min(best, time.perf_counter() - started)
    return best * 3e3


def speed_factor(before_ms: float, after_ms: float) -> float:
    """What to multiply an interval by, given the spins around it."""
    factor = 2.0 * REFERENCE_SPIN_MS / (before_ms + after_ms)
    observed.append(factor)
    return factor


def timed(fn):
    """``(fn(), seconds at the reference clock)``."""
    before = spin_ms()
    started = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - started
    return result, elapsed * speed_factor(before, spin_ms())
