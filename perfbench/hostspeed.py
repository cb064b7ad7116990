"""Speed of the host, read between timed calls.

A shared machine changes the speed of pure-Python code by up to a third
over stretches of minutes: the other tenants slow the core down rather
than take it away, so CPU time tracks wall time and does not help.  A run
therefore reads the host's speed on a fixed reference kernel every
PROBE_EVERY_S seconds, outside the timed intervals, and scales the timed
intervals of a pass by the mean speed over that pass:

    reference seconds = measured seconds * speed / REFERENCE_SPEED

A program that gets faster moves the measured seconds and leaves the
speed alone, so the scaled figures move with the program and not with the
host.  The kernel mixes the kinds of work the package does (small-integer
arithmetic, tuples and dictionaries, recursive generators, sorting).  It
does not track the package exactly: the package slows down by about
two thirds as much as the kernel, so scaling halves the run-to-run spread
of the timed figures on a shared host rather than removing it.

REFERENCE_SPEED is tied to the kernel: change one and the other must be
re-measured (median of `probe()` on the reference host), and every figure
measured before is no longer comparable.
"""

from __future__ import annotations

import statistics
import time

# Median probe speed, rounds/s, of kernel() on the reference host: a
# 2-vCPU Intel Xeon VM at 2.1 GHz shared with other tenants, Python 3.11.
REFERENCE_SPEED = 4600.0
PROBE_S = 0.02
PROBE_EVERY_S = 0.25


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def kernel() -> int:
    """One round of fixed work; never change it without REFERENCE_SPEED."""
    acc = 0
    for i in range(600):
        acc += i * i % 7
    table = {}
    for comp in _compositions(6, 4):
        table[comp] = tuple(sorted(comp, reverse=True))
    for comp, part in table.items():
        acc += len(part) + (comp[::-1] in table)
    return acc


def probe(seconds: float = PROBE_S) -> float:
    """Rounds of the kernel per second over about `seconds`."""
    start = time.perf_counter()
    rounds = 0
    while True:
        kernel()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return rounds / elapsed


class Clock:
    """Probes the host at most every PROBE_EVERY_S seconds over one pass
    and gives the factor that scales the pass's intervals to the reference
    speed.  Slow stretches of the host last minutes, longer than a run, so
    one factor per pass (the mean of its probes) is steadier than a factor
    per call."""

    def __init__(self):
        self.speeds = [probe()]
        self._last = time.perf_counter()

    def tick(self, force: bool = False) -> None:
        """Probe if one is due, or if forced."""
        if force or time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.speeds.append(probe())
            self._last = time.perf_counter()

    def factor(self) -> float:
        return statistics.fmean(self.speeds) / REFERENCE_SPEED
