"""Host speed, sampled all through a timed run, and times scaled by it.

A shared VM's speed can flip between states: on a 2-vCPU Xeon VM a fixed
pure-Python loop ran up to 1.9 times slower for stretches of seconds to
minutes, with CPU time tracking wall time, so no within-run median can
average the state away.  A query slows by about the same factor as a fixed
reference block of small `Fraction` arithmetic (the kind of work the
program's exact kernel does), so each query's time is divided by the
reference block's time measured around it and reported at a fixed
reference speed:

    scaled = (wall - time spent sampling) * REF_S / mean(reference samples)

where the samples are those taken from SLACK_S before the query starts to
SLACK_S after it ends.  On a host that held the reference speed, scaled time
would equal wall time.  The reference block is defined here and binds
`Fraction` before the package is imported, so a change to the program's own
arithmetic does not speed it up.

While a `HostSpeed` is active, a SIGALRM timer runs the reference block
every PERIOD_S of wall time, in the measuring thread itself, between two
Python bytecodes; no thread or process is added.  The time the samples take
is subtracted from every query they interrupt.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

REF_N = 220  # steps of the reference block
# the reference speed: seconds per reference block, a round figure near the
# block's time on a 2-vCPU Xeon VM running CPython 3.11 in its fast state
REF_S = 0.0010
PERIOD_S = 0.05
SLACK_S = 0.25


def reference_block(n: int = REF_N) -> Fraction:
    """n fixed steps of rational arithmetic on small numbers."""
    s = Fraction(0)
    for i in range(1, n):
        s += Fraction(i % 7 + 1, i % 5 + 2) * Fraction(i % 3 + 1, 3)
    return s


def reference_time(blocks: int = 5) -> float:
    """Mean time of a few reference blocks, measured now."""
    t0 = time.perf_counter()
    for _ in range(blocks):
        reference_block()
    return (time.perf_counter() - t0) / blocks


def scale(wall_s: float, ref_s: float) -> float:
    """wall_s at the reference speed, given the reference block's time then."""
    return wall_s * REF_S / ref_s


class HostSpeed:
    """Samples the reference block on a timer while active (`with speed:`).

    `mark()` returns a point in time; `scaled(start, end)` the time between
    two marks, less sampling, at the reference speed.  Inactive, it samples
    nothing and `scaled` returns plain wall time.
    """

    def __init__(self, active: bool = True):
        self.active = active
        self.at: list[float] = []  # start of each sample
        self.took: list[float] = []  # duration of each sample
        self.spent = 0.0  # total time inside the handler
        self._old = None

    def __enter__(self):
        if self.active:
            self._sample(None, None)  # so that every query has a sample near it
            self._old = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._old)
        return False

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_block()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def mark(self) -> tuple[float, float]:
        while True:  # a sample that lands between the two reads is retried
            spent = self.spent
            now = time.perf_counter()
            if self.spent == spent:
                return now, spent

    def scaled(self, start, end) -> float:
        wall = (end[0] - start[0]) - (end[1] - start[1])
        if not self.active:
            return wall
        lo = bisect.bisect_left(self.at, start[0] - SLACK_S)
        hi = bisect.bisect_right(self.at, end[0] + SLACK_S)
        if lo == hi:  # no sample near: fall back to the closest ones
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        window = self.took[lo:hi]
        return scale(wall, sum(window) / len(window))

    def summary(self) -> dict:
        """Samples taken and their median, for the human-readable report."""
        took = sorted(self.took)
        return {"samples": len(took), "median_s": took[len(took) // 2] if took else None}
