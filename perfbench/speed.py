"""Host speed probe for scaling timings to a nominal host speed.

Other tenants of a shared host change its speed by tens of percent, from
one second to the next and from one run to the next.  While the probe is
entered, a SIGALRM handler times a fixed pure-Python loop (bit tricks and
list updates, the kind of work reasm's DP kernels do) every PERIOD_S
seconds, between whatever bytecodes are running.  A timed interval's scaled
time is its wall time times NOMINAL_S over the mean loop time from WINDOW_S
before it to WINDOW_S after it: the program's cost without most of the
drift.  The loops add about NOMINAL_S / PERIOD_S to every interval.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

# Seconds loop() takes at the nominal host speed: about its median on a
# 2-vCPU x86-64 KVM guest under CPython 3.11 with a lightly loaded host.
NOMINAL_S = 0.001
PERIOD_S = 0.025
WINDOW_S = 0.25


def loop() -> float:
    table = [0] * 4096
    t0 = perf_counter()
    for _ in range(2):
        for s in range(1, 4096):
            table[s] = table[s & (s - 1)] + (s & 0x5A5).bit_count()
    return perf_counter() - t0


class SpeedProbe:
    def __init__(self):
        self.times: list = []  # midpoint of each loop, ascending
        self.loops: list = []  # its seconds
        self._busy = False
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a late tick arrived inside the last one
            return
        self._busy = True
        try:
            t0 = perf_counter()
            seconds = loop()
            self.times.append(t0 + seconds / 2)
            self.loops.append(seconds)
        finally:
            self._busy = False

    def scaled(self, start: float, seconds: float) -> float:
        """`seconds` of wall time from `start`, at the nominal host speed."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, start + seconds + WINDOW_S)
        window = self.loops[lo:hi] or self.loops
        return seconds * NOMINAL_S / statistics.fmean(window)
