"""Scale host seconds to a nominal CPU speed measured while the work runs.

The machines this benchmark runs on are shared: the speed of one core
changes by up to twofold, in phases that last from a few milliseconds to
seconds, as other tenants come and go.  Raw host times of the same work
then spread by 30% or more between runs.  A probe -- a fixed 0.1 ms piece
of pure-Python heap and dict work that uses nothing from fbsim -- is timed
right before and right after each timed call and, through a SIGALRM
interval timer, every few milliseconds during it.  The call's host time,
less the time spent in the probes, is multiplied by NOMINAL_PROBE_S over
the mean probe time: its duration on a CPU where the probe takes exactly
NOMINAL_PROBE_S.  The timer only runs between start() and stop().
"""

from __future__ import annotations

import heapq
import signal
import statistics
from time import perf_counter

NOMINAL_PROBE_S = 110e-6
INTERVAL_S = 0.005


def _probe_once() -> float:
    start = perf_counter()
    heap: list = []
    for i in range(150):
        heapq.heappush(heap, (i * 0.37 % 11.0, i))
    tally: dict = {}
    while heap:
        x, i = heapq.heappop(heap)
        tally[i % 13] = tally.get(i % 13, 0.0) + x
    return perf_counter() - start


def probe_seconds() -> float:
    """The probe's host seconds now: the better of two, to skip interrupts."""
    return min(_probe_once(), _probe_once())


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # host seconds spent inside timer ticks
        self._busy = False
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        self.samples.append(probe_seconds())
        self.spent += perf_counter() - start
        self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, call):
        """Run ``call()``; return (result, host seconds, scaled seconds)."""
        before = probe_seconds()
        first, spent = len(self.samples), self.spent
        start = perf_counter()
        result = call()
        host = perf_counter() - start - (self.spent - spent)
        probes = [before, *self.samples[first:], probe_seconds()]
        return result, host, host * NOMINAL_PROBE_S / statistics.fmean(probes)
