"""Processor time on the workload, scaled to a reference host speed.

The benchmark runs on a few cores of a shared host, whose speed moves under
other tenants' load: on the same code the time of a round was seen to change
by a factor of two between runs.  Two things are done about it.

- Times are CPU time (``time.thread_time``), so neither waiting for a core
  nor time the hypervisor steals counts.  The workloads run in one thread and
  in memory, so on an idle host this equals their wall time.  (The process
  clock would do as well, but while a process-wide CPU timer is armed Linux
  advances it only at scheduler ticks.)
- A fixed calibration slice runs on a CPU-time timer every ``PERIOD_S`` while
  the workload runs.  The median duration of the slices taken during an interval,
  over ``NOMINAL_S`` (their duration on the reference host), is the host's
  slowness during that interval.  A time divided by it is the time the
  interval would have taken on the reference host.

``Gauge.now()`` is the thread's CPU time less the time spent in slices, so an interval
measured with it never contains calibration work.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from math import gcd
from time import thread_time

PERIOD_S = 0.025
# median slice on the reference host (2 vCPUs of an Intel Xeon, family 6 model
# 143, CPython 3.11.7, idle); only the unit of the scaled times depends on it
NOMINAL_S = 0.00102
# an interval with fewer slices than this borrows the nearest ones around it
MIN_SLICES = 9


class _Q:
    """A reduced fraction, as the package's ``QZ`` values are."""

    __slots__ = ("n", "d")

    def __init__(self, n, d):
        g = gcd(n, d)
        self.n, self.d = n // g, d // g

    def add(self, o):
        return _Q((self.n * o.d + o.n * self.d) % (self.d * o.d), self.d * o.d)


def calibration_work(n=1100):
    """Small rationals in a dict keyed by tuples: the kind of work modcat does."""
    acc = {}
    zero = _Q(0, 1)
    for i in range(1, n):
        key = (i % 7, i % 5)
        acc[key] = acc.get(key, zero).add(_Q(i % 11, i % 12 + 1))
    return sorted((k, v.n, v.d) for k, v in acc.items())


class Gauge:
    def __init__(self):
        self.stamps = []  # ``now()`` at the end of each slice
        self.slices = []  # each slice's duration
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = thread_time()
        calibration_work()
        t1 = thread_time()
        self.stamps.append(t1 - self.spent)
        self.slices.append(t1 - t0)
        self.spent += t1 - t0

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def now(self):
        return thread_time() - self.spent

    def slowness(self, a, b):
        """Median slice over the interval [a, b] of ``now()``, relative to the nominal."""
        lo, hi = bisect_left(self.stamps, a), bisect_right(self.stamps, b)
        while hi - lo < MIN_SLICES and (lo > 0 or hi < len(self.stamps)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.stamps))
        if lo == hi:
            return 1.0
        return statistics.median(self.slices[lo:hi]) / NOMINAL_S

    def scaled(self, a, b):
        """The interval's length at the reference speed."""
        return (b - a) / self.slowness(a, b)
