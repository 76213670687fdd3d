"""Timings scaled to a reference host speed.

On a small shared host the same work takes up to 1.7 times longer when the
neighbours are busy, in phases that last from under a second to minutes, and
CPU time varies as much as wall time.  So a Clock samples the host's speed
and scales every timed call by it:

* A fixed pure-Python kernel, made of the operations of the engine's hot
  loop (Fraction sums into a dict keyed by exponent tuples, then a max under
  a sort key), is timed right after each call, as the median of POST_RUNS
  runs, and, for calls that run in this process, every SAMPLE_INTERVAL_S
  from a SIGALRM handler while the call runs.  The handler's own time is
  taken out of the call's.
* For calls that wait for a subprocess, which is as much interpreter start
  as Python work, a bare `python -c pass` is also timed after each call.
  Samples are not taken while the child runs: on the same CPU they would
  time the scheduler, not the CPU.

A call's time is multiplied by REF_KERNEL_S over the mean kernel time
sampled from WINDOW_S before it starts to WINDOW_S after it ends, and for
subprocess calls by the geometric mean of that ratio and REF_SPAWN_S over
the mean `python -c pass` time in the same window.  Reported times
therefore read as they would on the reference host (a 2-core VM) when it is
quiet.  The samples do not touch the engine, so no change to it moves them.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

SAMPLE_INTERVAL_S = 0.05
POST_RUNS = 5
WINDOW_S = 1.0
REF_KERNEL_S = 0.0007
REF_SPAWN_S = 0.045


def speed_kernel() -> tuple:
    terms: dict = {}
    for i in range(200):
        mono = (i % 7, i % 3, i % 5, i % 2)
        terms[mono] = terms.get(mono, Fraction(0)) + Fraction(i % 11 + 1, i % 13 + 1)
    return max(terms, key=lambda m: (-sum(m), m))


def _kernel_seconds() -> float:
    start = time.perf_counter()
    speed_kernel()
    return time.perf_counter() - start


def _spawn_seconds() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - start


class _Samples:
    """Timestamped values in time order, summed or averaged over a span of time."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.value: list[float] = []

    def add(self, at: float, value: float) -> None:
        self.at.append(at)
        self.value.append(value)

    def _between(self, start: float, end: float) -> list[float]:
        return self.value[bisect.bisect_left(self.at, start):bisect.bisect_right(self.at, end)]

    def total(self, start: float, end: float) -> float:
        return sum(self._between(start, end))

    def mean(self, start: float, end: float) -> float:
        return statistics.fmean(self._between(start - WINDOW_S, end + WINDOW_S))


class Clock:
    """Context manager that samples host speed and scales timed calls by it.

    subprocesses: the timed calls wait for child processes (see the module
    docstring); otherwise they run in this process and are sampled in flight.
    """

    def __init__(self, subprocesses: bool = False) -> None:
        self.subprocesses = subprocesses
        self.kernel = _Samples()
        self.spawn = _Samples()
        self._busy = False
        self._previous = None

    def _in_flight(self, signum, frame) -> None:
        if not self._busy:
            self.kernel.add(time.perf_counter(), _kernel_seconds())

    def _after_call(self) -> None:
        self._busy = True  # no in-flight sample between calls
        start = time.perf_counter()
        self.kernel.add(start, statistics.median(_kernel_seconds() for _ in range(POST_RUNS)))
        if self.subprocesses:
            self.spawn.add(start, _spawn_seconds())
        self._busy = False

    def __enter__(self) -> "Clock":
        if not self.subprocesses:
            self._previous = signal.signal(signal.SIGALRM, self._in_flight)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self._after_call()
        return self

    def __exit__(self, *exc) -> None:
        if not self.subprocesses:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn, *args):
        """((start, end, raw seconds), result) of fn(*args); raw excludes in-flight samples."""
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        raw = end - start - self.kernel.total(start, end)
        self._after_call()
        return (start, end, raw), result

    def scale(self, start: float, end: float, raw: float) -> float:
        """raw seconds of a call made from start to end, at the reference speed."""
        factor = REF_KERNEL_S / self.kernel.mean(start, end)
        if self.subprocesses:
            factor = math.sqrt(factor * REF_SPAWN_S / self.spawn.mean(start, end))
        return raw * factor
