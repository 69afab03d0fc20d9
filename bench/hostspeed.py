"""Rescaling measured times to a host of fixed speed.

A small machine shared with other tenants changes speed by 10-40% over
seconds to minutes, and it does so without preemption: a thread's CPU time
grows with its wall time, so neither clock escapes it.  The benchmark
therefore runs a fixed pure-Python reference kernel (about 2 ms) in a
background thread every :data:`PROBE_PERIOD_S`, for as long as a run lasts,
and rescales each measured interval by ``NOMINAL_S / mean(kernel cost)``
over the probes taken in it (at least the :data:`NEAREST` nearest ones).
Probes are evenly spread in time, so their mean cost is the time-average of
the host's slowness, which is what a stretch of work accumulates; a median
would jump when half the probes fall in a slow spell.  A time metric then
reads what the same work would take on a host that runs the kernel in
:data:`NOMINAL_S`.

The kernel is timed with its thread's CPU clock, so time the probe spends
waiting for the interpreter lock or preempted by the program's processes
is not counted; the kernel belongs to the benchmark, so no change to the
program changes its work.  The probes cost the program the same few
percent of one CPU on every commit.  What the CPU clock still sees is a
busy sibling on a shared core: where the program runs processes beside the
benchmark (``net_fleet``), part of a change that makes them busier is
rescaled away.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

#: the kernel's cost on the reference host (2-CPU VM, Python 3.11)
NOMINAL_S = 0.002
#: period of the background probes
PROBE_PERIOD_S = 0.1
#: an interval is rescaled by the mean of at least this many probes
NEAREST = 5


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: float):
        self.a = a
        self.b = b


def reference_kernel() -> int:
    """Fixed interpreter work: integer arithmetic, then object and dict
    churn (the program's mix outside NumPy)."""
    total = 0
    for i in range(15_000):
        total += i * i
    table = {}
    for i in range(3_000):
        point = _Point(i, float(i))
        table[i & 255] = point.a + point.b
    return total + len(table)


class HostSpeed:
    """Probes of the reference kernel, and the rescaling they give.

    Used as a context manager, it probes in a background thread from entry
    to exit."""

    def __init__(self):
        #: perf_counter time of each probe, ascending
        self.at: list[float] = []
        #: thread CPU seconds of each probe's kernel
        self.cost: list[float] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._probe_loop,
                                        name="hostspeed", daemon=True)

    def __enter__(self) -> "HostSpeed":
        self.probe()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.probe()

    def _probe_loop(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            self.probe()

    def probe(self) -> None:
        reference_kernel()  # untimed: refills the caches the program used
        started = time.thread_time()
        reference_kernel()
        cost = time.thread_time() - started
        with self._lock:
            self.cost.append(cost)
            self.at.append(time.perf_counter())

    def scale(self, start: float, end: float) -> float:
        """``NOMINAL_S`` over the mean kernel cost of the probes taken in
        ``[start, end]``, widened to the :data:`NEAREST` nearest probes."""
        with self._lock:
            at, cost = list(self.at), list(self.cost)
        lo = bisect.bisect_left(at, start)
        hi = bisect.bisect_right(at, end)
        while hi - lo < NEAREST and (lo > 0 or hi < len(at)):
            before = start - at[lo - 1] if lo > 0 else float("inf")
            after = at[hi] - end if hi < len(at) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        if hi == lo:
            raise ValueError("no probe taken")
        return NOMINAL_S / statistics.fmean(cost[lo:hi])

    def seconds(self, start: float, end: float) -> float:
        """The interval ``[start, end]`` rescaled to the nominal host."""
        return (end - start) * self.scale(start, end)

    def mean_cost(self) -> float:
        with self._lock:
            return statistics.fmean(self.cost)
