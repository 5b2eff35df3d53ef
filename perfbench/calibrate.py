"""Scale the benchmark's timings to one reference machine speed.

The two-core host the benchmark was built on shares its cores with other
tenants, and its speed drifts by a quarter or more within seconds: the same
eccentricity profile took 180 ms in one ten-second window and 300 ms in
another.  The drift slows every piece of Python code alike, so while the
benchmark measures, a timer interrupts it every ``PERIOD_S`` and times a
fixed reference kernel (a few breadth-first searches on a fixed graph,
written here and sharing no code with ``eccbounds``).  An operation's time
is its wall time minus the kernel runs that fell inside it; its scaled time
is that times ``REF_NS`` over the mean kernel time around it, that is, its
duration on a machine where the kernel takes exactly 2 ms.  A change to the
program cannot move the kernel, so the scaling cannot hide a regression or
fake a gain.  On that host the scaling took the spread of ten-second
medians of the same operation from 32% to 3%.
"""
from __future__ import annotations

import gc
import signal
import time
from bisect import bisect_left, bisect_right
from collections import deque

REF_NS = 2_000_000
PERIOD_S = 0.05
_WINDOW_NS = int(5 * PERIOD_S * 1e9)

_N, _K = 400, 37
_ADJ = [((i - 1) % _N, (i + 1) % _N, (i - _K) % _N, (i + _K) % _N) for i in range(_N)]


def kernel_ns() -> int:
    """Wall time of one pass of the reference kernel."""
    t0 = time.perf_counter_ns()
    for s in range(0, _N, 16):
        dist = [-1] * _N
        dist[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            d = dist[u] + 1
            for v in _ADJ[u]:
                if dist[v] == -1:
                    dist[v] = d
                    q.append(v)
    return time.perf_counter_ns() - t0


class Pacer:
    """Samples the kernel from a ``SIGALRM`` timer while it is running.

    ``stolen_ns`` is the wall time spent in the kernel so far; a caller
    subtracts its growth across an operation from the operation's time.
    """

    def __init__(self):
        self.mids: list[int] = []  # midpoint of each kernel run
        self.kernels: list[int] = []
        self.stolen_ns = 0
        self._previous = None  # the SIGALRM handler to put back on stop
        self._running = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._running = True
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._running = False
        self._tick()

    def _tick(self, *_signal) -> None:
        # The kernel allocates; with the collector off, a collection that
        # falls due on the program's heap runs in the program's time, not
        # in the kernel's.
        was_enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter_ns()
        try:
            k = kernel_ns()
        finally:
            if was_enabled:
                gc.enable()
        self.mids.append(t0 + k // 2)
        self.kernels.append(k)
        self.stolen_ns += time.perf_counter_ns() - t0

    def scaled(self, t0: int, t1: int, ns: int) -> float:
        """``ns`` of work done between ``t0`` and ``t1``, at reference speed.

        Uses the kernel runs within five periods either side of the interval,
        or the nearest runs on either side if there are none.
        """
        lo = bisect_left(self.mids, t0 - _WINDOW_NS)
        hi = bisect_right(self.mids, t1 + _WINDOW_NS)
        if lo == hi:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.mids))
        ks = self.kernels[lo:hi]
        return ns * REF_NS * len(ks) / sum(ks)
