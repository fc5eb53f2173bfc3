"""How fast the machine runs right now, sampled while the load runs.

On a shared host the same Python code runs up to twice as slow for
stretches of seconds to minutes, and a whole run can fall in such a
stretch. A timer interrupts the load every PERIOD_S seconds and times a
fixed reference kernel: polynomial multiplication over a dict of exponent
tuples and a sort of the monomials, the kind of work fjump does. The kernel
is frozen here and imports nothing from fjump, so a change to the program
does not change it.

A latency is then reported at the reference speed: its raw time, less the
time the timer's handler took inside it, times NOMINAL_S over the mean
kernel time sampled around it. A latency at the reference speed is the time
it would take on a machine where the kernel takes exactly NOMINAL_S.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

PERIOD_S = 0.02
NOMINAL_S = 0.001  # the kernel's time at the reference speed
WARMUP = 50

_P = 7
_A = {(i, j): (3 * i + 5 * j + 1) % _P or 1 for i in range(6) for j in range(5)}
_B = {(i, j): (2 * i + j + 3) % _P or 2 for i in range(5) for j in range(4)}


def _mul(a, b, p):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            s = (out.get(mono, 0) + c1 * c2) % p
            if s:
                out[mono] = s
            elif mono in out:
                del out[mono]
    return out


def kernel() -> tuple[float, float]:
    """Run the reference kernel once; return its start and its time.

    The collector is off while it runs: a collection of the load's heap
    inside the kernel would read as a slow machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        sorted(_mul(_A, _B, _P), reverse=True)
        return start, time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Samples the kernel every PERIOD_S seconds between ``start`` and ``stop``."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.handler_s = 0.0  # time spent in the handler, to take out of latencies

    def _sample(self, *_):
        start, took = kernel()
        self.starts.append(start)
        self.times.append(took)
        self.handler_s += time.perf_counter() - start

    def start(self):
        for _ in range(WARMUP):
            kernel()
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *_):
        self.stop()

    def scale(self, begin: float, end: float) -> float:
        """NOMINAL_S over the mean kernel time sampled from ``begin`` to
        ``end``, taking in the last sample before and the first after."""
        lo = max(bisect.bisect_left(self.starts, begin) - 1, 0)
        hi = bisect.bisect_right(self.starts, end) + 1
        return NOMINAL_S / statistics.fmean(self.times[lo:hi])
