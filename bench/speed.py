"""Host speed reference: a fixed kernel timed while the benchmark measures.

On a shared host the CPU speed changes with the load of other tenants, by up
to about 1.8x, for periods from a few seconds to minutes.  Wall-clock times
of the same program then differ by that much from run to run, and no
percentile of one run removes it, because a slow period can cover a whole
run.  So while the benchmark measures, a ``SIGALRM`` handler times a fixed
pure-Python kernel (the benchmark's own code, not the program's) every
``PERIOD_S`` seconds.  A time measured between ``start`` and ``end`` is
scaled by ``REFERENCE_KERNEL_S`` over the kernel's mean time around it, and
the handler's own time is taken out of it; the result reads as the time the
program would take on the reference host at its fast speed.

The handler runs between bytecodes of the main thread, so it can delay but
never change the program's work.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

PERIOD_S = 0.02

# Kernel samples this far before the start and after the end of a timed
# interval also count towards its speed.
WINDOW_S = 0.1

# An interval with fewer samples in its window uses the nearest ones.
MIN_SAMPLES = 3

# The kernel's time on the reference host (x86_64, 2 vCPUs, Python 3.11.7)
# at its fast speed; only scales the figures.
REFERENCE_KERNEL_S = 0.0003

_TABLE = list(range(4096))


def _mix(a: int, b: int) -> int:
    return (a >> 3) ^ (b << 1)


def kernel() -> int:
    """Fixed work of integer arithmetic, list and dict access and calls."""
    acc = 0
    seen = {}
    for i in range(600):
        j = (i * 2654435761) & 4095
        acc = (acc * 31 + _TABLE[j]) & 0xFFFFFFFF
        seen[j & 255] = acc
        acc ^= _mix(acc, i)
    return acc


class Sampler:
    """Times ``kernel`` every PERIOD_S seconds while entered.

    ``starts`` and ``times`` hold the start and duration of every sample,
    in order; a sample's duration is also the time it took from whatever
    was being measured.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.times: list[float] = []
        for _ in range(5):  # warm-up: first calls allocate
            kernel()

    def sample(self, *_signal) -> None:
        start = perf_counter()
        kernel()
        self.starts.append(start)
        self.times.append(perf_counter() - start)

    def __enter__(self) -> "Sampler":
        # Samples at both ends, so that every interval inside has some near.
        for _ in range(MIN_SAMPLES):
            self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(MIN_SAMPLES):
            self.sample()

    def kernel_s(self, start: float, end: float) -> float:
        """Mean kernel time from WINDOW_S before ``start`` to WINDOW_S
        after ``end``."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            middle = bisect.bisect_left(self.starts, (start + end) / 2)
            lo = max(0, min(middle - MIN_SAMPLES // 2, len(self.times) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        window = self.times[lo:hi]
        return sum(window) / len(window)

    def scaled(self, start: float, end: float) -> float:
        """Time from ``start`` to ``end`` without the samples taken inside
        it, at the reference host's speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        own = end - start - sum(self.times[lo:hi])
        return own * REFERENCE_KERNEL_S / self.kernel_s(start, end)
