"""Calibrated host seconds: cancel the shared host's speed drift.

On a shared host the same job can take twice as long a minute later,
because the machine as a whole got slower, not the program.  While a
repetition runs, a ``SIGALRM`` handler times a fixed pure-Python loop
(heap, generator and dict operations, the simulator's own mix) every
``PERIOD_S`` seconds.  Each slice's time says how fast the host was
at that moment, ``REFERENCE_S / slice``, so over the slices inside an
interval

    calibrated s = (wall s - slice s) * mean(REFERENCE_S / slice)

is the interval's host time at the speed where one slice takes
``REFERENCE_S``.  A change to the program moves calibrated seconds as
it moves wall seconds; a slower host moves both the interval and the
slices and cancels out.  The slices share no state with the program,
and their own time is taken out of the interval.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time
from typing import List, Tuple

#: Seconds between calibration slices.
PERIOD_S = 0.02
#: Slice length that defines one calibrated second (about this host's
#: unloaded speed, so calibrated and wall seconds read alike).
REFERENCE_S = 0.0005
_SLICE_OPS = 1000


def _slice() -> None:
    queue: List[int] = []
    table = {}

    def accumulate():
        total = 0
        while True:
            total += yield total

    gen = accumulate()
    next(gen)
    send = gen.send
    for i in range(_SLICE_OPS):
        heapq.heappush(queue, (i * 7919) % 10007)
        send(i)
        table[i & 1023] = i
    while queue:
        heapq.heappop(queue)


class Calibrator:
    """Time calibration slices from a timer signal while a job runs."""

    def __init__(self):
        self.slices: List[Tuple[float, float]] = []
        self._previous = None

    def _handler(self, _signum, _frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = time.monotonic()
        _slice()
        self.slices.append((start, time.monotonic()))
        if enabled:
            gc.enable()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def window(self, start: float, end: float) -> Tuple[float, float]:
        """(slice seconds inside [start, end], host speed factor there).

        The factor is the mean of ``REFERENCE_S / slice``; with no slice
        inside the window, every slice is used.
        """
        inside = [b - a for a, b in self.slices if a >= start and b <= end]
        durations = inside or [b - a for a, b in self.slices]
        factor = (statistics.fmean(REFERENCE_S / d for d in durations)
                  if durations else 1.0)
        return sum(inside), factor

    def calibrated(self, start: float, end: float) -> float:
        """Calibrated host seconds of the interval [start, end]."""
        stolen, factor = self.window(start, end)
        return (end - start - stolen) * factor
