"""The event loop: a time-ordered queue of events and the simulated clock."""

from __future__ import annotations

import heapq
from typing import Any, Generator, Optional

from repro.sim.errors import SimulationError
from repro.sim.events import Event, Timeout, NORMAL
from repro.sim.process import Process


def _reraise(process: Process) -> None:
    if not process._ok:
        raise process._value


class Simulator:
    """A discrete-event simulator with a nanosecond clock.

    Events are executed in ``(time, priority, insertion order)`` order,
    so simultaneous events are deterministic.  Events queue themselves
    when triggered (see :data:`repro.sim.events.SEQ_BITS` for the queue
    entry); the run loop pops each one and calls its callbacks inline.
    """

    __slots__ = ("_now", "_queue", "_seq", "_event_count", "tracer",
                 "drained_ns")

    def __init__(self):
        self._now: float = 0.0
        self._queue: list = []
        self._seq: int = 0
        self._event_count: int = 0
        # Span tracer hook (repro.trace).  None on untraced runs; every
        # instrumentation point guards with one ``is not None`` check,
        # so tracing is pay-as-you-go and adds no simulation events.
        self.tracer = None
        # The instant a ``run(until=...)`` last emptied the queue, before
        # the clock was fast-forwarded to the horizon; None until one has.
        self.drained_ns: Optional[float] = None

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Total number of events fired so far (a cheap progress metric)."""
        return self._event_count

    # -- event factories -----------------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None,
                priority: int = NORMAL) -> Timeout:
        """An event firing ``delay`` ns from now."""
        return Timeout(self, delay, value, priority)

    def process(self, generator: Generator) -> Process:
        """Start a coroutine process; returns its completion event."""
        return Process(self, generator)

    def spawn(self, generator: Generator) -> Process:
        """Start a process nobody waits on: if it raises, the run does.

        A failed process hands its exception to whoever waits on it;
        with no waiter the exception would vanish and the run would go
        on with half-updated state.  The callback attached here raises
        it out of :meth:`run` instead.  It adds no event: the process's
        completion event is queued either way.
        """
        process = Process(self, generator)
        process.callbacks.append(_reraise)
        return process

    # -- running -----------------------------------------------------------------

    def peek(self) -> float:
        """Time of the next event, or ``inf`` when the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def due_now(self) -> bool:
        """True when some event, of any priority, is queued at the
        current instant.

        The verb datapath asks this before a zero-delay hop whose only
        waiter is the running process.  When nothing is due now, that
        hop would be the next event popped and nothing would run before
        it, so the process may continue inline: every later event is
        queued in the same relative order.  One precondition makes that
        exact: the event that resumed the process has exactly one
        callback (the process's own resume).  A waiting process cannot
        be woken any other way, since the kernel has no interrupts.
        See docs/performance.md, "Verb datapath".
        """
        queue = self._queue
        return bool(queue) and queue[0][0] <= self._now

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or ``until`` ns is reached.

        ``until`` is an absolute simulated timestamp; the clock ends at
        exactly ``until`` whether the horizon was reached or the queue
        emptied first.  A horizon run that empties the queue records the
        instant it did in ``drained_ns`` before fast-forwarding (a
        lockstep shard's elapsed time).
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"run(until={until}) is in the past (now={self._now})")
        queue = self._queue
        pop = heapq.heappop
        fired = 0
        # Each loop fires an event by swapping its callbacks list for
        # None and calling every callback with the event.  The horizon
        # guard is hoisted out of the drain loop: a drain-to-empty run
        # (every serving run, every cross-check) pays only pop + fire,
        # a lockstep window only one compare more.
        try:
            if until is None:
                while queue:
                    when, _key, event = pop(queue)
                    self._now = when
                    fired += 1
                    callbacks = event.callbacks
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                return
            while queue and queue[0][0] <= until:
                when, _key, event = pop(queue)
                self._now = when
                fired += 1
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
        finally:
            self._event_count += fired
        if fired and not queue:
            self.drained_ns = self._now
        self._now = until
