"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot future living inside a single
:class:`~repro.sim.engine.Simulator`.  Processes ``yield`` events to wait
on them; arbitrary callbacks may also be attached.  Events can *succeed*
(carrying a value) or *fail* (carrying an exception which is re-raised in
every waiting process).
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, List, Optional, TYPE_CHECKING

from repro.sim.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator

# Scheduling priorities: lower sorts earlier at equal timestamps.
URGENT = 0
NORMAL = 1

# A queue entry is ``(time, key, event)`` with ``time = now + delay``.
# The key ``priority << SEQ_BITS | seq`` packs the priority above the
# simulator's insertion sequence (2**48 events is years of simulation),
# so one integer comparison orders simultaneous events by priority, then
# FIFO.  Every producer builds the entry inline: this is the hottest
# code in every DES run, and a shared helper would cost a call per event.
SEQ_BITS = 48

_PENDING = object()


class Event:
    """A one-shot triggerable future bound to a simulator."""

    __slots__ = ("sim", "callbacks", "_value", "_ok")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        # A list until the event fires; the run loop swaps in None
        # before it calls each callback with the event.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True

    # -- state ---------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not have fired yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True unless the event failed."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ------------------------------------------------------------
    #
    # An event is queued exactly when it is triggered, so the one
    # "already triggered" check also refuses to queue an event twice.

    def succeed(self, value: Any = None, delay: float = 0.0,
                priority: int = NORMAL) -> "Event":
        """Trigger the event successfully, firing after ``delay`` ns."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        self._value = value
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue,
                 (sim._now + delay, priority << SEQ_BITS | seq, self))
        return self

    def fail(self, exception: BaseException, delay: float = 0.0,
             priority: int = NORMAL) -> "Event":
        """Trigger the event as failed; waiters will see ``exception``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        self._value = exception
        self._ok = False
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue,
                 (sim._now + delay, priority << SEQ_BITS | seq, self))
        return self

    # -- callbacks ---------------------------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Attach ``callback(event)``; runs immediately if already fired."""
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` ns after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None,
                 priority: int = NORMAL):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self.delay = delay
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue,
                 (sim._now + delay, priority << SEQ_BITS | seq, self))


class _Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events):
        super().__init__(sim)
        self.events = tuple(events)
        for event in self.events:
            if event.sim is not sim:
                raise SimulationError("cannot mix events of two simulators")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed([])
        else:
            for event in self.events:
                event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every child has fired; value is the list of child values.

    Fails as soon as any child fails.
    """

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e.value for e in self.events])


class AnyOf(_Condition):
    """Fires when the first child fires; value is that child's value."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event._value)
            return
        self.succeed(event.value)
