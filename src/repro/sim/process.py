"""Coroutine processes: generators that ``yield`` events to wait on them."""

from __future__ import annotations

from heapq import heappush
from typing import Generator, TYPE_CHECKING

from repro.sim.errors import SimulationError
from repro.sim.events import _PENDING, SEQ_BITS, URGENT, Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class Process(Event):
    """A running generator; also an event that fires when it returns.

    The generator yields :class:`~repro.sim.events.Event` instances.  When
    a yielded event succeeds, the generator is resumed with the event's
    value; when it fails, the exception is thrown into the generator.
    The process event itself succeeds with the generator's return value.
    """

    __slots__ = ("generator", "name", "_send", "_throw", "_trace_ctx")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError(
                f"Process needs a generator, got {type(generator).__name__} "
                "(did you call the function instead of passing its generator?)")
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self.generator = generator
        # Bound-method localization: _resume runs once per event in the
        # hot loop, so skip the per-call attribute lookups.
        self._send = generator.send
        self._throw = generator.throw
        self.name = name or getattr(generator, "__name__", "process")
        # Span-tracing context (repro.trace): the verb trace this
        # process was spawned under, restored on every resume so spans
        # land in the right tree even with many verbs in flight.
        tracer = sim.tracer
        if tracer is not None:
            tracer.on_spawn(self)
        else:
            self._trace_ctx = None
        # Kick off the process at the current simulated instant: an
        # URGENT zero-delay event, triggered and queued in place.
        bootstrap = Event(sim)
        bootstrap.callbacks.append(self._resume)
        bootstrap._value = None
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue,
                 (sim._now + 0.0, URGENT << SEQ_BITS | seq, bootstrap))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    # -- engine plumbing --------------------------------------------------------

    def _resume(self, event: Event) -> None:
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.on_resume(self)
        try:
            if event._ok:
                target = self._send(event._value)
            else:
                target = self._throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self.fail(exc)
            return
        if not isinstance(target, Event):
            error = SimulationError(
                f"process {self.name!r} yielded {target!r}; processes may "
                "only yield Event instances")
            try:
                self.generator.throw(error)
            except StopIteration as stop:
                self.succeed(stop.value)
            except BaseException as exc2:
                self.fail(exc2 if exc2 is not error else error)
            return
        if target.sim is not self.sim:
            self.fail(SimulationError("yielded an event from another simulator"))
            return
        callbacks = target.callbacks
        if callbacks is None:
            # Already fired: resume at once, through the class attribute
            # like every other resume.
            self._resume(target)
        else:
            callbacks.append(self._resume)
