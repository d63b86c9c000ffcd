"""The event kernel fires the same events in the same order as a
straightforward reference kernel.

``_Ref*`` below is the kernel written the plain way: every trigger goes
through one ``_schedule`` (which re-checks the delay and a scheduled
flag), every fire through ``Event._fire``, every process starts from an
``Event`` + ``add_callback`` + ``succeed(priority=URGENT)`` bootstrap and
waits through ``add_callback``.  ``repro.sim`` builds its queue entries
inline instead; these tests run random programs on both and require the
same ``(now, tag, value)`` firing trace and the same event count.
"""

import heapq
import os
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

import repro.sim as real
from repro.sim import SimulationError
from repro.sim.process import Process

# -- the reference kernel ----------------------------------------------------------

_PENDING = object()
URGENT, NORMAL = 0, 1


class _RefEvent:
    def __init__(self, sim):
        self.sim, self.callbacks, self._value = sim, [], _PENDING
        self._ok, self._scheduled = True, False

    @property
    def triggered(self):
        return self._value is not _PENDING

    @property
    def value(self):
        return self._value

    def succeed(self, value=None, delay=0.0, priority=NORMAL):
        if self._value is not _PENDING:
            raise SimulationError("already triggered")
        self._value, self._ok = value, True
        self.sim._schedule(self, delay, priority)
        return self

    def fail(self, exception, delay=0.0, priority=NORMAL):
        if self._value is not _PENDING:
            raise SimulationError("already triggered")
        self._value, self._ok = exception, False
        self.sim._schedule(self, delay, priority)
        return self

    def _fire(self):
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)

    def add_callback(self, callback):
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)


class _RefTimeout(_RefEvent):
    def __init__(self, sim, delay, value=None):
        super().__init__(sim)
        self._value = value
        sim._schedule(self, delay, NORMAL)


class _RefCondition(_RefEvent):
    def __init__(self, sim, events, first):
        super().__init__(sim)
        self.events, self.first, self.remaining = tuple(events), first, len(events)
        if not self.events:
            self.succeed([])
        for event in self.events:
            event.add_callback(self._on_child)

    def _on_child(self, event):
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self.remaining -= 1
        if self.first:
            self.succeed(event._value)
        elif self.remaining == 0:
            self.succeed([e._value for e in self.events])


class _RefProcess(_RefEvent):
    def __init__(self, sim, generator):
        super().__init__(sim)
        self.generator = generator
        bootstrap = _RefEvent(sim)
        bootstrap.add_callback(self._resume)
        bootstrap.succeed(priority=URGENT)

    def _resume(self, event):
        try:
            send = self.generator.send if event._ok else self.generator.throw
            target = send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Exception as exc:
            self.fail(exc)
            return
        target.add_callback(self._resume)


class _RefSimulator:
    def __init__(self):
        self.now, self.queue, self.seq, self.events_executed = 0.0, [], 0, 0

    def event(self):
        return _RefEvent(self)

    def timeout(self, delay, value=None):
        return _RefTimeout(self, delay, value)

    def process(self, generator):
        return _RefProcess(self, generator)

    def _schedule(self, event, delay, priority):
        if delay < 0 or event._scheduled:
            raise SimulationError("bad schedule")
        event._scheduled = True
        self.seq += 1
        heapq.heappush(self.queue, (self.now + delay, priority << 48 | self.seq, event))

    def peek(self):
        return self.queue[0][0] if self.queue else float("inf")

    def run(self, until=None):
        while self.queue:
            if until is not None and self.queue[0][0] > until:
                break
            self.now, _key, event = heapq.heappop(self.queue)
            self.events_executed += 1
            event._fire()
        if until is not None:
            self.now = until


class _RefResource:
    def __init__(self, sim, capacity=1):
        self.sim, self.capacity, self.in_use, self.waiters = sim, capacity, 0, deque()

    def request(self):
        grant = _RefEvent(self.sim)
        if self.in_use < self.capacity and not self.waiters:
            self.in_use += 1
            grant.succeed()
        else:
            self.waiters.append(grant)
        return grant

    def release(self):
        if self.in_use <= 0:
            raise SimulationError("release() without a matching request()")
        if self.waiters:
            self.waiters.popleft().succeed()
        else:
            self.in_use -= 1


class _RefStore:
    def __init__(self, sim):
        self.sim, self.items, self.getters = sim, deque(), deque()

    def offer(self, item):
        if self.getters:
            self.getters.popleft().succeed(item)
        else:
            self.items.append(item)

    def get(self):
        got = _RefEvent(self.sim)
        if self.items:
            got.succeed(self.items.popleft())
        else:
            self.getters.append(got)
        return got


class _RefChannel:
    def __init__(self, sim, bandwidth, latency):
        self.sim, self.bandwidth, self.latency, self.free_at = sim, bandwidth, latency, 0.0

    def send(self, nbytes):
        now = self.sim.now
        free = max(self.free_at, now) + nbytes / self.bandwidth
        self.free_at = free
        return _RefEvent(self.sim).succeed(nbytes, delay=free + self.latency - now)


class _Kernel:
    def __init__(self, simulator, resource, store, channel, all_of, any_of):
        self.simulator, self.resource, self.store = simulator, resource, store
        self.channel, self.all_of, self.any_of = channel, all_of, any_of


REAL = _Kernel(real.Simulator, real.Resource, real.Store, real.SimplexChannel,
               real.AllOf, real.AnyOf)
REF = _Kernel(_RefSimulator, _RefResource, _RefStore, _RefChannel,
              lambda sim, evs: _RefCondition(sim, evs, first=False),
              lambda sim, evs: _RefCondition(sim, evs, first=True))

# -- random programs ------------------------------------------------------------------

# Few distinct delays, so exact time ties are common; 0.7 puts inexact
# clocks under the channels' delivery times.
DELAYS = st.sampled_from([0.0, 0.0, 0.7, 1.0, 2.5, 3.0, 7.0])
# Each step kind with the strategies of its arguments.
STEP_ARGS = {
    "timeout": (DELAYS,),
    "hold": (st.integers(0, 1), DELAYS),
    "offer": (st.integers(0, 1), st.integers(0, 99)),
    "get": (st.integers(0, 1),),
    "all": (st.lists(DELAYS, max_size=3),),
    "any": (st.lists(DELAYS, min_size=1, max_size=3),),
    "fail": (DELAYS,),
    "send": (st.integers(0, 1), st.integers(0, 300)),
    "spawn": (DELAYS,),
    "again": (),
}
STEP = st.one_of(*(st.tuples(st.just(kind), *args)
                   for kind, args in STEP_ARGS.items()))
PROGRAM = st.lists(st.lists(STEP, max_size=8), min_size=1, max_size=5)
RUN_MODE = st.one_of(st.just(("drain",)),
                     st.tuples(st.just("until"), st.sampled_from([0.5, 1.0, 4.0])))
# Tier-1 runs the default; a deeper sweep sets KERNEL_ORDER_EXAMPLES.
_MAX_EXAMPLES = int(os.environ.get("KERNEL_ORDER_EXAMPLES", "300"))


def execute(kernel, program, mode):
    """Run ``program`` on ``kernel``; returns the firing trace, the
    event count, the final clock and the escaping error's type."""
    sim = kernel.simulator()
    resources = [kernel.resource(sim, capacity=c) for c in (1, 2)]
    stores = [kernel.store(sim) for _ in range(2)]
    # Awkward rates and latencies, so the float expression of each
    # delivery time matters.
    channels = [kernel.channel(sim, b, lat) for b, lat in ((1.0, 0.0), (3.0, 0.1))]
    trace, procs = [], []

    def child(pid, delay):
        yield sim.timeout(delay)
        return ("child", pid)

    def body(pid, steps):
        last = sim.timeout(0.0)
        for index, step in enumerate(steps):
            kind = step[0]
            try:
                if kind == "timeout":
                    last = sim.timeout(step[1], value=index)
                    value = yield last
                elif kind == "hold":
                    resource = resources[step[1]]
                    last = resource.request()
                    yield last
                    try:
                        value = yield sim.timeout(step[2])
                    finally:
                        resource.release()
                elif kind == "offer":
                    stores[step[1]].offer(step[2])
                    value = "offered"
                elif kind == "get":
                    last = stores[step[1]].get()
                    value = yield last
                elif kind in ("all", "any"):
                    combine = kernel.all_of if kind == "all" else kernel.any_of
                    last = combine(sim, [sim.timeout(d, value=d) for d in step[1]])
                    value = yield last
                elif kind == "fail":
                    last = sim.event().fail(ValueError(pid), delay=step[1])
                    value = yield last
                elif kind == "spawn":
                    last = sim.process(child(pid, step[1]))
                    value = yield last
                elif kind == "send":
                    last = channels[step[1]].send(step[2])
                    value = yield last
                else:                       # yield an event again (fired or not)
                    value = yield last
            except ValueError as exc:
                value = ("failed", exc.args)
            trace.append((sim.now, pid, index, kind, value))
        return pid

    for pid, steps in enumerate(program):
        procs.append(sim.process(body(pid, steps)))
    for proc in procs:
        proc.add_callback(
            lambda e: trace.append((sim.now, "exit", e._ok, e._value if e._ok
                                    else type(e._value).__name__)))
    error = None
    try:
        if mode[0] == "drain":
            sim.run()
        else:
            horizon = 0.0
            while sim.peek() < float("inf"):
                horizon += mode[1]
                sim.run(until=horizon)
                trace.append(("chunk", sim.now, sim.events_executed))
    except Exception as exc:        # the same misuse must escape both kernels
        error = type(exc).__name__
    return trace, sim.events_executed, sim.now, error


@settings(max_examples=_MAX_EXAMPLES, deadline=None)
@given(PROGRAM, RUN_MODE)
def test_kernel_matches_reference_order(program, mode):
    assert execute(REAL, program, mode) == execute(REF, program, mode)


def test_reference_programs_are_not_trivial():
    """A hand-written program touching every step kind fires the same
    non-empty trace on both kernels."""
    program = [
        [("hold", 0, 3.0), ("offer", 0, 7), ("all", [1.0, 2.5]), ("again",)],
        [("hold", 0, 1.0), ("get", 0), ("any", [0.0, 7.0]), ("send", 1, 900)],
        [("fail", 2.5), ("spawn", 0.0), ("timeout", 0.0), ("get", 1)],
        [("timeout", 3.0), ("offer", 1, 5), ("send", 0, 10), ("send", 0, 10)],
    ]
    assert {step[0] for steps in program for step in steps} == set(STEP_ARGS)
    for mode in (("drain",), ("until", 1.0)):
        got = execute(REAL, program, mode)
        assert got == execute(REF, program, mode)
        assert len(got[0]) > 10 and got[1] > 20


# -- the checks the kernel keeps ------------------------------------------------------


def test_negative_timeout_raises():
    with pytest.raises(ValueError, match="negative timeout delay"):
        real.Simulator().timeout(-1)


def test_negative_succeed_delay_raises():
    sim = real.Simulator()
    with pytest.raises(SimulationError, match="into the past"):
        sim.event().succeed(delay=-0.5)
    with pytest.raises(SimulationError, match="into the past"):
        sim.event().fail(ValueError(), delay=-0.5)
    assert sim.peek() == float("inf")


def test_double_trigger_raises():
    sim = real.Simulator()
    event = sim.event().succeed(1)
    with pytest.raises(SimulationError, match="already triggered"):
        event.succeed(2)
    with pytest.raises(SimulationError, match="already triggered"):
        event.fail(ValueError())


@pytest.mark.parametrize("make", [
    lambda sim: sim.timeout(3),
    lambda sim: real.SimplexChannel(sim, 1.0).send(8),
    lambda sim: sim.event().succeed(delay=2),
])
def test_queued_event_cannot_be_queued_again(make):
    """Every queued event is triggered, so the trigger check refuses a
    second schedule of a timeout, a delivery or a succeeded event."""
    sim = real.Simulator()
    event = make(sim)
    with pytest.raises(SimulationError, match="already triggered"):
        event.succeed()
    sim.run()
    assert sim.events_executed == 1


def test_delivery_time_is_now_plus_delay():
    """A channel queues its delivery at ``now + (free + latency - now)``,
    the expression every other event uses; here it differs from the
    shorter ``free + latency`` in the last bit."""
    sim = real.Simulator()
    channel = real.SimplexChannel(sim, bandwidth=3.0, latency=0.1)
    seen = []

    def sender():
        yield sim.timeout(0.7)
        yield channel.send(6)
        seen.append(sim.now)

    sim.process(sender())
    sim.run()
    now = 0.7
    free = now + 6 / 3.0
    assert free + 0.1 != now + (free + 0.1 - now)
    assert seen == [now + (free + 0.1 - now)]


def test_fail_needs_an_exception():
    with pytest.raises(TypeError, match="exception instance"):
        real.Simulator().event().fail("boom")


def test_yielding_a_non_event_fails_the_process():
    sim = real.Simulator()

    def bad():
        yield 42

    proc = sim.process(bad())
    sim.run()
    assert not proc.ok
    assert isinstance(proc._value, SimulationError)
    assert "may only yield Event instances" in str(proc._value)


def test_yielding_a_foreign_event_fails_the_process():
    sim, other = real.Simulator(), real.Simulator()

    def bad():
        yield other.timeout(1)

    proc = sim.process(bad())
    sim.run()
    assert not proc.ok
    assert "another simulator" in str(proc._value)


def test_every_resume_goes_through_the_class_attribute(monkeypatch):
    """Tracers patch ``Process._resume``; bootstraps, waits on pending
    events and re-yields of fired events must all reach the patch."""
    seen = []
    original = Process.__dict__["_resume"]

    def counting(process, event):
        seen.append(event)
        original(process, event)

    monkeypatch.setattr(Process, "_resume", counting)
    sim = real.Simulator()

    def body():
        fired = sim.timeout(1)
        yield fired
        yield fired          # already fired: resumes at once
        yield sim.timeout(2)

    sim.process(body())
    sim.run()
    assert len(seen) == 4 and sim.now == 3.0
