"""Unit tests for coroutine processes."""

import pytest

from repro.sim import Simulator, SimulationError


def test_process_runs_and_returns_value():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(5)
        yield sim.timeout(7)
        return "done"

    proc = sim.process(worker(sim))
    sim.run()
    assert proc.value == "done"
    assert sim.now == 12.0


def test_process_receives_event_value():
    sim = Simulator()
    got = []

    def worker(sim, ev):
        value = yield ev
        got.append(value)

    ev = sim.event()
    sim.process(worker(sim, ev))
    ev.succeed(99, delay=3)
    sim.run()
    assert got == [99]


def test_waiting_on_another_process():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(10)
        return 41

    def parent(sim):
        result = yield sim.process(child(sim))
        return result + 1

    proc = sim.process(parent(sim))
    sim.run()
    assert proc.value == 42


def test_failed_event_raises_inside_process():
    sim = Simulator()
    caught = []

    def worker(sim, ev):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    ev = sim.event()
    sim.process(worker(sim, ev))
    ev.fail(ValueError("bad"))
    sim.run()
    assert caught == ["bad"]


def test_uncaught_exception_fails_process_event():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(1)
        raise RuntimeError("worker crash")

    proc = sim.process(worker(sim))
    sim.run()
    assert not proc.ok
    assert isinstance(proc._value, RuntimeError)


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def worker(sim):
        yield 42  # not an Event

    proc = sim.process(worker(sim))
    sim.run()
    assert not proc.ok
    assert isinstance(proc._value, SimulationError)


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_is_alive():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(5)

    proc = sim.process(worker(sim))
    assert proc.is_alive
    sim.run()
    assert not proc.is_alive


def test_two_processes_interleave():
    sim = Simulator()
    trace = []

    def ping(sim):
        for _ in range(3):
            yield sim.timeout(2)
            trace.append(("ping", sim.now))

    def pong(sim):
        yield sim.timeout(1)
        for _ in range(3):
            yield sim.timeout(2)
            trace.append(("pong", sim.now))

    sim.process(ping(sim))
    sim.process(pong(sim))
    sim.run()
    assert trace == [
        ("ping", 2.0), ("pong", 3.0), ("ping", 4.0),
        ("pong", 5.0), ("ping", 6.0), ("pong", 7.0),
    ]
