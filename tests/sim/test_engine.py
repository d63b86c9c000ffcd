"""Unit tests for the event loop and clock."""

import pytest

from repro.sim import Simulator, SimulationError, NORMAL, URGENT


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(42.0)
    sim.run()
    assert sim.now == 42.0


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    for delay in (30, 10, 20):
        sim.timeout(delay).add_callback(lambda e, d=delay: order.append(d))
    sim.run()
    assert order == [10, 20, 30]


def test_equal_time_fifo_order():
    sim = Simulator()
    order = []
    for tag in range(5):
        sim.timeout(7).add_callback(lambda e, t=tag: order.append(t))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_priority_breaks_time_ties():
    sim = Simulator()
    order = []
    sim.timeout(5, priority=NORMAL).add_callback(lambda e: order.append("normal"))
    sim.timeout(5, priority=URGENT).add_callback(lambda e: order.append("urgent"))
    sim.run()
    assert order == ["urgent", "normal"]


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    fired = []
    sim.timeout(100).add_callback(lambda e: fired.append(1))
    sim.run(until=50)
    assert sim.now == 50.0
    assert not fired
    sim.run()
    assert fired and sim.now == 100.0


def test_run_until_is_inclusive():
    sim = Simulator()
    fired = []
    sim.timeout(50).add_callback(lambda e: fired.append(1))
    sim.run(until=50)
    assert fired


def test_run_until_past_raises():
    sim = Simulator()
    sim.timeout(10)
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=5)


def test_peek_empty_is_inf():
    assert Simulator().peek() == float("inf")


def test_peek_returns_next_event_time():
    sim = Simulator()
    sim.timeout(33)
    assert sim.peek() == 33.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises((SimulationError, ValueError)):
        sim.timeout(-1)


def test_run_until_with_empty_queue_advances_clock():
    sim = Simulator()
    sim.run(until=123)
    assert sim.now == 123.0
