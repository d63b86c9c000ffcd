"""Unit tests for Resource and Store."""

import pytest

from repro.sim import Simulator, SimulationError, Resource, Store


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    first, second, third = res.request(), res.request(), res.request()
    sim.run()
    assert first.processed and second.processed
    assert not third.triggered
    assert res.in_use == 2
    assert res.queue_length == 1


def test_resource_fifo_handoff():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def holder(sim, name, hold):
        req = res.request()
        yield req
        order.append((name, sim.now))
        yield sim.timeout(hold)
        res.release()

    sim.process(holder(sim, "a", 10))
    sim.process(holder(sim, "b", 10))
    sim.process(holder(sim, "c", 10))
    sim.run()
    assert order == [("a", 0.0), ("b", 10.0), ("c", 20.0)]


def test_release_without_request_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim).release()


def test_resource_capacity_validation():
    with pytest.raises(ValueError):
        Resource(Simulator(), capacity=0)


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    store.offer("x")
    got = store.get()
    sim.run()
    assert got.value == "x"


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim):
        item = yield store.get()
        got.append((item, sim.now))

    def producer(sim):
        yield sim.timeout(50)
        store.offer("late")

    sim.process(consumer(sim))
    sim.process(producer(sim))
    sim.run()
    assert got == [("late", 50.0)]


def test_store_is_fifo():
    sim = Simulator()
    store = Store(sim)
    for item in ("a", "b", "c"):
        store.offer(item)
    values = [store.get() for _ in range(3)]
    sim.run()
    assert [v.value for v in values] == ["a", "b", "c"]


def test_store_len_and_items():
    sim = Simulator()
    store = Store(sim)
    assert len(store) == 0
    store.offer(1)
    store.offer(2)
    assert len(store) == 2
    assert store.items == (1, 2)


def test_multiple_getters_served_in_order():
    sim = Simulator()
    store = Store(sim)
    results = []

    def consumer(sim, name):
        item = yield store.get()
        results.append((name, item))

    sim.process(consumer(sim, "first"))
    sim.process(consumer(sim, "second"))

    def producer(sim):
        yield sim.timeout(1)
        store.offer("x")
        store.offer("y")

    sim.process(producer(sim))
    sim.run()
    assert results == [("first", "x"), ("second", "y")]


def test_try_acquire_grants_only_a_free_uncontended_unit():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    assert res.try_acquire() and res.in_use == 1
    assert not res.try_acquire()
    waiter = res.request()
    res.release()                       # handed to the waiter
    assert not res.try_acquire()        # held by the waiter now
    sim.run()
    assert waiter.processed and res.in_use == 1 and sim.events_executed == 1


def test_offer_hands_to_a_getter_or_appends_with_no_event_of_its_own():
    sim = Simulator()
    store = Store(sim)
    got = store.get()
    store.offer("a")
    assert got.triggered and len(store) == 0
    store.offer("b")
    assert store.items == ("b",)
    sim.run()
    assert got.value == "a" and sim.events_executed == 1


def test_take_is_an_event_free_get():
    sim = Simulator()
    store = Store(sim)
    with pytest.raises(SimulationError):
        store.take()
    store.offer("a")
    store.offer("b")
    assert store.take() == "a"
    assert store.items == ("b",)
    sim.run()
    assert sim.events_executed == 0


def test_drain_empties_the_store_and_leaves_getters_parked():
    sim = Simulator()
    store = Store(sim)
    store.offer("a")
    store.offer("b")
    assert store.drain() == ["a", "b"] and len(store) == 0
    got = store.get()
    assert store.drain() == [] and not got.triggered
    store.offer("c")
    sim.run()
    assert got.value == "c"
