"""Property-based tests on the simulation kernel."""

from hypothesis import given, settings, strategies as st

from repro.sim import Resource, SimplexChannel, Simulator, Store


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                max_size=50))
def test_events_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.timeout(delay).add_callback(lambda e: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert sim.now == max(delays)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                max_size=40),
       st.floats(min_value=0.1, max_value=100.0))
def test_channel_conserves_bytes_and_orders_deliveries(sizes, bandwidth):
    sim = Simulator()
    channel = SimplexChannel(sim, bandwidth=bandwidth, latency=5.0)
    deliveries = []
    for index, size in enumerate(sizes):
        channel.send(size).add_callback(
            lambda e, i=index: deliveries.append((sim.now, i)))
    sim.run()
    assert channel.bytes_sent == sum(sizes)
    assert [i for _t, i in sorted(deliveries)] == list(range(len(sizes)))
    # Total time >= serialization of everything.
    assert sim.now >= sum(sizes) / bandwidth


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=30),
       st.lists(st.floats(min_value=1, max_value=50), min_size=1,
                max_size=30))
def test_resource_never_exceeds_capacity(capacity, _seed, hold_times):
    sim = Simulator()
    resource = Resource(sim, capacity=capacity)
    max_in_use = [0]

    def holder(hold):
        request = resource.request()
        yield request
        max_in_use[0] = max(max_in_use[0], resource.in_use)
        try:
            yield sim.timeout(hold)
        finally:
            resource.release()

    for hold in hold_times:
        sim.process(holder(hold))
    sim.run()
    assert max_in_use[0] <= capacity
    assert resource.in_use == 0
    assert resource.queue_length == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                max_size=50))
def test_store_is_lossless_and_fifo(items):
    sim = Simulator()
    store = Store(sim)
    received = []

    def consumer():
        for _ in items:
            value = yield store.get()
            received.append(value)

    sim.process(consumer())
    for item in items:
        store.offer(item)
    sim.run()
    assert received == items
