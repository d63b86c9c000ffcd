"""Unit tests for bandwidth channels."""

import pytest

from repro.sim import Simulator, SimplexChannel, DuplexChannel
from repro.units import gbps


def test_serialization_time():
    sim = Simulator()
    # 1 byte/ns -> 100 bytes take 100 ns.
    chan = SimplexChannel(sim, bandwidth=1.0)
    done = chan.send(100)
    sim.run()
    assert done.processed
    assert sim.now == 100.0


def test_propagation_latency_added_after_serialization():
    sim = Simulator()
    chan = SimplexChannel(sim, bandwidth=1.0, latency=40.0)
    chan.send(100)
    sim.run()
    assert sim.now == 140.0


def test_transfers_serialize_fifo():
    sim = Simulator()
    chan = SimplexChannel(sim, bandwidth=2.0, latency=10.0)
    deliveries = []
    for size in (100, 100):
        chan.send(size).add_callback(lambda e: deliveries.append(sim.now))
    sim.run()
    # First: 50 ns serialize + 10 ns prop = 60; second starts at 50.
    assert deliveries == [60.0, 110.0]


def test_counters_accumulate():
    sim = Simulator()
    chan = SimplexChannel(sim, bandwidth=1.0)
    chan.send(10)
    chan.send(20)
    sim.run()
    assert chan.bytes_sent == 30
    assert chan.transfers == 2


def test_utilization():
    sim = Simulator()
    chan = SimplexChannel(sim, bandwidth=1.0)
    chan.send(50)
    sim.run(until=100)
    assert chan.utilization(100.0) == pytest.approx(0.5)


def test_zero_byte_transfer_is_instant_plus_latency():
    sim = Simulator()
    chan = SimplexChannel(sim, bandwidth=1.0, latency=5.0)
    done = chan.send(0)
    sim.run()
    assert done.processed
    assert sim.now == 5.0


def test_invalid_params_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        SimplexChannel(sim, bandwidth=0)
    with pytest.raises(ValueError):
        SimplexChannel(sim, bandwidth=1.0, latency=-1)
    with pytest.raises(ValueError):
        SimplexChannel(sim, bandwidth=1.0).send(-5)


def test_duplex_directions_are_independent():
    sim = Simulator()
    link = DuplexChannel(sim, bandwidth=1.0)
    deliveries = []
    link.send(100, forward=True).add_callback(lambda e: deliveries.append(("fwd", sim.now)))
    link.send(100, forward=False).add_callback(lambda e: deliveries.append(("rev", sim.now)))
    sim.run()
    # Opposite directions do not contend: both complete at t=100.
    assert deliveries == [("fwd", 100.0), ("rev", 100.0)]
    assert link.bytes_sent == 200


def test_duplex_same_direction_contends():
    sim = Simulator()
    link = DuplexChannel(sim, bandwidth=1.0)
    deliveries = []
    link.send(100, forward=True).add_callback(lambda e: deliveries.append(sim.now))
    link.send(100, forward=True).add_callback(lambda e: deliveries.append(sim.now))
    sim.run()
    assert deliveries == [100.0, 200.0]


def test_gbps_helper_round_trip():
    # A 200 Gbps NIC moves 25 bytes/ns.
    chan = SimplexChannel(Simulator(), bandwidth=gbps(200))
    assert chan.bandwidth == pytest.approx(25.0)
