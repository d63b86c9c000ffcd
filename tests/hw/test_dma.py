"""Tests for the DES DMA engine: posted writes vs non-posted reads (Fig 3)."""

import pytest

from repro.sim import Simulator
from repro.hw.pcie import PCIE_GEN4, DmaEngine, PCIeLink, PCIeSwitch
from repro.hw.pcie.dma import LinkHop, SwitchHop, reverse_route


def make_fabric(sim, hop_latency=175.0):
    """A PCIe1 link + switch + PCIe0 link fabric, like Bluefield's."""
    pcie1 = PCIeLink(sim, PCIE_GEN4, latency=100.0, name="pcie1")
    pcie0 = PCIeLink(sim, PCIE_GEN4, latency=100.0, name="pcie0")
    switch = PCIeSwitch(sim, hop_latency=hop_latency)
    for port in ("nic", "host", "soc"):
        switch.add_port(port)
    route_to_host = [
        LinkHop(pcie1, forward=True),
        SwitchHop(switch, "nic", "host"),
        LinkHop(pcie0, forward=True),
    ]
    return pcie1, pcie0, switch, route_to_host


def test_write_is_posted_single_direction():
    sim = Simulator()
    pcie1, pcie0, _switch, route = make_fabric(sim)
    engine = DmaEngine(sim)
    done = engine.dma_write(route, nbytes=512, mps=512)
    sim.run()
    assert done.processed
    # Data TLPs flow forward only; nothing returns.
    assert pcie1.tlps_fwd == 1 and pcie1.tlps_rev == 0
    assert pcie0.tlps_fwd == 1 and pcie0.tlps_rev == 0


def test_read_crosses_fabric_twice():
    sim = Simulator()
    pcie1, pcie0, _switch, route = make_fabric(sim)
    engine = DmaEngine(sim)
    done = engine.dma_read(route, nbytes=512, mps=512)
    sim.run()
    assert done.processed
    # Request header out, completion with data back.
    assert pcie1.tlps_fwd == 1 and pcie1.tlps_rev == 1
    assert pcie0.tlps_fwd == 1 and pcie0.tlps_rev == 1
    assert pcie1.data_bytes_rev == 512


def test_read_latency_exceeds_write_latency():
    def run(op):
        sim = Simulator()
        _p1, _p0, _sw, route = make_fabric(sim)
        engine = DmaEngine(sim)
        if op == "write":
            engine.dma_write(route, nbytes=64, mps=512)
        else:
            engine.dma_read(route, nbytes=64, mps=512)
        sim.run()
        return sim.now

    # Fig 3: READ pays the fabric twice, WRITE once.
    assert run("read") > 1.8 * run("write")


def test_write_segments_into_mps_tlps():
    sim = Simulator()
    pcie1, _pcie0, _switch, route = make_fabric(sim)
    engine = DmaEngine(sim)
    engine.dma_write(route, nbytes=4096, mps=128)
    sim.run()
    assert pcie1.tlps_fwd == 32


def test_switch_hop_latency_accumulates():
    slow_times = []
    for hop_latency in (0.0, 500.0):
        sim = Simulator()
        _p1, _p0, _sw, route = make_fabric(sim, hop_latency=hop_latency)
        DmaEngine(sim).dma_write(route, nbytes=64, mps=512)
        sim.run()
        slow_times.append(sim.now)
    assert slow_times[1] - slow_times[0] == pytest.approx(500.0)


def test_reverse_route_flips_order_and_direction():
    sim = Simulator()
    _p1, _p0, switch, route = make_fabric(sim)
    rev = reverse_route(route)
    assert isinstance(rev[0], type(route[-1]))
    assert rev[1].src == "host" and rev[1].dst == "nic"
    assert rev[0].forward is False and rev[-1].forward is False


def test_zero_byte_read_completes():
    sim = Simulator()
    _p1, _p0, _sw, route = make_fabric(sim)
    done = DmaEngine(sim).dma_read(route, nbytes=0, mps=512)
    sim.run()
    assert done.processed


def test_negative_size_rejected():
    sim = Simulator()
    _p1, _p0, _sw, route = make_fabric(sim)
    engine = DmaEngine(sim)
    with pytest.raises(ValueError):
        engine.dma_write(route, nbytes=-1, mps=512)
    with pytest.raises(ValueError):
        engine.dma_read(route, nbytes=-1, mps=512)


def test_invalid_max_read_request():
    with pytest.raises(ValueError):
        DmaEngine(Simulator(), max_read_request=0)


@pytest.mark.parametrize("op", ["read", "write"])
def test_body_in_a_verb_matches_the_standalone_process(op):
    """A verb runs the transaction body inline; ``dma_read``/``dma_write``
    run the same body as a process, ending at the same instant."""
    def run(inline):
        sim = Simulator()
        _p1, _p0, _sw, route = make_fabric(sim)
        engine = DmaEngine(sim)
        body = engine.read if op == "read" else engine.write
        if inline:
            def verb():
                return (yield from body(route, 4096, 512))
            done = sim.process(verb())
        else:
            done = (engine.dma_read if op == "read"
                    else engine.dma_write)(route, 4096, 512)
        sim.run()
        return done.value, sim.now

    assert run(inline=True) == run(inline=False)
