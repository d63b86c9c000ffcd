"""Tests for PCIe link specs, simulated links, switch, MMIO."""

import pytest

from repro.sim import Simulator
from repro.hw.pcie import (
    PCIE_GEN3,
    PCIE_GEN4,
    MMIOModel,
    PCIeGen,
    PCIeLink,
    PCIeLinkSpec,
    PCIeSwitch,
)
from repro.units import to_gbps


def test_gen4_x16_is_256_gbps():
    assert PCIE_GEN4.raw_gbps == 256.0
    assert to_gbps(PCIE_GEN4.bandwidth) == pytest.approx(256.0)


def test_gen3_x16_is_128_gbps():
    # The CLI machines' host link (Table 2).
    assert PCIE_GEN3.raw_gbps == 128.0


def test_effective_bandwidth_penalizes_small_mps():
    eff_128 = PCIE_GEN4.effective_bandwidth(128)
    eff_512 = PCIE_GEN4.effective_bandwidth(512)
    assert eff_128 < eff_512 < PCIE_GEN4.bandwidth
    # 128 B MPS: 128/152 ~ 84 % efficiency.
    assert to_gbps(eff_128) == pytest.approx(256 * 128 / 152, rel=1e-6)


def test_effective_bandwidth_validates_payload():
    with pytest.raises(ValueError):
        PCIE_GEN4.effective_bandwidth(0)


def test_spec_validation():
    with pytest.raises(ValueError):
        PCIeLinkSpec(PCIeGen.GEN4, lanes=3)
    with pytest.raises(ValueError):
        PCIeLinkSpec(PCIeGen.GEN4, lanes=16, mps=100)


def test_link_counts_tlps_per_direction():
    sim = Simulator()
    link = PCIeLink(sim, PCIE_GEN4, name="pcie1")
    link.send_data(512, mps=512, forward=True)
    link.send_data(512, mps=512, forward=True)
    link.send_data(128, mps=512, forward=False)
    sim.run()
    assert link.tlps_fwd == 2
    assert link.tlps_rev == 1
    assert link.total_tlps == 3
    assert link.data_bytes_fwd == 1024
    assert link.data_bytes_rev == 128


def test_link_send_data_segments_at_mps():
    sim = Simulator()
    link = PCIeLink(sim, PCIE_GEN4)
    done = link.send_data(4096, mps=128)
    sim.run()
    assert done.processed
    assert link.tlps_fwd == 32


def test_link_zero_byte_data_sends_no_tlps():
    sim = Simulator()
    link = PCIeLink(sim, PCIE_GEN4, latency=10.0)
    done = link.send_data(0, mps=512)
    sim.run()
    assert done.processed
    assert link.total_tlps == 0
    assert sim.now == 10.0


def test_switch_forward_adds_hop_latency():
    sim = Simulator()
    switch = PCIeSwitch(sim, hop_latency=175.0)
    switch.add_port("nic")
    switch.add_port("host")
    done = switch.forward("nic", "host", payload=64)
    sim.run()
    assert done.processed
    assert sim.now == 175.0


def test_switch_duplicate_port_rejected():
    switch = PCIeSwitch(Simulator())
    switch.add_port("x")
    with pytest.raises(ValueError):
        switch.add_port("x")


def test_switch_unknown_port_rejected():
    switch = PCIeSwitch(Simulator())
    with pytest.raises(KeyError):
        switch.port("nope")


def test_switch_negative_latency_rejected():
    with pytest.raises(ValueError):
        PCIeSwitch(Simulator(), hop_latency=-1)


def test_mmio_latency_grows_with_hops():
    mmio = MMIOModel(base=100.0, per_hop=175.0)
    assert mmio.write_latency(0) == 100.0
    assert mmio.write_latency(1) == 275.0
    assert mmio.write_latency(3) == 625.0


def test_mmio_validation():
    with pytest.raises(ValueError):
        MMIOModel(base=-1)
    with pytest.raises(ValueError):
        MMIOModel(base=10).write_latency(-1)
