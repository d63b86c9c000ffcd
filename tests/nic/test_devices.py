"""Tests for the RNIC and SmartNIC device wiring."""

import pytest

from repro.hw.pcie.dma import reverse_route
from repro.sim import Simulator
from repro.nic import (
    BLUEFIELD2,
    BLUEFIELD3,
    CONNECTX4,
    CONNECTX6,
    RNIC,
    SmartNIC,
)
from repro.nic.core import Endpoint
from repro.nic.specs import DoorbellCosts
from repro.units import GB, to_gbps


def test_bluefield2_matches_table1():
    spec = BLUEFIELD2
    assert spec.cores.ports == 2 and spec.cores.port_gbps == 100.0
    assert to_gbps(spec.pcie1.bandwidth) == pytest.approx(256.0)
    assert spec.host_mps == 512 and spec.soc_mps == 128
    assert spec.soc_cpu.total_cores == 8
    assert 150.0 <= spec.switch_hop_ns <= 200.0


def test_smartnic_soc_dram_is_16gb():
    assert SmartNIC(BLUEFIELD2).soc.dram_bytes == 16 * GB


def test_mps_depends_on_endpoint():
    snic = SmartNIC(BLUEFIELD2)
    assert snic.mps_for(Endpoint.HOST) == 512
    assert snic.mps_for(Endpoint.SOC) == 128


def test_crossings_host_vs_soc():
    snic = SmartNIC(BLUEFIELD2)
    assert snic.pcie_crossings_to(Endpoint.HOST) == 2
    assert snic.pcie_crossings_to(Endpoint.SOC) == 1
    assert (snic.crossing_latency(Endpoint.SOC)
            < snic.crossing_latency(Endpoint.HOST))


def test_rnic_single_crossing():
    rnic = RNIC(CONNECTX6)
    assert rnic.pcie_crossings_to_host() == 1
    assert rnic.host_mps == 512


def test_memory_of_endpoint():
    snic = SmartNIC(BLUEFIELD2)
    assert snic.memory_of(Endpoint.HOST).ddio
    assert not snic.memory_of(Endpoint.SOC).ddio


def test_route_requires_instantiation():
    snic = SmartNIC(BLUEFIELD2)
    with pytest.raises(RuntimeError):
        snic.route_to(Endpoint.HOST)
    rnic = RNIC(CONNECTX6)
    with pytest.raises(RuntimeError):
        rnic.route_to_host()


def test_instantiated_routes():
    sim = Simulator()
    snic = SmartNIC(BLUEFIELD2).instantiate(sim)
    to_host = snic.route_to(Endpoint.HOST)
    to_soc = snic.route_to(Endpoint.SOC)
    assert len(to_host) == 3  # pcie1, switch, pcie0
    assert len(to_soc) == 2   # pcie1, switch only


def test_routes_are_built_once_per_nic():
    sim = Simulator()
    snic = SmartNIC(BLUEFIELD2).instantiate(sim)
    other = SmartNIC(BLUEFIELD2).instantiate(sim)
    for endpoint in (Endpoint.HOST, Endpoint.SOC):
        route = snic.route_to(endpoint)
        assert isinstance(route, tuple)
        assert snic.route_to(endpoint) is route
        assert snic.route_from(endpoint) == reverse_route(route)
        assert other.route_to(endpoint) != route   # its own links
    assert snic.route_host_to_soc() is snic.route_host_to_soc()
    rnic = RNIC(CONNECTX6).instantiate(sim)
    assert rnic.route_to_host() is rnic.route_to_host()
    assert rnic.route_from_host() == reverse_route(rnic.route_to_host())


def test_host_to_soc_route_crosses_pcie1_twice():
    sim = Simulator()
    snic = SmartNIC(BLUEFIELD2).instantiate(sim)
    route = snic.route_host_to_soc()
    pcie1_hops = [h for h in route
                  if getattr(h, "link", None) is snic.pcie1]
    assert len(pcie1_hops) == 2
    directions = {h.forward for h in pcie1_hops}
    assert directions == {True, False}  # in and out


def test_route_dma_executes():
    sim = Simulator()
    snic = SmartNIC(BLUEFIELD2).instantiate(sim)
    done = snic.dma.dma_write(snic.route_host_to_soc(), nbytes=4096,
                              mps=snic.mps_for(Endpoint.SOC))
    sim.run()
    assert done.processed
    assert snic.pcie1.tlps_rev == 32
    assert snic.pcie1.tlps_fwd == 32


def test_connectx4_is_single_port_gen3():
    assert CONNECTX4.cores.ports == 1
    assert to_gbps(CONNECTX4.host_link.bandwidth) == pytest.approx(128.0)


def test_bluefield3_scales_up():
    assert BLUEFIELD3.cores.network_bandwidth > BLUEFIELD2.cores.network_bandwidth
    assert BLUEFIELD3.pcie1.bandwidth > BLUEFIELD2.pcie1.bandwidth


def test_doorbell_cost_model_validation():
    with pytest.raises(ValueError):
        DoorbellCosts(per_request=0, batch_fixed=1, per_wqe=1)
    db = DoorbellCosts(per_request=100, batch_fixed=400, per_wqe=20)
    with pytest.raises(ValueError):
        db.batched_cost_per_request(0)


def test_doorbell_speedup_matches_fig10b_soc_side():
    db = BLUEFIELD2.soc_doorbell
    # S3.3 Advice #4: 2.7x at batch 16 up to 4.6x at batch 80.
    assert db.speedup(16) == pytest.approx(2.7, rel=0.02)
    assert db.speedup(80) == pytest.approx(4.6, rel=0.02)
    assert db.speedup(32) > db.speedup(16)


def test_doorbell_regression_matches_fig10b_host_side():
    db = BLUEFIELD2.host_doorbell
    # S3.3 Advice #4: DB *decreases* host-side throughput by 9/7/6 %.
    assert db.speedup(16) == pytest.approx(1 / 1.099, rel=0.02)
    assert db.speedup(32) == pytest.approx(1 / 1.07, rel=0.02)
    assert db.speedup(48) == pytest.approx(1 / 1.064, rel=0.02)
