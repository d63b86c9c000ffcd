"""The RNIC baseline build-out in the DES, versus the SmartNIC.

Fig 4's headline comparison (the SmartNIC "performance tax") reproduced
end to end on the simulation: the same verbs against the same testbed
with the server NIC swapped.
"""

import pytest

from repro.core.latency import LatencyModel
from repro.core.paths import CommPath, Opcode
from repro.net.cluster import SimCluster
from repro.net.topology import paper_testbed
from repro.nic.core import Endpoint
from repro.rdma import RdmaContext


def des_read_latency(nic: str, payload: int = 64) -> float:
    cluster = SimCluster(paper_testbed(), nic=nic)
    ctx = RdmaContext(cluster)
    server = ctx.reg_mr("host", 1 << 16)
    local = ctx.reg_mr("client0", 1 << 16)
    qp, _ = ctx.connect_rc("client0", "host")
    qp.post_read(1, local, server, payload)
    cluster.sim.run()
    return cluster.sim.now


def test_rnic_mode_builds_without_soc():
    cluster = SimCluster(paper_testbed(), nic="rnic")
    assert cluster.snic is None
    assert cluster.rnic is not None
    assert "soc" not in cluster.nodes
    with pytest.raises(KeyError):
        cluster.node("soc")


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        SimCluster(paper_testbed(), nic="dpu")


def test_rnic_mode_rejects_soc_dma():
    cluster = SimCluster(paper_testbed(), nic="rnic")
    with pytest.raises(ValueError):
        cluster.servers["server0"].dma_route(Endpoint.SOC)


def test_smartnic_tax_emerges_in_des():
    """S3.1: extending the RNIC to a SmartNIC costs ~0.6 us on READ."""
    rnic = des_read_latency("rnic")
    snic = des_read_latency("snic")
    assert snic - rnic == pytest.approx(600, abs=100)
    assert 1.15 <= snic / rnic <= 1.35


def test_rnic_des_matches_latency_model():
    model = LatencyModel(paper_testbed()).latency(
        CommPath.RNIC1, Opcode.READ, 64).total
    assert des_read_latency("rnic") == pytest.approx(model, rel=0.15)


def test_rnic_write_moves_bytes():
    cluster = SimCluster(paper_testbed(), nic="rnic")
    ctx = RdmaContext(cluster)
    server = ctx.reg_mr("host", 4096)
    local = ctx.reg_mr("client0", 4096)
    local.write_local(0, b"baseline")
    qp, _ = ctx.connect_rc("client0", "host")
    qp.post_write(1, local, server, 8)
    cluster.sim.run()
    assert server.read_local(0, 8) == b"baseline"
    # The RNIC's single host link carried the TLP.
    assert cluster.rnic.host_link.tlps_fwd == 1


def test_rnic_read_crosses_host_link_twice():
    cluster = SimCluster(paper_testbed(), nic="rnic")
    ctx = RdmaContext(cluster)
    server = ctx.reg_mr("host", 4096)
    local = ctx.reg_mr("client0", 4096)
    qp, _ = ctx.connect_rc("client0", "host")
    qp.post_read(1, local, server, 512)
    cluster.sim.run()
    link = cluster.rnic.host_link
    assert link.tlps_fwd == 1  # the read request
    assert link.tlps_rev == 1  # the completion with data
