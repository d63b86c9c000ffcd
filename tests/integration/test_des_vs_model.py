"""Cross-validation: the discrete-event simulation against the
closed-form models.

The DESIGN.md invariant: where the two engines overlap, they agree
within tolerance.  Latency per path/verb/payload (DES QP execution vs
LatencyModel), TLP counters (DES fabric vs PacketCountModel), and bulk
path-3 bandwidth (DES offload engine vs solver ceiling).
"""

import pytest

from repro.apps.offload import OffloadConfig, OffloadEngine
from repro.core.latency import LatencyModel
from repro.core.packets import PacketCountModel
from repro.core.paths import CommPath, Opcode
from repro.core.throughput import Flow, Scenario, ThroughputSolver
from repro.net.cluster import SimCluster
from repro.net.topology import paper_testbed
from repro.rdma import RdmaContext
from repro.units import KB, MB

PATH_NODES = {
    CommPath.SNIC1: ("client0", "host"),
    CommPath.SNIC2: ("client0", "soc"),
    CommPath.SNIC3_H2S: ("host", "soc"),
    CommPath.SNIC3_S2H: ("soc", "host"),
}


def des_latency(path, op, payload):
    cluster = SimCluster(paper_testbed())
    ctx = RdmaContext(cluster)
    requester, responder = PATH_NODES[path]
    remote = ctx.reg_mr(responder, 64 * KB)
    local = ctx.reg_mr(requester, 64 * KB)
    qp, _ = ctx.connect_rc(requester, responder)
    start = cluster.sim.now
    if op is Opcode.READ:
        qp.post_read(1, local, remote, payload)
    else:
        qp.post_write(1, local, remote, payload)
    cluster.sim.run()
    return cluster.sim.now - start


@pytest.mark.parametrize("path", list(PATH_NODES))
@pytest.mark.parametrize("op", [Opcode.READ, Opcode.WRITE])
@pytest.mark.parametrize("payload", [64, 4 * KB])
def test_des_latency_matches_model_within_15_percent(path, op, payload):
    model = LatencyModel(paper_testbed()).latency(path, op, payload).total
    des = des_latency(path, op, payload)
    assert des == pytest.approx(model, rel=0.15)


def test_des_tlp_counters_match_packet_model_write_to_soc():
    cluster = SimCluster(paper_testbed())
    ctx = RdmaContext(cluster)
    remote = ctx.reg_mr("soc", 64 * KB)
    local = ctx.reg_mr("client0", 64 * KB)
    qp, _ = ctx.connect_rc("client0", "soc")
    qp.post_write(1, local, remote, 4 * KB)
    cluster.sim.run()
    expected = PacketCountModel().counts(CommPath.SNIC2, Opcode.WRITE, 4 * KB)
    assert cluster.snic.pcie1.tlps_fwd == expected.pcie1_to_switch
    assert cluster.snic.pcie0.total_tlps == 0


def test_des_tlp_counters_match_packet_model_read_from_host():
    cluster = SimCluster(paper_testbed())
    ctx = RdmaContext(cluster)
    remote = ctx.reg_mr("host", 64 * KB)
    local = ctx.reg_mr("client0", 64 * KB)
    qp, _ = ctx.connect_rc("client0", "host")
    qp.post_read(1, local, remote, 4 * KB)
    cluster.sim.run()
    expected = PacketCountModel().counts(CommPath.SNIC1, Opcode.READ, 4 * KB)
    # Completions flow back toward the NIC on PCIe1.
    assert cluster.snic.pcie1.tlps_rev == expected.pcie1_to_nic
    # The read request crosses toward the host.
    assert cluster.snic.pcie0.tlps_fwd == expected.pcie0_to_host


def test_des_path3_tlps_cross_pcie1_twice():
    cluster = SimCluster(paper_testbed())
    ctx = RdmaContext(cluster)
    soc_mr = ctx.reg_mr("soc", 64 * KB)
    host_mr = ctx.reg_mr("host", 64 * KB)
    qp, _ = ctx.connect_rc("soc", "host")
    qp.post_write(1, soc_mr, host_mr, 4 * KB)
    cluster.sim.run()
    expected = PacketCountModel().counts(CommPath.SNIC3_S2H, Opcode.WRITE,
                                         4 * KB)
    assert (cluster.snic.pcie1.total_tlps
            == expected.pcie1_to_nic + expected.pcie1_to_switch)


def test_des_offload_goodput_within_solver_ceiling():
    cluster = SimCluster(paper_testbed())
    ctx = RdmaContext(cluster)
    host_mr = ctx.reg_mr("host", 16 * MB)
    soc_mr = ctx.reg_mr("soc", 16 * MB)
    engine = OffloadEngine(ctx, OffloadConfig(segment_bytes=1 * MB,
                                              doorbell_batch=16,
                                              inflight=16))
    proc = cluster.sim.process(engine.pull(host_mr, soc_mr, 16 * MB))
    cluster.sim.run()
    assert proc.ok
    ceiling = ThroughputSolver().solve(Scenario(
        paper_testbed(),
        [Flow(CommPath.SNIC3_H2S, Opcode.READ, 1 * MB, requesters=8)],
    )).goodput_of(0)
    achieved = engine.stats.goodput
    assert 0.6 * ceiling <= achieved <= 1.05 * ceiling
