"""Arming fault plans against a live cluster."""

import pytest

from repro.faults import (FaultInjector, FaultPlan, LinkDown, NodeStall,
                          PacketLoss, SocCrash)
from repro.net.cluster import SimCluster
from repro.net.topology import paper_testbed
from repro.rdma import RdmaContext
from repro.rdma.qp import QPState, QPType
from repro.sim import LOST


@pytest.fixture()
def cluster():
    return SimCluster(paper_testbed(), n_clients=1)


def test_empty_plan_touches_nothing(cluster):
    channel = cluster.channel(cluster.node("client0"))
    original_send = channel.send
    injector = cluster.install_faults(FaultPlan())
    assert cluster.fault_injector is None
    assert channel.send == original_send  # still the plain bound method
    assert injector.injected == 0


def test_unknown_link_target_rejected(cluster):
    with pytest.raises(ValueError, match="unknown fault target"):
        cluster.install_faults(FaultPlan(faults=(
            PacketLoss("net.nonexistent", 0.5),)))


def test_unknown_stall_node_rejected(cluster):
    with pytest.raises(KeyError):
        cluster.install_faults(FaultPlan(faults=(
            NodeStall("ghost", factor=2.0),)))


def test_double_install_rejected(cluster):
    injector = FaultInjector(cluster, FaultPlan())
    injector.install()
    with pytest.raises(RuntimeError):
        injector.install()


def test_link_down_window_drops_then_restores(cluster):
    cluster.install_faults(FaultPlan(faults=(
        LinkDown("net.client0", start=0.0, end=10_000.0),)))
    channel = cluster.channel(cluster.node("client0"))
    sim = cluster.sim
    results = []

    def sender():
        got = yield channel.send(64)
        results.append(("in-window", got is LOST))
        yield sim.timeout(20_000.0)
        got = yield channel.send(64)
        results.append(("after-window", got is LOST))

    sim.process(sender())
    sim.run()
    assert results == [("in-window", True), ("after-window", False)]
    assert cluster.stats["faults.injected"] == 1.0


def test_uninstall_restores_the_channel(cluster):
    channel = cluster.channel(cluster.node("client0"))
    original_send = channel.send
    injector = cluster.install_faults(FaultPlan(faults=(
        LinkDown("net.client0"),)))
    assert channel.send != original_send
    injector.uninstall()
    assert channel.send == original_send
    assert cluster.fault_injector is None


def test_uninstall_unwraps_pcie_trains(cluster):
    link = cluster.snic.pcie1
    channel = link.channel
    injector = cluster.install_faults(FaultPlan(faults=(
        LinkDown("pcie1"),)))
    assert "send" in vars(channel)
    sim = cluster.sim
    results = []

    def sender():
        results.append((yield link.send_data(4096, mps=128)) is LOST)
        injector.uninstall()
        results.append((yield link.send_data(4096, mps=128)) is LOST)

    sim.process(sender())
    sim.run()
    assert results == [True, False]
    assert "send" not in vars(channel)
    # Every TLP of the dropped train was drawn and counted.
    assert injector.injected == 32


def test_packet_loss_is_seed_deterministic():
    def drops(seed: int) -> int:
        cluster = SimCluster(paper_testbed(), n_clients=1)
        cluster.install_faults(
            FaultPlan.packet_loss("net.client0", 0.5, seed=seed))
        channel = cluster.channel(cluster.node("client0"))

        def sender():
            for _ in range(50):
                yield channel.send(64)

        cluster.sim.process(sender())
        cluster.sim.run()
        return int(cluster.stats.get("faults.injected", 0))

    a, b = drops(seed=7), drops(seed=7)
    assert a == b
    assert 0 < a < 50  # i.i.d. at 50 %: neither lossless nor total


def _dropped_sends(plan: FaultPlan, **install) -> tuple:
    """Indices of the dropped sends among 64 back-to-back ones."""
    cluster = SimCluster(paper_testbed(), n_clients=1)
    cluster.install_faults(plan, **install)
    channel = cluster.channel(cluster.node("client0"))
    dropped = []

    def sender():
        for i in range(64):
            if (yield channel.send(64)) is LOST:
                dropped.append(i)

    cluster.sim.process(sender())
    cluster.sim.run()
    return tuple(dropped)


def test_install_faults_draws_from_the_plan_seed():
    def plan(seed):
        return FaultPlan.packet_loss("net.client0", 0.5, seed=seed)

    assert _dropped_sends(plan(1)) == _dropped_sends(plan(1))
    assert _dropped_sends(plan(1)) != _dropped_sends(plan(2))
    # An explicit seed still wins over the plan's.
    assert _dropped_sends(plan(1), seed=2) == _dropped_sends(plan(2))


def test_dropped_transfer_still_occupies_the_wire(cluster):
    """Back-to-back sends serialize identically whether or not the
    first was dropped: the bytes burned wire time either way."""
    def second_delivery(lossy: bool) -> float:
        c = SimCluster(paper_testbed(), n_clients=1)
        if lossy:
            c.install_faults(FaultPlan(faults=(
                LinkDown("net.client0", end=1.0),)))
        channel = c.channel(c.node("client0"))
        times = []

        def sender():
            first = channel.send(1 << 20)
            second = channel.send(1 << 20)
            yield first
            yield second
            times.append(c.sim.now)

        c.sim.process(sender())
        c.sim.run()
        return times[0]

    assert second_delivery(lossy=True) == second_delivery(lossy=False)


def test_node_stall_scales_posting_latency(cluster):
    injector = cluster.install_faults(FaultPlan(faults=(
        NodeStall("soc", factor=4.0, start=1000.0, end=2000.0),)))
    soc = cluster.node("soc")
    client = cluster.node("client0")
    assert injector.cpu_factor(soc, 500.0) == 1.0
    assert injector.cpu_factor(soc, 1500.0) == 4.0
    assert injector.cpu_factor(soc, 2500.0) == 1.0
    assert injector.cpu_factor(client, 1500.0) == 1.0


def test_soc_crash_errors_its_qps_and_recovers(cluster):
    ctx = RdmaContext(cluster)
    soc_qp, host_qp = ctx.connect_rc("soc", "host")
    client_qp = ctx.create_qp("client0", QPType.RC)
    cluster.install_faults(FaultPlan(faults=(
        SocCrash(server="server0", at=5_000.0, recover_at=9_000.0),)))
    sim = cluster.sim
    seen = {}

    def probe():
        yield sim.timeout(6_000.0)
        seen["crashed"] = cluster.node("soc").crashed
        seen["soc_qp"] = soc_qp.state
        seen["host_qp"] = host_qp.state
        seen["client_qp"] = client_qp.state
        yield sim.timeout(4_000.0)
        seen["recovered"] = not cluster.node("soc").crashed

    sim.process(probe())
    sim.run()
    assert seen["crashed"]
    assert seen["soc_qp"] is QPState.ERROR
    assert seen["host_qp"] is QPState.RTS    # host side survives
    assert seen["client_qp"] is QPState.RESET  # never connected, untouched
    assert seen["recovered"]
    assert cluster.stats["faults.soc_crashes"] == 1.0
    assert cluster.stats["faults.soc_recoveries"] == 1.0


def test_crash_on_cluster_without_that_soc_rejected(cluster):
    with pytest.raises(ValueError, match="no SoC node"):
        cluster.install_faults(FaultPlan(faults=(
            SocCrash(server="server7"),)))
