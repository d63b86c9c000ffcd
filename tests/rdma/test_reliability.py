"""The RC reliability protocol: retransmission, RNR, and recovery."""

import pytest

from repro.faults import FaultPlan, LinkDown, PacketLoss
from repro.net.cluster import SimCluster
from repro.net.topology import paper_testbed
from repro.rdma import RdmaContext
from repro.rdma.opcodes import CompletionStatus
from repro.rdma.qp import QPState, QPType


def make_ctx(plan=None, **cluster_kwargs):
    cluster = SimCluster(paper_testbed(), n_clients=1, **cluster_kwargs)
    if plan is not None:
        cluster.install_faults(plan)
    return RdmaContext(cluster)


def run_one_write(ctx, payload=1024):
    """Post one RC WRITE client->host and return its completion."""
    local = ctx.reg_mr("client0", payload)
    remote = ctx.reg_mr("host", payload)
    qp, _ = ctx.connect_rc("client0", "host")
    sim = ctx.cluster.sim

    def driver():
        yield qp.post_write(1, local, remote, payload)

    sim.process(driver())
    sim.run()
    comps = qp.send_cq.poll()
    assert len(comps) == 1
    return qp, comps[0]


def test_transient_loss_is_retransmitted_transparently():
    # The link is down just long enough to kill the first attempt.
    ctx = make_ctx(FaultPlan(faults=(
        LinkDown("net.client0", end=1_000.0),)))
    qp, completion = run_one_write(ctx)
    assert completion.status is CompletionStatus.SUCCESS
    assert ctx.cluster.stats["rdma.retransmits"] == 1.0
    assert qp.state is QPState.RTS


def test_retransmit_pays_the_ack_timeout():
    lossless = make_ctx()
    _, clean = run_one_write(lossless)
    lossy = make_ctx(FaultPlan(faults=(
        LinkDown("net.client0", end=1_000.0),)))
    qp, retried = run_one_write(lossy)
    # One retransmission costs at least the initial ack timeout.
    assert retried.timestamp >= clean.timestamp + qp.timeout_ns


def test_persistent_loss_exhausts_retries_and_wedges_the_qp():
    ctx = make_ctx(FaultPlan(faults=(LinkDown("net.client0"),)))
    qp, completion = run_one_write(ctx)
    assert completion.status is CompletionStatus.RETRY_EXC_ERR
    assert qp.state is QPState.ERROR
    assert ctx.cluster.stats["rdma.retransmits"] == qp.retry_cnt


def test_posts_on_a_wedged_qp_flush():
    ctx = make_ctx(FaultPlan(faults=(LinkDown("net.client0"),)))
    qp, _ = run_one_write(ctx)
    assert qp.state is QPState.ERROR
    local = ctx.reg_mr("client0", 64)
    remote = ctx.reg_mr("host", 64)
    sim = ctx.cluster.sim

    def driver():
        yield qp.post_write(2, local, remote, 64)

    sim.process(driver())
    sim.run()
    (flushed,) = qp.send_cq.poll()
    assert flushed.status is CompletionStatus.FLUSH_ERROR


def test_recover_returns_the_qp_to_service():
    # Link down long enough to exhaust all retries, then heals.
    ctx = make_ctx(FaultPlan(faults=(
        LinkDown("net.client0", end=2_000_000.0),)))
    qp, completion = run_one_write(ctx)
    assert completion.status is CompletionStatus.RETRY_EXC_ERR
    qp.recover()
    assert qp.state is QPState.RTS
    assert ctx.cluster.stats["qp.recoveries"] == 1.0
    local = ctx.reg_mr("client0", 64)
    remote = ctx.reg_mr("host", 64)
    sim = ctx.cluster.sim

    def driver():
        yield sim.timeout(2_000_000.0)  # wait out the outage
        yield qp.post_write(3, local, remote, 64)

    sim.process(driver())
    sim.run()
    (completion,) = qp.send_cq.poll()
    assert completion.status is CompletionStatus.SUCCESS


def test_rc_send_without_recv_buffer_draws_rnr_then_succeeds():
    ctx = make_ctx()
    a, b = ctx.connect_rc("client0", "host")
    mr = ctx.reg_mr("host", 4096)
    sim = ctx.cluster.sim

    def sender():
        yield a.post_send(1, b"payload")

    def late_receiver():
        # Posted only after the first attempt has already bounced.
        yield sim.timeout(30_000.0)
        b.post_recv(1, mr)

    sim.process(sender())
    sim.process(late_receiver())
    sim.run()
    (completion,) = a.send_cq.poll()
    assert completion.status is CompletionStatus.SUCCESS
    assert ctx.cluster.stats["rdma.rnr_naks"] >= 1.0
    (recv,) = b.recv_cq.poll()
    assert recv.ok


def test_rnr_retries_exhaust_into_a_fatal_status():
    ctx = make_ctx()
    a, b = ctx.connect_rc("client0", "host")
    sim = ctx.cluster.sim

    def sender():
        yield a.post_send(1, b"payload")

    sim.process(sender())
    sim.run()
    (completion,) = a.send_cq.poll()
    assert completion.status is CompletionStatus.RNR_RETRY_EXC_ERR
    assert a.state is QPState.ERROR
    # The RNR NAK count includes the first bounce plus every retry.
    assert ctx.cluster.stats["rdma.rnr_naks"] == a.rnr_retry + 1.0


def test_ud_send_stays_fire_and_forget():
    ctx = make_ctx(FaultPlan(faults=(LinkDown("net.client0"),)))
    a = ctx.create_qp("client0", QPType.UD)
    b = ctx.create_qp("host", QPType.UD)
    sim = ctx.cluster.sim

    def sender():
        yield a.post_send(1, b"datagram", dest=b)

    sim.process(sender())
    sim.run()
    (completion,) = a.send_cq.poll()
    # The datagram died on the wire, but UD never learns about it.
    assert completion.status is CompletionStatus.SUCCESS
    assert ctx.cluster.stats.get("rdma.retransmits", 0.0) == 0.0


def test_fault_free_write_adds_no_reliability_events():
    plain = SimCluster(paper_testbed(), n_clients=1)
    armed = SimCluster(paper_testbed(), n_clients=1)
    armed.install_faults(FaultPlan())  # empty: must cost nothing

    results = []
    for cluster in (plain, armed):
        ctx = RdmaContext(cluster)
        _, completion = run_one_write(ctx)
        results.append((completion.timestamp, cluster.sim.now,
                        cluster.sim.events_executed))
    assert results[0] == results[1]


def test_exhaustion_statuses_are_distinct():
    assert CompletionStatus.RETRY_EXC_ERR is not CompletionStatus.RNR_RETRY_EXC_ERR
    with pytest.raises(ValueError):
        CompletionStatus("not-a-status")


@pytest.mark.parametrize("inline", [False, True])
def test_fault_plan_installed_after_the_route_is_resolved(inline):
    """A QP resolves its datapath on its first verb.  A plan installed
    afterwards still poisons the channel, and uninstalling it restores
    delivery: the route holds channels, not their ``send`` methods."""
    ctx = make_ctx()
    cluster, sim = ctx.cluster, ctx.cluster.sim
    local = ctx.reg_mr("client0", 1024)
    remote = ctx.reg_mr("host", 1024)
    qp, _ = ctx.connect_rc("client0", "host")

    def write(wr_id):
        if inline:
            def driver():
                yield from qp.write(wr_id, local, remote, 1024)
            sim.process(driver())
        else:
            qp.post_write(wr_id, local, remote, 1024)
        sim.run()
        (completion,) = qp.send_cq.poll()
        return completion

    assert write(1).status is CompletionStatus.SUCCESS
    injector = cluster.install_faults(FaultPlan(faults=(
        PacketLoss("net.client0", rate=1.0),)))
    assert write(2).status is CompletionStatus.RETRY_EXC_ERR
    assert cluster.stats["rdma.retransmits"] == qp.retry_cnt
    assert cluster.stats["faults.injected"] > 0
    injected = cluster.stats["faults.injected"]
    injector.uninstall()
    qp.recover()
    assert write(3).status is CompletionStatus.SUCCESS
    assert cluster.stats["faults.injected"] == injected
