"""Tests for queue pairs: one-sided and two-sided verbs end to end."""

import pytest

from repro.net.cluster import SimCluster
from repro.net.topology import paper_testbed
from repro.rdma import AccessError, QPError, QPType, RdmaContext
from repro.rdma.opcodes import CompletionStatus, WorkOpcode


@pytest.fixture()
def ctx():
    return RdmaContext(SimCluster(paper_testbed()))


def run(ctx):
    ctx.cluster.sim.run()


def test_rc_read_moves_bytes(ctx):
    server = ctx.reg_mr("host", 4096)
    server.write_local(128, b"payload!")
    local = ctx.reg_mr("client0", 4096)
    qp, _ = ctx.connect_rc("client0", "host")
    qp.post_read(1, local, server, 8, remote_offset=128)
    run(ctx)
    assert local.read_local(0, 8) == b"payload!"
    completion = qp.send_cq.poll()[0]
    assert completion.wr_id == 1
    assert completion.opcode is WorkOpcode.READ
    assert completion.byte_len == 8


def test_rc_write_moves_bytes(ctx):
    server = ctx.reg_mr("soc", 4096)
    local = ctx.reg_mr("client0", 4096)
    local.write_local(0, b"to-soc")
    qp, _ = ctx.connect_rc("client0", "soc")
    qp.post_write(2, local, server, 6, remote_offset=64)
    run(ctx)
    assert server.read_local(64, 6) == b"to-soc"


def test_unsignaled_request_produces_no_cqe(ctx):
    server = ctx.reg_mr("host", 64)
    local = ctx.reg_mr("client0", 64)
    qp, _ = ctx.connect_rc("client0", "host")
    qp.post_write(1, local, server, 8, signaled=False)
    run(ctx)
    assert len(qp.send_cq) == 0


def test_bad_rkey_yields_remote_access_error(ctx):
    server = ctx.reg_mr("host", 64)
    local = ctx.reg_mr("client0", 64)
    qp, _ = ctx.connect_rc("client0", "host")
    qp.post_read(3, local, server, 8, rkey=0xBAD)
    run(ctx)
    completion = qp.send_cq.poll()[0]
    assert completion.status is CompletionStatus.REMOTE_ACCESS_ERROR
    assert not completion.ok


def test_one_sided_requires_rc(ctx):
    qp = ctx.create_qp("client0", QPType.UD)
    mr = ctx.reg_mr("client0", 64)
    with pytest.raises(QPError):
        qp.post_read(1, mr, mr, 8)


def test_one_sided_requires_connection(ctx):
    qp = ctx.create_qp("client0", QPType.RC)
    mr = ctx.reg_mr("client0", 64)
    with pytest.raises(QPError):
        qp.post_read(1, mr, mr, 8)


@pytest.mark.parametrize("responder, error", [("client1", QPError),
                                               ("host", ValueError)])
def test_one_sided_needs_a_distinct_server_side_responder(ctx, responder,
                                                          error):
    """The route is resolved at post time: a client responder has no
    NIC stage, and a node cannot be its own path-3 peer."""
    requester = "client0" if responder == "client1" else "host"
    local = ctx.reg_mr(requester, 64)
    remote = ctx.reg_mr(responder, 64)
    qp, _ = ctx.connect_rc(requester, responder)
    with pytest.raises(error):
        qp.post_write(1, local, remote, 64)
    assert qp.outstanding_sends == 0


def test_connect_validation(ctx):
    a = ctx.create_qp("client0", QPType.RC)
    b = ctx.create_qp("host", QPType.RC)
    ud = ctx.create_qp("soc", QPType.UD)
    with pytest.raises(QPError):
        a.connect(ud)
    a.connect(b)
    with pytest.raises(QPError):
        a.connect(b)


def test_local_mr_must_belong_to_node(ctx):
    foreign = ctx.reg_mr("client1", 64)
    server = ctx.reg_mr("host", 64)
    qp, _ = ctx.connect_rc("client0", "host")
    with pytest.raises(AccessError):
        qp.post_read(1, foreign, server, 8)


def test_ud_send_recv(ctx):
    sender = ctx.create_qp("client0", QPType.UD)
    receiver = ctx.create_qp("host", QPType.UD)
    buf = ctx.reg_mr("host", 1024)
    receiver.post_recv(9, buf, offset=100, length=64)
    sender.post_send(1, b"datagram", dest=receiver)
    run(ctx)
    completion = receiver.recv_cq.poll()[0]
    assert completion.wr_id == 9
    assert completion.byte_len == 8
    assert buf.read_local(100, 8) == b"datagram"
    # Sender can resolve the source for replies.
    assert ctx.cluster.qp_by_qpn(receiver.inbound_sources[0]) is sender


def test_ud_send_without_recv_is_dropped(ctx):
    sender = ctx.create_qp("client0", QPType.UD)
    receiver = ctx.create_qp("host", QPType.UD)
    sender.post_send(1, b"lost", dest=receiver)
    run(ctx)
    assert receiver.dropped_receives == 1
    assert len(receiver.recv_cq) == 0


def test_ud_send_needs_destination(ctx):
    sender = ctx.create_qp("client0", QPType.UD)
    with pytest.raises(QPError):
        sender.post_send(1, b"x")


def test_oversized_send_fails_receive(ctx):
    sender = ctx.create_qp("client0", QPType.UD)
    receiver = ctx.create_qp("host", QPType.UD)
    buf = ctx.reg_mr("host", 1024)
    receiver.post_recv(5, buf, offset=0, length=4)
    sender.post_send(1, b"way too big", dest=receiver)
    run(ctx)
    completion = receiver.recv_cq.poll()[0]
    assert completion.status is CompletionStatus.LOCAL_PROTECTION_ERROR


def test_rc_send_goes_to_peer(ctx):
    a, b = ctx.connect_rc("client0", "host")
    buf = ctx.reg_mr("host", 64)
    b.post_recv(1, buf)
    a.post_send(1, b"rc-msg")
    run(ctx)
    assert buf.read_local(0, 6) == b"rc-msg"


def test_path3_read_host_to_soc(ctx):
    soc_mr = ctx.reg_mr("soc", 4096)
    host_mr = ctx.reg_mr("host", 4096)
    soc_mr.write_local(0, b"soc-data")
    qp, _ = ctx.connect_rc("host", "soc")
    start = ctx.cluster.sim.now
    qp.post_read(1, host_mr, soc_mr, 8)
    run(ctx)
    assert host_mr.read_local(0, 8) == b"soc-data"
    # No network involved: internal-fabric latency only (~2.7 us model).
    assert ctx.cluster.sim.now - start < 3000


def test_path3_crosses_pcie1_twice(ctx):
    soc_mr = ctx.reg_mr("soc", 8192)
    host_mr = ctx.reg_mr("host", 8192)
    qp, _ = ctx.connect_rc("soc", "host")
    before_fwd = ctx.cluster.snic.pcie1.tlps_fwd
    before_rev = ctx.cluster.snic.pcie1.tlps_rev
    qp.post_write(1, soc_mr, host_mr, 4096)
    run(ctx)
    assert ctx.cluster.snic.pcie1.tlps_fwd > before_fwd
    assert ctx.cluster.snic.pcie1.tlps_rev > before_rev


def test_read_latency_ordering_matches_paper(ctx):
    """DES latencies agree with the Fig 4 ordering: RNIC < 2, then
    SNIC2 < SNIC1 for READ."""
    host_mr = ctx.reg_mr("host", 4096)
    soc_mr = ctx.reg_mr("soc", 4096)
    local = ctx.reg_mr("client0", 4096)
    sim = ctx.cluster.sim

    qp_host, _ = ctx.connect_rc("client0", "host")
    qp_soc, _ = ctx.connect_rc("client0", "soc")

    start = sim.now
    qp_host.post_read(1, local, host_mr, 64)
    sim.run()
    host_latency = sim.now - start

    start = sim.now
    qp_soc.post_read(2, local, soc_mr, 64)
    sim.run()
    soc_latency = sim.now - start

    assert soc_latency < host_latency
    assert 2000 < host_latency < 3200


def test_negative_length_rejected(ctx):
    server = ctx.reg_mr("host", 64)
    local = ctx.reg_mr("client0", 64)
    qp, _ = ctx.connect_rc("client0", "host")
    with pytest.raises(QPError):
        qp.post_read(1, local, server, -1)


def test_post_recv_validation(ctx):
    qp = ctx.create_qp("host", QPType.UD)
    mr = ctx.reg_mr("host", 64)
    with pytest.raises(QPError):
        qp.post_recv(1, mr, offset=60, length=10)
    foreign = ctx.reg_mr("client0", 64)
    with pytest.raises(AccessError):
        qp.post_recv(1, foreign)
    qp.post_recv(1, mr)
    assert qp.recv_queue_depth == 1


def test_unknown_qpn(ctx):
    with pytest.raises(QPError):
        ctx.cluster.qp_by_qpn(999999)


def test_qpn_registry_is_scoped_per_cluster():
    """Back-to-back simulations get identical QPNs and cannot observe
    each other's QPs (the registry is per-cluster, not process-global)."""
    first = RdmaContext(SimCluster(paper_testbed()))
    qp_a = first.create_qp("client0", QPType.UD)
    second = RdmaContext(SimCluster(paper_testbed()))
    qp_b = second.create_qp("client0", QPType.UD)
    assert qp_a.qpn == qp_b.qpn  # deterministic numbering per run
    assert second.cluster.qp_by_qpn(qp_b.qpn) is qp_b
    assert first.cluster.qp_by_qpn(qp_a.qpn) is qp_a


def test_qp_on_unattached_node_raises_clear_error():
    from repro.net.cluster import Node
    from repro.rdma.qp import QueuePair

    loose = Node("stray", "client", paper_testbed().client_cpu, 1024)
    with pytest.raises(QPError, match="not attached to a cluster"):
        QueuePair(loose, QPType.UD, None, None)
