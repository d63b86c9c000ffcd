"""Tests for the QP state machine, queue depths and flushing."""

import pytest

from repro.net.cluster import SimCluster
from repro.net.topology import paper_testbed
from repro.rdma import (
    CompletionStatus,
    QPError,
    QPState,
    QPType,
    RdmaContext,
)


@pytest.fixture()
def ctx():
    return RdmaContext(SimCluster(paper_testbed()))


# -- state machine ------------------------------------------------------------


def test_initial_states(ctx):
    rc = ctx.create_qp("client0", QPType.RC)
    ud = ctx.create_qp("client0", QPType.UD)
    assert rc.state is QPState.RESET
    assert ud.state is QPState.RTS


def test_connect_moves_both_ends_to_rts(ctx):
    a, b = ctx.connect_rc("client0", "host")
    assert a.state is QPState.RTS
    assert b.state is QPState.RTS


def test_manual_modify_qp_walk(ctx):
    qp = ctx.create_qp("client0", QPType.RC)
    qp.modify_qp(QPState.INIT)
    qp.modify_qp(QPState.RTR)
    qp.modify_qp(QPState.RTS)
    assert qp.state is QPState.RTS


def test_illegal_transition_rejected(ctx):
    qp = ctx.create_qp("client0", QPType.RC)
    with pytest.raises(QPError):
        qp.modify_qp(QPState.RTS)  # RESET -> RTS skips INIT/RTR
    qp.modify_qp(QPState.INIT)
    with pytest.raises(QPError):
        qp.modify_qp(QPState.INIT)


def test_error_and_reset_reachable_from_anywhere(ctx):
    qp = ctx.create_qp("client0", QPType.RC)
    qp.modify_qp(QPState.ERROR)
    assert qp.state is QPState.ERROR
    qp.modify_qp(QPState.RESET)
    assert qp.state is QPState.RESET


def test_cannot_connect_non_reset_qp(ctx):
    a = ctx.create_qp("client0", QPType.RC)
    b = ctx.create_qp("host", QPType.RC)
    a.modify_qp(QPState.INIT)
    with pytest.raises(QPError):
        a.connect(b)


def test_post_send_requires_rts(ctx):
    a = ctx.create_qp("client0", QPType.RC)
    b = ctx.create_qp("host", QPType.RC)
    a.peer = b  # bypass connect to leave the state at RESET
    b.peer = a
    mr = ctx.reg_mr("client0", 64)
    server = ctx.reg_mr("host", 64)
    with pytest.raises(QPError):
        a.post_read(1, mr, server, 8)


def test_post_recv_requires_non_reset(ctx):
    qp = ctx.create_qp("client0", QPType.RC)
    mr = ctx.reg_mr("client0", 64)
    with pytest.raises(QPError):
        qp.post_recv(1, mr)
    qp.modify_qp(QPState.INIT)
    qp.post_recv(1, mr)


# -- error flushing -----------------------------------------------------------------


def test_remote_access_error_wedges_the_qp(ctx):
    server = ctx.reg_mr("host", 64)
    local = ctx.reg_mr("client0", 64)
    qp, _ = ctx.connect_rc("client0", "host")
    qp.post_read(1, local, server, 8, rkey=0xBAD)
    ctx.cluster.sim.run()
    assert qp.state is QPState.ERROR


def test_posts_after_error_flush(ctx):
    server = ctx.reg_mr("host", 64)
    local = ctx.reg_mr("client0", 64)
    qp, _ = ctx.connect_rc("client0", "host")
    qp.post_read(1, local, server, 8, rkey=0xBAD)
    ctx.cluster.sim.run()
    qp.send_cq.poll()
    qp.post_read(2, local, server, 8)
    ctx.cluster.sim.run()
    flushed = qp.send_cq.poll()[0]
    assert flushed.wr_id == 2
    assert flushed.status is CompletionStatus.FLUSH_ERROR
    # The flushed WR never touched the wire.
    assert local.read_local(0, 8) == bytes(8)


def test_error_completions_ignore_unsignaled(ctx):
    """Failed WRs always generate a completion, even unsignaled ones."""
    server = ctx.reg_mr("host", 64)
    local = ctx.reg_mr("client0", 64)
    qp, _ = ctx.connect_rc("client0", "host")
    qp.post_read(1, local, server, 8, rkey=0xBAD, signaled=False)
    ctx.cluster.sim.run()
    assert len(qp.send_cq) == 1


# -- queue depths ------------------------------------------------------------------------


def test_send_queue_depth_enforced(ctx):
    server = ctx.reg_mr("host", 1 << 16)
    local = ctx.reg_mr("client0", 1 << 16)
    a = ctx.create_qp("client0", QPType.RC)
    b = ctx.create_qp("host", QPType.RC)
    a.max_send_wr = 4
    a.connect(b)
    for i in range(4):
        a.post_read(i, local, server, 8)
    with pytest.raises(QPError):
        a.post_read(99, local, server, 8)
    ctx.cluster.sim.run()
    assert a.outstanding_sends == 0  # drained after completion
    a.post_read(100, local, server, 8)  # admissible again


def test_recv_queue_depth_enforced(ctx):
    qp = ctx.create_qp("host", QPType.UD)
    qp.max_recv_wr = 2
    mr = ctx.reg_mr("host", 1024)
    qp.post_recv(1, mr)
    qp.post_recv(2, mr)
    with pytest.raises(QPError):
        qp.post_recv(3, mr)


def test_depth_validation(ctx):
    from repro.rdma.cq import CompletionQueue

    sim = ctx.cluster.sim
    node = ctx.cluster.node("client0")
    from repro.rdma.qp import QueuePair
    with pytest.raises(QPError):
        QueuePair(node, QPType.RC, CompletionQueue(sim), CompletionQueue(sim),
                  max_send_wr=0)
