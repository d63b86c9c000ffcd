"""Tests for memory regions, protection domains and completion queues."""

import pytest

from repro.net.cluster import SimCluster
from repro.net.topology import paper_testbed
from repro.rdma import AccessError, Completion, CompletionQueue, RdmaContext
from repro.rdma.mr import PAGE_BYTES
from repro.rdma.opcodes import CompletionStatus, WorkOpcode


@pytest.fixture()
def ctx():
    return RdmaContext(SimCluster(paper_testbed()))


def test_reg_mr_and_local_io(ctx):
    mr = ctx.reg_mr("host", 1024)
    mr.write_local(10, b"hello")
    assert mr.read_local(10, 5) == b"hello"
    assert mr.length == 1024


def test_mr_bounds_checked(ctx):
    mr = ctx.reg_mr("host", 64)
    with pytest.raises(AccessError):
        mr.write_local(60, b"toolong")
    with pytest.raises(AccessError):
        mr.read_local(-1, 4)


def test_mr_length_validation(ctx):
    with pytest.raises(ValueError):
        ctx.reg_mr("host", 0)


def test_dma_access_requires_rkey(ctx):
    mr = ctx.reg_mr("soc", 64)
    mr.write_local(0, b"data")
    assert mr.dma_read(0, 4, mr.rkey) == b"data"
    with pytest.raises(AccessError):
        mr.dma_read(0, 4, mr.rkey + 1)
    with pytest.raises(AccessError):
        mr.dma_write(0, b"x", 0xdead)


def test_pd_budget_enforced(ctx):
    soc_bytes = ctx.cluster.node("soc").memory_bytes
    ctx.reg_mr("soc", soc_bytes // 2)
    with pytest.raises(MemoryError):
        ctx.reg_mr("soc", soc_bytes)


def test_mr_backing_is_sparse(ctx):
    """Registering more than physical memory costs nothing until
    touched: only written pages are backed, the rest read as zero."""
    host = ctx.cluster.node("host")
    host.memory_bytes = 1 << 40
    mr = ctx.reg_mr("host", 1 << 39)            # 512 GiB
    mr.write_local(5, b"head")
    mr.write_local(mr.length - 4, b"tail")
    mr.dma_write(PAGE_BYTES - 2, b"span", mr.rkey)  # straddles two pages
    assert mr.read_local(0, 12) == b"\0" * 5 + b"head" + b"\0" * 3
    assert mr.read_local(mr.length - 4, 4) == b"tail"
    assert mr.dma_read(PAGE_BYTES - 2, 4, mr.rkey) == b"span"
    assert mr.read_local(1 << 38, 8) == bytes(8)
    assert len(mr._pages) == 3


def test_pd_dereg_frees_budget(ctx):
    pd = ctx.pd("host")
    mr = pd.reg_mr(1024)
    assert pd.lookup(mr.rkey) is mr
    pd.dereg_mr(mr)
    assert pd.lookup(mr.rkey) is None
    with pytest.raises(AccessError):
        pd.dereg_mr(mr)


def test_keys_are_unique(ctx):
    a = ctx.reg_mr("host", 64)
    b = ctx.reg_mr("host", 64)
    assert len({a.lkey, a.rkey, b.lkey, b.rkey}) == 4


# -- CQ -------------------------------------------------------------------------


def make_completion(sim, wr_id=1):
    return Completion(wr_id=wr_id, opcode=WorkOpcode.READ,
                      status=CompletionStatus.SUCCESS, byte_len=64,
                      timestamp=sim.now)


def test_cq_push_poll(ctx):
    sim = ctx.cluster.sim
    cq = CompletionQueue(sim)
    cq.push(make_completion(sim, 1))
    cq.push(make_completion(sim, 2))
    assert len(cq) == 2
    polled = cq.poll()
    assert [c.wr_id for c in polled] == [1, 2]
    assert len(cq) == 0
    assert polled[0].ok


def test_cq_poll_limit(ctx):
    sim = ctx.cluster.sim
    cq = CompletionQueue(sim)
    for i in range(5):
        cq.push(make_completion(sim, i))
    assert len(cq.poll(max_entries=2)) == 2
    with pytest.raises(ValueError):
        cq.poll(max_entries=0)


def test_cq_overflow_drops(ctx):
    sim = ctx.cluster.sim
    cq = CompletionQueue(sim, depth=2)
    for i in range(4):
        cq.push(make_completion(sim, i))
    assert len(cq) == 2
    assert cq.overflows == 2


def test_cq_wait_fires_on_push(ctx):
    sim = ctx.cluster.sim
    cq = CompletionQueue(sim)
    got = []

    def waiter():
        completion = yield cq.wait()
        got.append(completion.wr_id)

    sim.process(waiter())
    sim.run()
    assert got == []
    cq.push(make_completion(sim, 7))
    sim.run()
    assert got == [7]


def test_cq_depth_validation(ctx):
    with pytest.raises(ValueError):
        CompletionQueue(ctx.cluster.sim, depth=0)
