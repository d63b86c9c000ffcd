"""Unit surface of the cross-shard fabric (topology, messages, router)."""

import pytest

from repro.sim.xshard import (ShardChannel, ShardMessage, ShardRouter,
                              ShardTopology)


def _msg(src="a", dst="b", deliver=100.0, msg_id=1, kind="bulk"):
    return ShardMessage(src=src, dst=dst, kind=kind, tenant="t",
                        nbytes=64, send_ns=deliver - 50.0,
                        deliver_ns=deliver, msg_id=msg_id)


def test_topology_uniform_and_overrides():
    topo = ShardTopology(shards=("a", "b", "c"), link_latency_ns=10_000.0,
                         overrides={("a", "b"): 5_000.0})
    assert topo.latency_ns("a", "b") == 5_000.0
    assert topo.latency_ns("b", "a") == 10_000.0
    assert topo.min_latency_ns() == 5_000.0
    with pytest.raises(KeyError):
        topo.latency_ns("a", "zz")


def test_topology_validates():
    with pytest.raises(ValueError, match="duplicate shard names"):
        ShardTopology(shards=("a", "a"))
    with pytest.raises(ValueError, match="positive"):
        ShardTopology(shards=("a", "b"), link_latency_ns=0.0)
    with pytest.raises(ValueError, match="unknown shard"):
        ShardTopology(shards=("a", "b"), overrides={("a", "zz"): 1.0})
    with pytest.raises(ValueError, match="positive"):
        ShardTopology(shards=("a", "b"), overrides={("a", "b"): -1.0})


def test_single_shard_topology_min_latency_falls_back():
    topo = ShardTopology(shards=("solo",), link_latency_ns=7.0)
    assert topo.min_latency_ns() == 7.0


def test_router_sorts_inboxes_deterministically():
    topo = ShardTopology.uniform(["a", "b"])
    router = ShardRouter(topo)
    router.route([_msg(deliver=200.0, msg_id=3),
                  _msg(deliver=100.0, msg_id=2),
                  _msg(deliver=100.0, msg_id=1)])
    assert router.in_flight
    inbox = router.take("b")
    assert [m.msg_id for m in inbox] == [1, 2, 3]
    assert not router.in_flight
    assert router.take("b") == []
    with pytest.raises(KeyError, match="unknown shard"):
        router.route([_msg(dst="zz")])


def test_channel_rejects_bad_bindings():
    topo = ShardTopology.uniform(["a", "b"])
    with pytest.raises(ValueError, match="not in topology"):
        ShardChannel("zz", topo)
    channel = ShardChannel("a", topo, {"t": "b"})
    assert channel.idle
