"""Tests for the Fig 1 key-value store scenario."""

import pytest

from repro.apps.kvstore import (
    KVServer,
    KVStoreFullError,
    OffloadedKVClient,
    OneSidedKVClient,
)
from repro.net.cluster import SimCluster
from repro.net.topology import paper_testbed
from repro.rdma import RdmaContext


@pytest.fixture()
def ctx():
    return RdmaContext(SimCluster(paper_testbed()))


def run_get(ctx, client, key):
    result = {}
    proc = ctx.cluster.sim.process(client.get(key))
    proc.add_callback(lambda e: result.setdefault("value", e.value))
    ctx.cluster.sim.run()
    return result.get("value")


def test_server_put_get_local(ctx):
    server = KVServer(ctx, "host")
    server.put(b"k1", b"v1")
    server.put(b"k2", b"longer-value")
    assert server.get_local(b"k1") == b"v1"
    assert server.get_local(b"k2") == b"longer-value"
    assert server.get_local(b"missing") is None
    assert len(server) == 2


def test_server_update_in_place(ctx):
    server = KVServer(ctx, "host")
    server.put(b"k", b"old")
    server.put(b"k", b"new")
    assert server.get_local(b"k") == b"new"


def test_server_validation(ctx):
    with pytest.raises(ValueError):
        KVServer(ctx, "host", n_buckets=100)  # not a power of two
    server = KVServer(ctx, "host", log_bytes=128)
    with pytest.raises(ValueError):
        server.put(b"", b"v")
    with pytest.raises(KVStoreFullError):
        server.put(b"big", b"x" * 4096)


def test_one_sided_get_needs_two_round_trips(ctx):
    server = KVServer(ctx, "host")
    server.put(b"user:1", b"alice")
    client = OneSidedKVClient(ctx, "client0", server)
    assert run_get(ctx, client, b"user:1") == b"alice"
    # Fig 1(a): network amplification — 2 READs per get.
    assert client.stats.round_trips_per_get == 2.0


def test_one_sided_miss_costs_one_round_trip(ctx):
    server = KVServer(ctx, "host")
    client = OneSidedKVClient(ctx, "client0", server)
    assert run_get(ctx, client, b"missing") is None
    assert client.stats.misses == 1
    assert client.stats.network_round_trips == 1


def test_offloaded_get_single_round_trip(ctx):
    server = KVServer(ctx, "soc")
    server.put(b"user:1", b"alice")
    client = OffloadedKVClient(ctx, "client0", server)
    assert run_get(ctx, client, b"user:1") == b"alice"
    # Fig 1(b): one RPC, no amplification.
    assert client.stats.round_trips_per_get == 1.0


def test_offloaded_miss(ctx):
    server = KVServer(ctx, "soc")
    client = OffloadedKVClient(ctx, "client0", server)
    assert run_get(ctx, client, b"nope") is None
    assert client.stats.misses == 1


def test_offloaded_requires_soc_store(ctx):
    host_server = KVServer(ctx, "host")
    with pytest.raises(ValueError):
        OffloadedKVClient(ctx, "client0", host_server)


def test_offload_beats_one_sided_latency(ctx):
    """The paper's Fig 1 point: offloading kills the second round trip."""
    host_store = KVServer(ctx, "host")
    soc_store = KVServer(ctx, "soc")
    for store in (host_store, soc_store):
        store.put(b"key", b"value-123")
    one_sided = OneSidedKVClient(ctx, "client0", host_store)
    offloaded = OffloadedKVClient(ctx, "client1", soc_store)
    assert run_get(ctx, one_sided, b"key") == b"value-123"
    assert run_get(ctx, offloaded, b"key") == b"value-123"
    assert (offloaded.stats.latency.mean
            < 0.75 * one_sided.stats.latency.mean)


def test_many_keys_roundtrip(ctx):
    server = KVServer(ctx, "host", n_buckets=4096, log_bytes=1 << 20)
    client = OneSidedKVClient(ctx, "client0", server)
    keys = {f"key-{i}".encode(): f"value-{i}".encode() for i in range(200)}
    for key, value in keys.items():
        server.put(key, value)
    # Keys sharing a home bucket included: each reads back its own value.
    for key, value in keys.items():
        assert run_get(ctx, client, key) == value
    assert client.stats.misses == 0


def _keys_sharing_a_bucket(server, count):
    """The first ``count`` keys ``k0, k1, ...`` with one home bucket."""
    by_bucket = {}
    for i in range(10_000):
        key = f"k{i}".encode()
        group = by_bucket.setdefault(server.bucket_of(key), [])
        group.append(key)
        if len(group) == count:
            return group
    raise AssertionError("no bucket collision found")


def test_keys_sharing_a_bucket_are_all_readable(ctx):
    server = KVServer(ctx, "host", n_buckets=8)
    first, second = _keys_sharing_a_bucket(server, 2)
    server.put(first, b"one")
    server.put(second, b"two")       # probes past the taken home bucket
    server.put(first, b"one again")  # an update stays in its bucket
    assert server.get_local(first) == b"one again"
    assert server.get_local(second) == b"two"
    assert len(server) == 2
    client = OneSidedKVClient(ctx, "client0", server)
    assert run_get(ctx, client, first) == b"one again"
    assert client.stats.network_round_trips == 2
    # The displaced key costs one more bucket READ.
    assert run_get(ctx, client, second) == b"two"
    assert client.stats.network_round_trips == 2 + 3


def test_full_index_raises_instead_of_overwriting(ctx):
    server = KVServer(ctx, "host", n_buckets=2)
    server.put(b"a", b"1")
    server.put(b"b", b"2")
    with pytest.raises(KVStoreFullError, match="index full"):
        server.put(b"c", b"3")
    assert server.get_local(b"a") == b"1"
    assert server.get_local(b"b") == b"2"
    assert server.get_local(b"c") is None
