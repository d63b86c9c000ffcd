"""Property-based tests on the KV store's on-disk^W in-MR layout."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.kvstore import KVServer
from repro.net.cluster import SimCluster
from repro.net.topology import paper_testbed
from repro.rdma import RdmaContext

_keys = st.binary(min_size=1, max_size=24)
_values = st.binary(min_size=0, max_size=128)


def make_server():
    ctx = RdmaContext(SimCluster(paper_testbed()))
    return KVServer(ctx, "host", n_buckets=1024, log_bytes=1 << 20)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.dictionaries(_keys, _values, min_size=1, max_size=40))
def test_put_get_roundtrip_modulo_bucket_collisions(items):
    server = make_server()
    for key, value in items.items():
        server.put(key, value)
    # A key landing in a taken home bucket is probed past, never
    # evicting the earlier one: every key reads back its own value.
    for key, value in items.items():
        assert server.get_local(key) == value


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_keys, st.lists(_values, min_size=1, max_size=10))
def test_last_update_wins(key, versions):
    server = make_server()
    for value in versions:
        server.put(key, value)
    assert server.get_local(key) == versions[-1]


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sets(_keys, min_size=1, max_size=30))
def test_missing_keys_miss(keys):
    server = make_server()
    present = sorted(keys)[: len(keys) // 2]
    for key in present:
        server.put(key, b"here")
    taken_buckets = {server.bucket_of(k) for k in present}
    for key in keys:
        if key in present:
            continue
        if server.bucket_of(key) in taken_buckets:
            continue  # untouched buckets only: must miss
        assert server.get_local(key) is None
