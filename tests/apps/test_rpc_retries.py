"""Client-side retries: offloaded KV gets under lossy links."""

from repro.apps.kvstore import KVServer, KVTimeoutError, OffloadedKVClient
from repro.faults import FaultPlan, LinkDown
from repro.net.cluster import SimCluster
from repro.net.topology import paper_testbed
from repro.rdma import RdmaContext


def make_ctx(plan=None):
    cluster = SimCluster(paper_testbed())
    if plan is not None:
        cluster.install_faults(plan)
    return RdmaContext(cluster)


def run_call(ctx, generator):
    """Run one client generator to completion; return (value, error)."""
    result = {}

    def driver():
        try:
            result["value"] = yield from generator
        except KVTimeoutError as exc:
            result["error"] = exc

    ctx.cluster.sim.process(driver())
    ctx.cluster.sim.run()
    return result.get("value"), result.get("error")


# -- offloaded KV gets -------------------------------------------------------


def offloaded(ctx, **client_kwargs):
    server = KVServer(ctx, "soc")
    server.put(b"user:1", b"alice")
    return OffloadedKVClient(ctx, "client0", server, **client_kwargs)


def test_kv_get_retry_rides_out_a_transient_outage():
    ctx = make_ctx(FaultPlan(faults=(LinkDown("net.client0", end=5_000.0),)))
    client = offloaded(ctx, timeout_ns=50_000.0, max_retries=3)
    value, error = run_call(ctx, client.get(b"user:1"))
    assert error is None
    assert value == b"alice"
    assert client.stats.timeouts == 1
    assert client.stats.gets == 1


def test_kv_get_exhaustion_raises_timeout_error():
    ctx = make_ctx(FaultPlan(faults=(LinkDown("net.client0"),)))
    client = offloaded(ctx, timeout_ns=20_000.0, max_retries=1)
    value, error = run_call(ctx, client.get(b"user:1"))
    assert value is None
    assert isinstance(error, KVTimeoutError)
    assert client.stats.timeouts == 2
    assert client.stats.timeout_rate == 1.0


def test_kv_fault_free_reliable_client_matches_plain():
    plain_ctx = make_ctx()
    plain = offloaded(plain_ctx)
    armed_ctx = make_ctx()
    armed = offloaded(armed_ctx, timeout_ns=1_000_000.0, max_retries=2)
    for client, ctx in ((plain, plain_ctx), (armed, armed_ctx)):
        value, error = run_call(ctx, client.get(b"user:1"))
        assert error is None
        assert value == b"alice"
    assert armed.stats.timeouts == 0
    assert armed.stats.misses == plain.stats.misses == 0


def test_kv_reliable_miss_still_reports_none():
    ctx = make_ctx()
    client = offloaded(ctx, timeout_ns=1_000_000.0, max_retries=2)
    value, error = run_call(ctx, client.get(b"no-such-key"))
    assert error is None
    assert value is None
    assert client.stats.misses == 1
