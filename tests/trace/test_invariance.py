"""Tracer-off invariance: tracing must never change the simulation.

The tracer's design contract is that spans only *read* the clock — no
instrumentation point adds, removes, or reorders a simulation event.
So a traced run must produce bit-identical completions, final clock,
event count, and memory contents to the same run untraced (extending
PR 3's zero-fault bit-identity pattern to the tracing hooks).
"""

import pytest

from repro.core.paths import Opcode
from repro.net.cluster import SimCluster
from repro.net.topology import paper_testbed
from repro.rdma import RdmaContext
from repro.sched.serve import ServeSession, mixed_tenant_workload
from repro.trace import Tracer, TraceError
from repro.units import KB


def run_workload(nic, traced, ops=6):
    """A mixed closed-loop workload; returns every observable output."""
    cluster = SimCluster(paper_testbed(), n_clients=1, nic=nic)
    ctx = RdmaContext(cluster)
    responder = "host"
    local = ctx.reg_mr("client0", 64 * KB)
    remote = ctx.reg_mr(responder, 64 * KB)
    qp, peer = ctx.connect_rc("client0", responder)
    local.write_local(0, bytes(range(256)) * 8)
    for i in range(ops):
        peer.post_recv(1000 + i, remote, 8 * KB, 1 * KB)

    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install(cluster)

    def driver():
        for i in range(ops):
            yield qp.post_write(i, local, remote, 4 * KB)
            yield qp.post_read(100 + i, local, remote, 4 * KB)
            yield qp.post_send(200 + i, local.read_local(0, 512))

    cluster.sim.process(driver())
    cluster.sim.run()
    if tracer is not None:
        tracer.uninstall()

    completions = [(c.wr_id, c.opcode.value, c.status.value, c.byte_len,
                    c.timestamp) for c in qp.send_cq.poll(1000)]
    received = [(c.wr_id, c.status.value, c.byte_len, c.timestamp)
                for c in peer.recv_cq.poll(1000)]
    return {
        "completions": completions,
        "received": received,
        "now": cluster.sim.now,
        "events": cluster.sim.events_executed,
        "memory": remote.read_local(0, remote.length),
        "stats": dict(cluster.stats),
    }, tracer


@pytest.mark.parametrize("nic", ["snic", "rnic"])
def test_traced_run_is_bit_identical_to_untraced(nic):
    untraced, _ = run_workload(nic, traced=False)
    traced, tracer = run_workload(nic, traced=True)
    assert traced == untraced
    # ... and the tracer actually observed the whole run.
    assert len(tracer) == 18
    assert all(t.root.closed for t in tracer.traces)


def test_untraced_simulator_has_no_tracer_overhead_state():
    cluster = SimCluster(paper_testbed(), n_clients=1)
    assert cluster.sim.tracer is None
    tracer = Tracer().install(cluster)
    assert cluster.sim.tracer is tracer
    tracer.uninstall()
    assert cluster.sim.tracer is None


def test_double_install_is_rejected():
    cluster = SimCluster(paper_testbed(), n_clients=1)
    Tracer().install(cluster)
    with pytest.raises(TraceError):
        Tracer().install(cluster)


# -- a traced serving run -----------------------------------------------------------


def _serve(traced):
    session = ServeSession(mixed_tenant_workload(100_000.0, seed=0),
                           trace=traced)
    session.run_to_completion()
    report = session.finalize()
    return {
        "completions": list(session.runtime.completions),
        "decisions": [d.as_tuple() for d in report.decisions],
        "now": session.cluster.sim.now,
        "events": session.cluster.sim.events_executed,
    }, session


def _stages(trace):
    return tuple(span.name for span in trace.root.walk())


def _posted_stages(n_clients, requester, responder, verb, payload):
    """The stage names of one verb posted as its own process."""
    cluster = SimCluster(paper_testbed(), n_clients=n_clients)
    ctx = RdmaContext(cluster)
    local = ctx.reg_mr(requester, payload)
    remote = ctx.reg_mr(responder, payload)
    qp, peer = ctx.connect_rc(requester, responder)
    tracer = Tracer().install(cluster)
    if verb == "read":
        qp.post_read(1, local, remote, payload)
    elif verb == "write":
        qp.post_write(1, local, remote, payload)
    else:
        peer.post_recv(1, remote, 0, payload)
        qp.post_send(1, bytes(payload))
    cluster.sim.run()
    (trace,) = tracer.traces
    return _stages(trace)


def test_traced_serving_run_is_bit_identical_to_untraced():
    untraced, _ = _serve(traced=False)
    traced, session = _serve(traced=True)
    assert traced == untraced
    verbs = [t for t in session.tracer.traces if t.root.category == "verb"]
    assert len(verbs) == len(untraced["completions"])
    assert all(t.root.closed for t in session.tracer.traces)
    n_clients = len(session.cluster.clients())
    shapes = {}
    for trace in verbs:
        meta = trace.meta
        key = (meta["requester"], meta["responder"], meta["verb"],
               meta["payload"])
        shapes.setdefault(key, set()).add(_stages(trace))
    assert shapes
    for key, stages in shapes.items():
        assert stages == {_posted_stages(n_clients, *key)}, key
