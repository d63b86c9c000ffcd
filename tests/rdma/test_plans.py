"""Verb plans: built once per route and verb shape, still live to faults.

A route caches one plan per ``(opcode, length)``, holding channel and
link objects.  A fault injector installed after a plan was built must
still drop on its wire and PCIe legs, exactly as if it had been
installed first, and a migrated lease's fresh QPs must build fresh
routes and plans.
"""

import pytest

from repro.core.paths import CommPath, Opcode
from repro.faults import FaultPlan, PacketLoss
from repro.net.cluster import SimCluster
from repro.net.topology import paper_testbed
from repro.rdma import RdmaContext, WorkOpcode
from repro.rdma.mr import zero_bytes
from repro.sched.policy import Placement
from repro.sched.runtime import PathLease, ServingRuntime
from repro.sched.slo import SloTracker
from repro.sched.tenant import TenantSpec
from repro.workloads import OpMix


def _lossy_run(target, install_first):
    """Twenty 4 KB client->host verbs (WRITEs and READs) under 30 %
    loss on ``target``.  The verb bodies, and with them the route and
    its plans, are built before the injector is installed unless
    ``install_first``."""
    cluster = SimCluster(paper_testbed(), n_clients=1)
    plan = FaultPlan(seed=11, faults=(PacketLoss(target, 0.3),))
    if install_first:
        cluster.install_faults(plan)
    ctx = RdmaContext(cluster)
    local = ctx.reg_mr("client0", 4096)
    remote = ctx.reg_mr("host", 4096)
    qp, _ = ctx.connect_rc("client0", "host")
    route = qp._route_to(cluster.node("host"))
    bodies = [(qp.write if i % 2 else qp.read)(i, local, remote, 4096)
              for i in range(20)]
    plans = dict(route._plans)
    if not install_first:
        cluster.install_faults(plan)
    sim = cluster.sim

    def driver():
        for body in bodies:
            yield sim.process(body)

    sim.process(driver())
    sim.run()
    completions = [(c.wr_id, c.status, c.timestamp)
                   for c in qp.send_cq.poll(64)]
    return completions, dict(cluster.stats), sim.events_executed, plans


@pytest.mark.parametrize("target", ["net.server0", "pcie1", "pcie0"])
def test_a_plan_built_before_the_injector_still_drops(target):
    before = _lossy_run(target, install_first=False)
    after = _lossy_run(target, install_first=True)
    completions, stats, events, plans = before
    assert set(plans) == {(WorkOpcode.READ, 4096), (WorkOpcode.WRITE, 4096)}
    assert stats["rdma.retransmits"] > 0
    assert stats["faults.injected"] > 0
    assert len(completions) == 20
    assert (completions, stats, events) == after[:3]


def test_a_migrated_lease_builds_fresh_routes_and_plans():
    spec = TenantSpec(name="t", payload=512, interval_ns=1_000.0,
                      requests=2, mix=OpMix(read=1.0, write=0.0), workers=1)
    cluster = SimCluster(paper_testbed())
    runtime = ServingRuntime(cluster, RdmaContext(cluster), [spec],
                             SloTracker([spec]))
    tenant = runtime._tenants[spec.name]
    tenant.lease = PathLease(spec.name, CommPath.SNIC1, "host")
    runtime._connect(tenant)
    sim = runtime.sim

    def serve(seq):
        sim.process(runtime._serve_one(tenant, 0, seq, Opcode.READ, sim.now))
        sim.run()
        (qp, _peer), = tenant.qps
        (route,) = qp._routes.values()
        return qp, route, route.plan(WorkOpcode.READ, 512)

    old_qp, old_route, old_plan = serve(0)
    runtime.rebind(spec.name, Placement(
        path=CommPath.SNIC2, responder="soc", rate_cap_gbps=None,
        degraded=False, reason="test", advice_refs=()))
    new_qp, new_route, new_plan = serve(1)
    assert new_qp is not old_qp
    assert new_route is not old_route and new_plan is not old_plan
    assert old_route.responder.name == "host"
    assert new_route.responder.name == "soc"
    assert new_plan.steps != old_plan.steps
    assert [r.ok for r in runtime.completions] == [True, True]


# -- the zero-page rule -----------------------------------------------------------


@pytest.mark.parametrize("payload", [512, 4096, 64 * 1024])
def test_a_serving_sized_round_trip_backs_no_page(payload):
    cluster = SimCluster(paper_testbed(), n_clients=1)
    ctx = RdmaContext(cluster)
    local = ctx.reg_mr("client0", payload)
    remote = ctx.reg_mr("host", payload)
    qp, _ = ctx.connect_rc("client0", "host")
    sim = cluster.sim

    def driver():
        yield qp.post_write(1, local, remote, payload)
        yield qp.post_read(2, local, remote, payload)

    sim.process(driver())
    sim.run()
    assert [c.ok for c in qp.send_cq.poll()] == [True, True]
    assert local._pages == {} and remote._pages == {}
    assert remote.read_local(0, payload) is zero_bytes(payload)


def test_the_zero_buffer_overwrites_a_backed_page():
    cluster = SimCluster(paper_testbed(), n_clients=1)
    region = RdmaContext(cluster).reg_mr("host", 3 * 4096)
    region.write_local(4096 + 10, b"\xff" * 100)
    assert set(region._pages) == {1}
    region.write_local(0, zero_bytes(3 * 4096))
    # The backed page is overwritten; the untouched ones stay unbacked.
    assert set(region._pages) == {1}
    assert region.read_local(0, 3 * 4096) == bytes(3 * 4096)


def test_other_zero_bytes_still_back_pages():
    cluster = SimCluster(paper_testbed(), n_clients=1)
    region = RdmaContext(cluster).reg_mr("host", 4096)
    region.write_local(0, bytes(4096))
    assert set(region._pages) == {0}
