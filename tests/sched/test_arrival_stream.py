"""Arrivals do not depend on the engine.

Both engines walk one arrival stream per tenant: the DES sleeps its
gaps, the hybrid recurrence steps the same cursor while it
fast-forwards, and the handover passes the cursor back and forth.  So
a request that both engines complete arrived at the same instant with
the same op, and every arrival was admitted or rejected exactly once,
however often the run flipped and spliced back.
"""

import dataclasses

import pytest

from repro.faults.plan import FaultPlan, SocCrash
from repro.sched import serve
from repro.sched.serve import ServeSession, mixed_tenant_workload
from repro.sched.tenant import SloSpec, TenantSpec
from repro.sim import hybrid
from repro.sim.crosscheck import standard_scenarios
from repro.units import MB
from repro.workloads import OpMix

#: The shortest run at which every fault family splices back (at
#: 600 us each one flips once and its streams end inside the
#: recurrence, so the cursor never returns to the DES).
DURATION_NS = 900_000.0


def _run(engine, tenants, **kwargs):
    session = ServeSession(tenants, engine=engine, **kwargs)
    session.run_to_completion()
    return session, session.finalize()


def _assert_same_arrivals(tenants, **kwargs):
    des, des_report = _run("event", tenants, **kwargs)
    hyb, hyb_report = _run("hybrid", tenants, **kwargs)
    arrived = {(r.tenant, r.seq): (r.start_ns, r.op)
               for r in des.runtime.completions}
    shared = 0
    for r in hyb.runtime.completions:
        expected = arrived.get((r.tenant, r.seq))
        if expected is not None:
            shared += 1
            assert (r.start_ns, r.op) == expected, (r.tenant, r.seq)
    assert shared > 0
    for session, report in ((des, des_report), (hyb, hyb_report)):
        for spec in session.runtime.specs:
            admitted, _ = session.runtime.progress()[spec.name]
            assert admitted + report.tenants[spec.name].rejected \
                == spec.requests, spec.name
    return hyb_report.hybrid_stats


@pytest.mark.parametrize(
    "family", sorted(standard_scenarios(duration_ns=DURATION_NS)))
def test_family_arrivals_match_across_engines(family):
    stats = _assert_same_arrivals(
        **standard_scenarios(duration_ns=DURATION_NS)[family])
    if family not in ("adaptive", "static"):
        assert stats["splices"] > 0


def test_three_op_tenant_arrivals_match_across_crash_recover():
    """A READ/WRITE/SEND tenant exercises every threshold of the op
    draw on both sides of the splice-backs a crash and recovery force."""
    alpha, *rest = mixed_tenant_workload(duration_ns=DURATION_NS)
    tenants = (dataclasses.replace(
        alpha, mix=OpMix(read=0.5, write=0.25, send=0.25)), *rest)
    stats = _assert_same_arrivals(tenants, faults=FaultPlan(faults=(
        SocCrash(at=DURATION_NS / 3, recover_at=2 * DURATION_NS / 3),)))
    assert stats["splices"] > 0


def test_stream_ending_inside_the_recurrence_exits_at_the_release_tick(
        monkeypatch):
    # One slow tenant whose gap (50 us) spans ten control ticks (5 us):
    # its stream ends while fast-forwarded, and the cursor left behind
    # points one gap past the last arrival.  The release tick must park
    # the cursor there, so the parked process and its workers exit at
    # that tick and not a gap later.
    tick = 5_000.0
    spec = TenantSpec(name="slow", payload=512, interval_ns=50_000.0,
                      requests=60, mix=OpMix(read=1.0, write=0.0),
                      slo=SloSpec(p99_ns=15_000.0),
                      working_set_bytes=4 * MB)
    monkeypatch.setattr(serve, "INTERVAL_NS", tick)
    monkeypatch.setattr(hybrid, "TICK_NS", tick)
    monkeypatch.setattr(serve, "WINDOW_NS", 400_000.0)
    session, report = _run("hybrid", (spec,))
    last_arrival = spec.requests * spec.interval_ns
    assert last_arrival < report.elapsed_ns <= last_arrival + 2 * tick
    assert session.cluster.sim.now == report.elapsed_ns
    assert report.tenants["slow"].completed == spec.requests
    assert report.hybrid_stats["flips"] == 1
    assert report.hybrid_stats["splices"] == 0
    assert report.hybrid_stats["analytic_arrivals"] > 0
