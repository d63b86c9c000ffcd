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
from repro.sched.serve import ServeSession, mixed_tenant_workload
from repro.sim.crosscheck import standard_scenarios
from repro.workloads import OpMix

#: The shortest run at which every fault family splices back (at
#: 600 us each one flips once and its streams end inside the
#: recurrence, so the cursor never returns to the DES).
DURATION_NS = 900_000.0


def _run(engine, factory, **kwargs):
    session = ServeSession(factory(), engine=engine, **kwargs)
    session.run_to_completion()
    return session, session.finalize()


def _assert_same_arrivals(factory, **kwargs):
    des, des_report = _run("event", factory, **kwargs)
    hyb, hyb_report = _run("hybrid", factory, **kwargs)
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
    kwargs = dict(standard_scenarios(duration_ns=DURATION_NS)[family])
    stats = _assert_same_arrivals(kwargs.pop("factory"), **kwargs)
    if family not in ("adaptive", "static"):
        assert stats["splices"] > 0


def test_three_op_tenant_arrivals_match_across_crash_recover():
    """A READ/WRITE/SEND tenant exercises every threshold of the op
    draw on both sides of the splice-backs a crash and recovery force."""
    def tenants():
        alpha, *rest = mixed_tenant_workload(duration_ns=DURATION_NS)
        return (dataclasses.replace(
            alpha, mix=OpMix(read=0.5, write=0.25, send=0.25)), *rest)

    stats = _assert_same_arrivals(tenants, faults=FaultPlan(faults=(
        SocCrash(at=DURATION_NS / 3, recover_at=2 * DURATION_NS / 3),)))
    assert stats["splices"] > 0
