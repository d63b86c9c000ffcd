"""The hybrid engine reports the latency a rack tenant's users saw.

A rack tenant's recorded latency includes its ingress (the load
balancer round trip), which the DES folds in by backdating each
record's start.  The analytic recurrence must backdate its records the
same way, or every tenant it fast-forwards reports a p50 one ingress
too low.
"""

import dataclasses
from pathlib import Path

from repro.api.schema import ClusterScenario
from repro.cluster import run_cluster
from repro.sim.crosscheck import LATENCY_TOL

RACK_DOC = (Path(__file__).resolve().parents[2] / "examples"
            / "rack_scenario.json")


def test_rack_hybrid_p50_matches_des_for_every_tenant():
    doc = dataclasses.replace(ClusterScenario.from_file(RACK_DOC),
                              duration_ns=2_000_000.0)
    assert doc.ingress_ns > 0
    des = run_cluster(dataclasses.replace(doc, engine="event"),
                      jobs=1).serve
    hybrid = run_cluster(dataclasses.replace(doc, engine="hybrid"),
                         jobs=1).serve
    assert hybrid.hybrid_stats["analytic_completions"] > 0
    assert hybrid.tenants.keys() == des.tenants.keys()
    for name, want in des.tenants.items():
        got = hybrid.tenants[name]
        assert ((got.completed, got.rejected, got.lost)
                == (want.completed, want.rejected, want.lost)), name
        assert abs(got.p50_ns - want.p50_ns) <= LATENCY_TOL * want.p50_ns, (
            name, got.p50_ns, want.p50_ns)
