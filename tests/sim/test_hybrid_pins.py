"""Pinned answers of hybrid-engine runs.

The other hybrid tests compare counts and tolerances against the DES,
so a change that re-sampled an analytic latency, reordered a completion
or moved a window boundary would pass them.  These pins hash every
answer a hybrid run produces — the completion records, each tenant's
fixed-window series, the tenant reports, per-path bandwidth, the hybrid
statistics and the decision log — for each crosscheck family, a
two-shard hybrid serve and the example rack on the hybrid engine.

A pin moves only when an answer moves.  Never re-pin one to absorb a
drift: find the drift.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from repro.api.schema import ClusterScenario
from repro.cluster import run_cluster
from repro.sched.serve import ServeSession, mixed_tenant_workload
from repro.sim.crosscheck import standard_scenarios
from repro.sim.shard import ShardPlan, ShardSpec, run_sharded

#: Long enough for every fault family to flip, splice back and flip
#: again (``static`` must never flip).
DURATION_NS = 900_000.0
RACK_DOC = Path(__file__).resolve().parents[2] / "examples" / "rack_scenario.json"

FAMILY_PINS = {
    "adaptive": "5d1d501b296ef6e0",
    "static": "3cbbac1cacf13529",
    "soc-crash": "72f1fe481d979664",
    "crash-recover": "90d3f89120684c93",
    "packet-loss": "ccfbe36f4f83a8c1",
    "fault-transient": "4b3089ddee853825",
}
SHARDED_PIN = "9e8f6c7d0745be68"
RACK_PIN = "168ba64538959f20"


def _sha(material) -> str:
    return hashlib.sha256(repr(material).encode()).hexdigest()[:16]


def _report_material(report) -> tuple:
    return (
        report.elapsed_ns,
        tuple(dataclasses.astuple(t) for t in report.tenants.values()),
        tuple(report.path_gbps.items()),
        tuple(sorted((report.hybrid_stats or {}).items())),
        tuple(d.as_tuple() for d in report.decisions),
        tuple((name, tuple(dataclasses.astuple(w) for w in series))
              for name, series in report.windows.items()),
        tuple(report.conservation.items()),
    )


def _records(session) -> tuple:
    return tuple((r.tenant, r.seq, r.op, r.path.value, r.start_ns,
                  r.end_ns, r.ok, r.attempts, r.degraded)
                 for r in session.runtime.completions)


@pytest.mark.parametrize("family", sorted(FAMILY_PINS))
def test_crosscheck_family_hybrid_answers_pinned(family):
    kwargs = dict(standard_scenarios(duration_ns=DURATION_NS)[family])
    factory = kwargs.pop("factory")
    session = ServeSession(factory(), engine="hybrid", **kwargs)
    session.run_to_completion()
    report = session.finalize()
    stats = report.hybrid_stats
    if family == "static":
        assert stats["flips"] == 0
    else:
        assert stats["analytic_completions"] > 0
    if family not in ("adaptive", "static"):
        assert stats["splices"] > 0
    assert _sha((_records(session), _report_material(report))) \
        == FAMILY_PINS[family]


def _two_shard_plan():
    m0 = mixed_tenant_workload(duration_ns=DURATION_NS, seed=0)
    m1 = tuple(dataclasses.replace(t, name=t.name + "2", seed=t.seed + 100)
               for t in m0)
    return ShardPlan(shards=(ShardSpec("m0", m0), ShardSpec("m1", m1)))


def test_two_shard_hybrid_serve_pinned_and_jobs_invariant():
    seq = run_sharded(_two_shard_plan(), jobs=1, engine="hybrid")
    par = run_sharded(_two_shard_plan(), jobs=2, engine="hybrid")
    assert seq.hybrid_stats["analytic_completions"] > 0
    assert _report_material(par) == _report_material(seq)
    assert _sha(_report_material(seq)) == SHARDED_PIN


def test_rack_scenario_hybrid_pinned():
    report = run_cluster(dataclasses.replace(
        ClusterScenario.from_file(RACK_DOC), engine="hybrid"), jobs=1)
    assert report.serve.hybrid_stats["analytic_completions"] > 0
    material = (_report_material(report.serve),
                tuple(d.as_tuple() for d in report.cluster_decisions),
                tuple(sorted(report.placement.items())))
    assert _sha(material) == RACK_PIN
