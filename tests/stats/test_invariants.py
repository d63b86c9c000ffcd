"""The invariant catalog: clean runs pass, tampered runs cannot.

The harness's value is the second half: a completion counter nudged
mid-run — the canonical silent-corruption bug — must trip both flow
conservation and Little's law, with the tenant named in the detail.
"""

import pytest

from repro.sched.serve import ServeSession, mixed_tenant_workload, run_serve
from repro.stats.invariants import check_report, violations

DURATION_NS = 300_000.0


@pytest.fixture(scope="module")
def clean_report():
    return run_serve(mixed_tenant_workload(duration_ns=DURATION_NS, seed=0),
                     adaptive=True)


@pytest.fixture(scope="module")
def tampered_report():
    session = ServeSession(
        mixed_tenant_workload(duration_ns=DURATION_NS, seed=0),
        adaptive=True)
    session.advance(DURATION_NS / 2)
    session.tracker.completed["alpha"] += 7
    session.run_to_completion()
    return session.finalize()


def test_clean_run_passes_every_invariant(clean_report):
    results = check_report(clean_report)
    assert results
    assert not violations(results)
    names = {r.name for r in results}
    assert names == {"flow-conservation", "littles-law", "utilization",
                     "sanity"}


def test_every_tenant_and_path_is_audited(clean_report):
    results = check_report(clean_report)
    conservation = [r for r in results if r.name == "flow-conservation"]
    assert {r.subject for r in conservation} == set(clean_report.tenants)
    utilization = [r for r in results if r.name == "utilization"]
    assert "network" in {r.subject for r in utilization}


def test_tampered_counter_trips_conservation_and_little(tampered_report):
    bad = violations(check_report(tampered_report))
    assert bad, "a mutated counter went undetected: the harness is blind"
    tripped = {r.name for r in bad}
    assert "flow-conservation" in tripped
    assert "littles-law" in tripped
    # The violation names the tenant whose counter drifted.
    assert any(r.subject == "alpha" for r in bad)
    # Untouched invariants stay quiet: the failure is specific.
    assert "utilization" not in tripped


def test_violation_detail_is_actionable(tampered_report):
    bad = violations(check_report(tampered_report))
    conservation = next(r for r in bad if r.name == "flow-conservation")
    assert "arrivals" in conservation.detail
    assert "VIOLATED" in str(conservation)


def test_utilization_respects_custom_testbed(clean_report):
    # The capacity bounds come from the testbed argument, defaulting to
    # the paper testbed; passing it explicitly is identical.
    from repro.net.topology import paper_testbed

    explicit = check_report(clean_report, testbed=paper_testbed())
    default = check_report(clean_report)
    assert [(r.name, r.subject, r.ok) for r in explicit] == \
        [(r.name, r.subject, r.ok) for r in default]


def _two_machine_report(network_gbps_each):
    """Two machines' reports merged the way a sharded run merges them,
    each delivering ``network_gbps_each`` Gbps on path ①."""
    from repro.core.paths import CommPath
    from repro.sched.serve import ServeReport
    from repro.sim.shard import merge_reports

    reports = [ServeReport(adaptive=True, elapsed_ns=100_000.0, tenants={},
                           decisions=[],
                           path_gbps={CommPath.SNIC1.value: gbps})
               for gbps in network_gbps_each]
    return merge_reports(reports)


def _utilization(report):
    return {r.subject: r.ok for r in check_report(report)
            if r.name == "utilization"}


def test_utilization_checks_each_machine_against_its_own_fabric():
    # 150 + 150 Gbps is within two 200 Gbps fabrics; summing the rack
    # and comparing it with one machine's fabric would flag it.
    ok = _utilization(_two_machine_report([150.0, 150.0]))
    assert all(ok.values())
    assert {"shard0/network", "shard1/network", "rack/network"} <= set(ok)


def test_utilization_flags_the_overloaded_machine_only():
    # 250 Gbps on one machine exceeds its fabric even though the rack
    # total (260 of 400 Gbps) is within the summed capacity.
    ok = _utilization(_two_machine_report([250.0, 10.0]))
    assert not ok["shard0/network"]
    assert ok["shard1/network"]
    assert ok["rack/network"]
