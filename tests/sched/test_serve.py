"""Integration tests for the serving engine: determinism and failover."""

import pytest

from repro.faults import FaultPlan, SocCrash
from repro.sched import mixed_tenant_workload, run_serve
from repro.sched.serve import ServeSession
from repro.sim.engine import Simulator


def test_every_engine_runs_on_the_heap_simulator():
    for engine in ("event", "hybrid"):
        session = ServeSession(mixed_tenant_workload(duration_ns=50_000.0),
                               engine=engine)
        assert type(session.cluster.sim) is Simulator


def test_unknown_engine_rejected():
    # "des-heap" named the heap queue when a second one existed.
    for engine in ("warp-drive", "des-heap"):
        with pytest.raises(ValueError, match="unknown serve engine"):
            run_serve(mixed_tenant_workload(duration_ns=50_000.0),
                      engine=engine)


def test_scheduler_is_deterministic():
    """Same seed, same workload: bit-identical decisions and completions."""
    a = run_serve(mixed_tenant_workload(duration_ns=200_000.0, seed=7))
    b = run_serve(mixed_tenant_workload(duration_ns=200_000.0, seed=7))
    assert [d.as_tuple() for d in a.decisions] == \
           [d.as_tuple() for d in b.decisions]
    assert {n: t.completed for n, t in a.tenants.items()} == \
           {n: t.completed for n, t in b.tenants.items()}
    assert a.path_gbps == b.path_gbps
    for name in a.tenants:
        assert a.tenants[name].p99_ns == b.tenants[name].p99_ns


def test_different_seeds_still_converge_on_placements():
    report = run_serve(mixed_tenant_workload(duration_ns=200_000.0, seed=3))
    places = {d.tenant: d.to_path.value for d in report.decisions
              if d.kind == "place"}
    assert places == {"alpha": "snic-2", "beta": "snic-1",
                      "delta": "snic-1", "gamma": "snic-3-h2s"}


def test_mid_run_soc_crash_fails_over_exactly_once_per_tenant():
    """A SoC crash mid-run migrates each SoC-resident tenant host-ward
    exactly once, loses nothing, and keeps serving."""
    plan = FaultPlan(faults=(SocCrash(server="server0", at=300_000.0),))
    report = run_serve(mixed_tenant_workload(duration_ns=600_000.0),
                       faults=plan)

    failovers = [d for d in report.decisions if d.kind == "failover"]
    # alpha (path 2) and gamma (path 3) terminate on the SoC; beta and
    # delta live on host memory and must not move.
    assert sorted(d.tenant for d in failovers) == ["alpha", "gamma"]
    for d in failovers:
        assert d.time_ns >= 300_000.0
        assert d.to_responder == "host"
        assert d.reason == "soc-crash"

    assert report.lost == 0
    assert report.tenants["alpha"].final_path == "snic-1"
    assert report.tenants["alpha"].migrations == 1
    assert report.tenants["gamma"].final_path == "degraded"
    assert report.tenants["gamma"].migrations == 1
    assert report.tenants["beta"].migrations == 0
    assert report.tenants["delta"].migrations == 0
    # The degraded relay kept completing bulk requests after the crash.
    assert report.tenants["gamma"].degraded > 0
    # Every tenant finished its stream: nothing wedged on dead QPs.
    for t in report.tenants.values():
        assert t.completed > 0


def test_static_mode_records_no_decisions():
    report = run_serve(mixed_tenant_workload(duration_ns=150_000.0),
                       adaptive=False)
    assert report.decisions == []
    assert not report.adaptive
    assert report.lost == 0


@pytest.mark.parametrize("duration_ns", [0.0, -5.0])
def test_mixed_workload_rejects_nonpositive_duration(duration_ns):
    # Clamping every tenant to one request would serve a run nobody
    # asked for; the library refuses the span instead.
    with pytest.raises(ValueError, match="duration_ns"):
        mixed_tenant_workload(duration_ns=duration_ns)
