"""Tests for the :class:`repro.api.Session` facade."""

import pytest

from repro import CommPath, Opcode, RunOptions, Session
from repro.core.latency import LatencyModel
from repro.net.topology import paper_testbed
from repro.units import GB, MB


@pytest.fixture(scope="module")
def session():
    return Session()


def test_importable_from_both_roots():
    import repro
    import repro.api

    assert repro.Session is repro.api.Session
    assert repro.RunOptions is repro.api.RunOptions


def test_string_spellings_match_enums(session):
    enum = session.latency(CommPath.SNIC1, Opcode.READ, 64)
    for path in ("snic-1", "SNIC1", "1"):
        for op in ("read", "READ"):
            assert session.latency(path, op, 64).total == enum.total


def test_unknown_spellings_raise(session):
    with pytest.raises(ValueError, match="unknown path"):
        session.latency("snic-9", "read", 64)
    with pytest.raises(ValueError, match="unknown op"):
        session.latency("snic-1", "fetch", 64)


def test_latency_matches_model(session):
    direct = LatencyModel(paper_testbed()).latency(
        CommPath.SNIC2, Opcode.WRITE, 4096)
    assert session.latency("2", "write", 4096).total == direct.total


def test_throughput_point(session):
    result = session.throughput("1", "read", 0, requesters=11)
    assert result.mrps_of(0) == pytest.approx(195, rel=0.01)


def test_sweeps_run_through_the_session_options():
    session = Session(options=RunOptions(profile=True))
    sweep = session.throughput_sweep("1", "read", [64, 512, 4096])
    assert sweep.xs() == [64, 512, 4096]
    lat = session.latency_sweep("2", "read", [64, 4096])
    assert len(lat.points) == 2
    assert all(v > 0 for v in lat.values())
    timings = session.throughput_bench.runner.timings
    assert timings is not None and "grid_build" in timings.seconds


def test_benches_are_lazy_and_cached(session):
    assert session.throughput_bench is session.throughput_bench
    assert session.latency_bench is session.latency_bench
    assert session.advisor is session.advisor


def test_advise_from_kwargs(session):
    plan = session.advise(payload=256, read_fraction=0.9,
                          working_set_bytes=8 * GB)
    assert plan.one_sided_path is CommPath.SNIC2


def test_advise_rejects_profile_and_kwargs(session):
    from repro.core.advisor import WorkloadProfile

    with pytest.raises(ValueError, match="not both"):
        session.advise(WorkloadProfile(payload=64), payload=64)


def test_trace_runs_the_des_datapath(session):
    tracer = session.trace("1", "read", 64)
    assert len(tracer) == 1


def test_serve_runs_the_scheduler(session):
    from repro.sched import mixed_tenant_workload

    report = session.serve(mixed_tenant_workload(duration_ns=100_000.0))
    assert report.adaptive
    assert report.lost == 0
    assert set(report.tenants) == {"alpha", "beta", "delta", "gamma"}
