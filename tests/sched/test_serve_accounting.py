"""Serving report assembly and the completion-record contract.

``_tenant_reports`` reads the SLO tracker's totals, archive and report
aggregates; ``_path_gbps`` is the one pass over the completion log.
Per-tenant and per-path scans of the log are kept here as the oracle
and run on a faulted adaptive hybrid serve that migrates, fails over,
serves degraded requests and splices analytic tails back to the DES,
so every kind of record reaches the report.
"""

import dataclasses
import pickle

import pytest

from repro.core.paths import CommPath
from repro.faults import FaultPlan, SocCrash
from repro.sched import SloSpec
from repro.sched.serve import (ServeSession, TenantReport, _path_gbps,
                               _tenant_reports, mixed_tenant_workload)
from repro.sched.tenant import CompletionRecord
from repro.units import to_gbps

#: The session's path-bandwidth warm-up: two 20 µs control ticks.
WARMUP_NS = 40_000.0


def scan_tenant_reports(tenants, runtime, tracker, decisions):
    """One scan of every record per tenant."""
    reports = {}
    for spec in tenants:
        records = [r for r in runtime.completions if r.tenant == spec.name]
        ok = sorted(r.latency_ns for r in records if r.ok)
        in_slo = [r for r in records
                  if r.ok and r.latency_ns <= spec.slo.deadline]
        span = (max((r.end_ns for r in records), default=0.0)
                - min((r.start_ns for r in records), default=0.0)) or 1.0
        lease = runtime.lease(spec.name)
        reports[spec.name] = TenantReport(
            name=spec.name,
            final_path=("degraded" if lease.degraded else lease.path.value),
            completed=tracker.completed[spec.name],
            rejected=tracker.rejected[spec.name],
            lost=tracker.lost[spec.name],
            degraded=sum(1 for r in records if r.degraded),
            p50_ns=ok[len(ok) // 2] if ok else 0.0,
            p99_ns=(ok[min(len(ok) - 1, int(0.99 * len(ok)))]
                    if ok else 0.0),
            goodput_gbps=to_gbps(spec.payload * len(ok) / span),
            slo_goodput_gbps=to_gbps(spec.payload * len(in_slo) / span),
            slo_attainment=(len(in_slo) / len(ok)) if ok else 0.0,
            migrations=sum(1 for d in decisions
                           if d.tenant == spec.name
                           and d.kind in ("migrate", "failover")),
        )
    return reports


def scan_path_gbps(runtime, warmup_ns):
    """Group records per path, then one pass per path."""
    by_path = {}
    payload = {t.name: t.payload for t in runtime.specs}
    for r in runtime.completions:
        if r.ok and r.end_ns > warmup_ns:
            by_path.setdefault(r.path.value, []).append(r)
    result = {}
    for path, records in by_path.items():
        span = (max(r.end_ns for r in records) - warmup_ns) or 1.0
        result[path] = to_gbps(sum(payload[r.tenant] for r in records)
                               / span)
    return result


@pytest.fixture(scope="module")
def faulted_session():
    # A tight alpha SLO forces SLO migrations; the SoC crash then fails
    # gamma over to the degraded host relay.
    tenants = tuple(
        dataclasses.replace(spec, slo=SloSpec(p99_ns=3_000.0))
        if spec.name == "alpha" else spec
        for spec in mixed_tenant_workload(duration_ns=1_500_000.0))
    plan = FaultPlan(faults=(SocCrash(server="server0", at=700_000.0),))
    session = ServeSession(tenants, faults=plan, engine="hybrid")
    session.run_to_completion()
    return session


def test_faulted_run_exercises_every_record_kind(faulted_session):
    kinds = {d.kind for d in faulted_session.decisions}
    assert {"migrate", "failover"} <= kinds
    records = faulted_session.runtime.completions
    assert any(r.degraded for r in records)
    assert faulted_session.controller.splices > 0
    report = faulted_session.finalize()
    assert 0.0 < report.tenants["alpha"].slo_attainment < 1.0


def test_one_pass_tenant_reports_equal_per_tenant_scans(faulted_session):
    s = faulted_session
    got = _tenant_reports(s.tenants, s.runtime, s.tracker, s.decisions)
    want = scan_tenant_reports(s.tenants, s.runtime, s.tracker, s.decisions)
    assert list(got.items()) == list(want.items())


def test_one_pass_path_gbps_equals_per_path_scans(faulted_session):
    got = _path_gbps(faulted_session.runtime, WARMUP_NS)
    want = scan_path_gbps(faulted_session.runtime, WARMUP_NS)
    assert list(got.items()) == list(want.items())


def _record(**overrides):
    fields = dict(tenant="t", seq=3, op="write", path=CommPath.SNIC1,
                  start_ns=1_000.0, end_ns=3_500.0, ok=True)
    fields.update(overrides)
    return CompletionRecord(**fields)


def test_record_keyword_construction_and_defaults():
    record = _record()
    assert record.attempts == 1
    assert record.degraded is False
    assert record.latency_ns == 2_500.0
    assert record == CompletionRecord("t", 3, "write", CommPath.SNIC1,
                                      1_000.0, 3_500.0, True, 1, False)


def test_record_is_immutable():
    record = _record()
    with pytest.raises(AttributeError):
        record.end_ns = 0.0
    with pytest.raises(AttributeError):
        record.latency_ns = 0.0


def test_record_pickles():
    record = _record(attempts=2, degraded=True, ok=False)
    clone = pickle.loads(pickle.dumps(record))
    assert clone == record
    assert clone.path is CommPath.SNIC1
    assert clone.latency_ns == record.latency_ns
