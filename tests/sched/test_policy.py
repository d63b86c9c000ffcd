"""Unit tests for the pure decision logic (no simulation objects)."""

import pytest

from repro.core.paths import CommPath
from repro.net.topology import paper_testbed
from repro.sched import SloSpec, TenantSpec, WindowStats
from repro.sched.policy import PathPolicy
from repro.units import GB, KB, MB
from repro.workloads import OpMix

TB = paper_testbed()


def _client_spec(name="t", payload=512, interval_ns=2_000.0,
                 working_set=4 * MB, **kwargs):
    return TenantSpec(name=name, payload=payload, interval_ns=interval_ns,
                      requests=100, mix=OpMix(read=1.0, write=0.0),
                      slo=SloSpec(p99_ns=15_000.0),
                      working_set_bytes=working_set, **kwargs)


def _bulk_spec(name="bulk"):
    return TenantSpec(name=name, payload=64 * KB, interval_ns=4_500.0,
                      requests=100, mix=OpMix(read=0.0, write=1.0),
                      bulk=True, slo=SloSpec(p99_ns=120_000.0),
                      working_set_bytes=512 * MB)


def _stats(tenant="t", count=20, p99_ns=0.0):
    return WindowStats(tenant=tenant, window_ns=100_000.0, count=count,
                       p50_ns=p99_ns / 2, p99_ns=p99_ns, goodput_gbps=0.0,
                       rejected=0, violations=0)


def test_place_cache_resident_reads_on_soc():
    placed = PathPolicy(TB).place(_client_spec())
    assert placed.path is CommPath.SNIC2
    assert placed.responder == "soc"
    assert placed.rate_cap_gbps is None


def test_place_oversized_working_set_on_host():
    placed = PathPolicy(TB).place(_client_spec(working_set=32 * GB))
    assert placed.path is CommPath.SNIC1
    assert placed.responder == "host"


def test_place_bulk_tenant_with_p_minus_n_cap():
    placed = PathPolicy(TB).place(_bulk_spec())
    assert placed.path is CommPath.SNIC3_H2S
    assert placed.responder == "soc"
    assert placed.rate_cap_gbps == pytest.approx(56.0, rel=0.01)
    assert "rule-p-minus-n" in placed.advice_refs


def test_healthy_tenant_is_left_alone():
    policy = PathPolicy(TB)
    spec = _client_spec()
    decision = policy.decide(spec, CommPath.SNIC2, "soc", False,
                             _stats(p99_ns=5_000.0), True, 100_000.0, {})
    assert decision is None


def test_slo_violation_migrates_to_alternate_path():
    policy = PathPolicy(TB)
    spec = _client_spec()
    decision = policy.decide(spec, CommPath.SNIC2, "soc", False,
                             _stats(p99_ns=40_000.0), True, 100_000.0, {})
    assert decision is not None
    assert decision.path is CommPath.SNIC1
    assert decision.reason == "slo-p99"
    assert "fig11-partition" in decision.advice_refs


def test_thin_window_blocks_migration():
    policy = PathPolicy(TB)
    spec = _client_spec()
    decision = policy.decide(spec, CommPath.SNIC2, "soc", False,
                             _stats(count=3, p99_ns=40_000.0), True,
                             100_000.0, {})
    assert decision is None


def test_cooldown_blocks_flapping():
    policy = PathPolicy(TB)
    spec = _client_spec()
    policy.note_change(spec.name, 90_000.0)
    decision = policy.decide(spec, CommPath.SNIC2, "soc", False,
                             _stats(p99_ns=40_000.0), True, 100_000.0, {})
    assert decision is None
    # ... but the same violation is actionable once the cooldown lapses.
    decision = policy.decide(spec, CommPath.SNIC2, "soc", False,
                             _stats(p99_ns=40_000.0), True, 160_000.0, {})
    assert decision is not None


def test_fig11_budget_refuses_overfull_target():
    """Migration into path 1 is refused when its concurrent-partition
    budget is already booked by offered load."""
    policy = PathPolicy(TB)
    spec = _client_spec()
    full = {CommPath.SNIC1: 1_000.0}   # far beyond any Fig 11 budget
    decision = policy.decide(spec, CommPath.SNIC2, "soc", False,
                             _stats(p99_ns=40_000.0), True, 100_000.0, full)
    assert decision is None


def test_soc_crash_fails_client_tenant_hostward():
    policy = PathPolicy(TB)
    spec = _client_spec()
    decision = policy.decide(spec, CommPath.SNIC2, "soc", False,
                             _stats(), False, 100_000.0, {})
    assert decision is not None
    assert decision.path is CommPath.SNIC1
    assert decision.responder == "host"
    assert decision.reason == "soc-crash"
    assert not decision.degraded


def test_soc_crash_degrades_bulk_tenant():
    policy = PathPolicy(TB)
    decision = policy.decide(_bulk_spec(), CommPath.SNIC3_H2S, "soc", False,
                             _stats(tenant="bulk"), False, 100_000.0, {})
    assert decision is not None
    assert decision.degraded
    assert decision.responder == "host"
    assert decision.rate_cap_gbps is None
    assert decision.advice_refs == ("failover",)


def test_already_degraded_tenant_is_not_refailed():
    policy = PathPolicy(TB)
    decision = policy.decide(_bulk_spec(), CommPath.SNIC3_H2S, "host", True,
                             _stats(tenant="bulk"), False, 100_000.0, {})
    assert decision is None


def test_no_migration_to_crashed_soc():
    """An SLO violation on path 1 never migrates into a dead SoC."""
    policy = PathPolicy(TB)
    spec = _client_spec(working_set=32 * GB)
    decision = policy.decide(spec, CommPath.SNIC1, "host", False,
                             _stats(p99_ns=40_000.0), False, 100_000.0, {})
    assert decision is None
