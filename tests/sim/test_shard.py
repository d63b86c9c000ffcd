"""Sharded serving execution: bit-identity and merge correctness."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.plan import FaultPlan, SocCrash
from repro.sched.serve import mixed_tenant_workload, run_serve
from repro.sim.shard import ShardPlan, ShardSpec, run_sharded
from repro.sim.xshard import ShardTopology

_DURATION = 300_000.0


def _tenants(seed=0, suffix=""):
    specs = mixed_tenant_workload(duration_ns=_DURATION, seed=seed)
    if not suffix:
        return specs
    return tuple(dataclasses.replace(t, name=t.name + suffix,
                                     seed=t.seed + 100)
                 for t in specs)


def _one_shard_plan(tenants):
    return ShardPlan(shards=(ShardSpec("shard0", tuple(tenants)),))


def _two_shard_plan():
    return ShardPlan(shards=(ShardSpec("m0", _tenants()),
                             ShardSpec("m1", _tenants(suffix="2"))))


def _key(report):
    return {name: (t.completed, t.rejected, t.lost, t.p50_ns, t.p99_ns,
                   t.goodput_gbps, t.slo_goodput_gbps)
            for name, t in report.tenants.items()}


def _decisions(report):
    return [d.as_tuple() for d in report.decisions]


def test_plan_rejects_duplicate_tenants_and_empty_shards():
    with pytest.raises(ValueError, match="appears in shards"):
        ShardPlan(shards=(ShardSpec("m0", _tenants()),
                          ShardSpec("m1", _tenants())))
    with pytest.raises(ValueError, match="no tenants"):
        ShardSpec("m0", ())
    with pytest.raises(ValueError, match="at least one shard"):
        ShardPlan(shards=())


def test_run_sharded_rejects_unshardable_kwargs():
    """Tracing is not a sharded option, faults are per shard, and the
    sync window is the fabric's: all are refused as unknown keywords."""
    plan = ShardPlan(shards=(ShardSpec("m0", _tenants()),))
    with pytest.raises(TypeError, match="trace"):
        run_sharded(plan, trace=True)
    with pytest.raises(TypeError, match="faults"):
        run_sharded(plan, faults=None)
    with pytest.raises(TypeError, match="sync_window_ns"):
        run_sharded(plan, sync_window_ns=25_000.0)


def test_plan_without_topology_runs_a_uniform_fabric():
    """Every sharded run has a fabric: a plan without a topology runs
    exactly as it does under an explicit uniform one."""
    plan = _two_shard_plan()
    explicit = dataclasses.replace(
        plan, topology=ShardTopology.uniform(["m0", "m1"]))
    default = run_sharded(plan, jobs=1)
    uniform = run_sharded(explicit, jobs=1)
    assert _key(default) == _key(uniform)
    assert _decisions(default) == _decisions(uniform)
    assert default.counters == uniform.counters


def test_multiprocess_matches_inprocess_bit_for_bit():
    """jobs=1 is the reference; worker processes must change nothing."""
    seq = run_sharded(_two_shard_plan(), jobs=1)
    par = run_sharded(_two_shard_plan(), jobs=2)
    assert _key(par) == _key(seq)
    assert _decisions(par) == _decisions(seq)
    assert par.path_gbps == seq.path_gbps
    assert par.elapsed_ns == seq.elapsed_ns


def test_single_shard_matches_unsharded_run():
    """A one-shard lockstep run is the unsharded run, field for field,
    on both engines, adaptive and static: ``elapsed_ns`` is the drain
    instant, not the last barrier.  The one difference is that its
    decisions name their machine, ``shard0``."""
    for engine in ("event", "hybrid"):
        for adaptive in (True, False):
            solo = run_sharded(_one_shard_plan(_tenants()),
                               engine=engine, adaptive=adaptive)
            plain = run_serve(_tenants(), engine=engine, adaptive=adaptive)
            plain.decisions = [dataclasses.replace(d, machine="shard0")
                               for d in plain.decisions]
            assert not adaptive or plain.decisions
            for f in dataclasses.fields(plain):
                assert getattr(solo, f.name) == getattr(plain, f.name), \
                    (engine, adaptive, f.name)


def test_merged_decisions_are_time_sorted_and_tenants_disjoint():
    report = run_sharded(_two_shard_plan(), jobs=1)
    times = [d.time_ns for d in report.decisions]
    assert times == sorted(times)
    assert len(report.tenants) == 8


def test_hybrid_engine_composes_with_sharding():
    hybrid = run_sharded(_two_shard_plan(), jobs=1, engine="hybrid")
    plain = run_sharded(_two_shard_plan(), jobs=1)
    assert hybrid.engine == "hybrid"
    assert hybrid.hybrid_stats is not None
    assert {n: (t.completed, t.rejected, t.lost)
            for n, t in hybrid.tenants.items()} \
        == {n: (t.completed, t.rejected, t.lost)
            for n, t in plain.tenants.items()}


# -- cross-shard traffic ------------------------------------------------------


def _cross_plan(seed=0, duration=_DURATION, crash=True):
    """Two machines: m0's SoC crashes mid-run, m0's beta ships bulk
    completions to m1, m1's gamma ships back."""
    specs0 = mixed_tenant_workload(duration_ns=duration, seed=seed)
    specs1 = tuple(dataclasses.replace(t, name=t.name + "2",
                                       seed=t.seed + 100)
                   for t in mixed_tenant_workload(duration_ns=duration,
                                                  seed=seed + 50))
    faults = (FaultPlan(faults=(SocCrash(at=duration / 3),))
              if crash else None)
    return ShardPlan(shards=(
        ShardSpec("m0", specs0, faults=faults, exports={"beta": "m1"}),
        ShardSpec("m1", specs1, exports={"gamma2": "m0"}),
    ))


def test_cross_shard_traffic_flows_and_conserves():
    report = run_sharded(_cross_plan(), jobs=1)
    counters = report.counters
    assert counters["xshard.sent"] > 0
    # Every message was delivered (one-window guarantee, fully drained)
    # and every non-ack message was served and acked back.
    assert counters["xshard.delivered"] == counters["xshard.sent"]
    assert counters["xshard.acked"] == counters["xshard.served"]
    assert counters["xshard.served_bytes"] == counters["xshard.sent_bytes"]
    assert counters["xshard.rtt_ns_total"] > 0


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=64),
       latency=st.sampled_from([6_250.0, 12_500.0, 25_000.0]))
def test_cross_shard_multiprocess_bit_identical(seed, latency):
    """Property: with live cross-shard traffic, worker processes
    reproduce the in-process reference bit-for-bit (counts, latencies,
    decisions, fabric counters) at any fabric latency, and so at any
    sync window."""
    plan = dataclasses.replace(
        _cross_plan(seed, duration=200_000.0),
        topology=ShardTopology.uniform(["m0", "m1"], latency))
    seq = run_sharded(plan, jobs=1)
    par = run_sharded(plan, jobs=2)
    assert _key(par) == _key(seq)
    assert _decisions(par) == _decisions(seq)
    assert {k: v for k, v in par.counters.items()
            if k.startswith("xshard.")} \
        == {k: v for k, v in seq.counters.items()
            if k.startswith("xshard.")}


def test_plan_rejects_bad_exports_and_duplicate_shards():
    specs = _tenants()
    with pytest.raises(ValueError, match="unknown tenant"):
        ShardSpec("m0", specs, exports={"nope": "m1"})
    with pytest.raises(ValueError, match="to itself"):
        ShardSpec("m0", specs, exports={"gamma": "m0"})
    with pytest.raises(ValueError, match="unknown shard"):
        ShardPlan(shards=(
            ShardSpec("m0", specs, exports={"gamma": "elsewhere"}),))
    with pytest.raises(ValueError, match="duplicate shard names"):
        ShardPlan(shards=(ShardSpec("m0", specs),
                          ShardSpec("m0", _tenants(suffix="2"))))


def test_hybrid_keeps_exporting_tenants_at_event_level():
    """Cross-shard senders must not fast-forward (their fabric sends
    happen in the runtime's finish hook); the merged counts still
    match the pure event engine exactly."""
    plan = _cross_plan(crash=False)
    hybrid = run_sharded(plan, jobs=1, engine="hybrid")
    plain = run_sharded(_cross_plan(crash=False), jobs=1)
    assert {n: (t.completed, t.rejected, t.lost)
            for n, t in hybrid.tenants.items()} \
        == {n: (t.completed, t.rejected, t.lost)
            for n, t in plain.tenants.items()}
    xs = lambda r: {k: v for k, v in r.counters.items()  # noqa: E731
                    if k.startswith("xshard.")}
    assert xs(hybrid) == xs(plain)
