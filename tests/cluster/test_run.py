"""End-to-end cluster runs: cluster-chaos parity, bit-identity, the entry point.

The load-bearing contracts:

* a scenario with an *empty* population plan and pinned tenants
  compiles to exactly the hand-built :class:`ShardPlan` of the
  cluster-chaos era — same tenants (plus the declared LB ingress),
  same topology, same fault plan — and reproduces its report
  byte for byte;
* a scenario with live LB-routed migration mid-run is bit-identical
  across ``jobs={1,N}`` (hypothesis, across population seeds);
* ``run_cluster`` takes a document; a different rack, placement or
  migration setting is an edited document, not a keyword.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.schema import (ClusterScenario, ExportDoc, MachineDoc,
                              SchedulerDoc, SchemaError, TenantDoc)
from repro.cluster import ClusterReport, compile_scenario, run_cluster
from repro.faults.plan import FaultPlan
from repro.sched.serve import mixed_tenant_workload
from repro.sim.shard import ShardPlan, ShardSpec, run_sharded
from repro.sim.xshard import ShardTopology
from repro.stats.invariants import check_report, violations
from repro.units import GB
from repro.workloads.population import PopulationSpec, RandomVar

_DURATION = 160_000.0

_CHAOS = FaultPlan.from_dict({
    "seed": 5,
    "faults": [
        {"kind": "machine-crash", "shard": "shard1", "at": 60_000.0,
         "recover_at": 120_000.0},
        {"kind": "fabric-loss", "rate": 0.2, "src": "*", "dst": "*",
         "start": 0.0, "end": None},
    ],
})


def _parity_scenario(faults=_CHAOS):
    """The PR-8 four-tenant chaos run, spelled as a scenario document:
    empty population plan, every tenant pinned where dealing them out
    in turn over two machines would put it."""
    specs = mixed_tenant_workload(duration_ns=_DURATION)
    pins = {"alpha": "shard0", "delta": "shard0",
            "beta": "shard1", "gamma": "shard1"}
    docs = tuple(
        TenantDoc(name=t.name, payload=t.payload,
                  interval_ns=t.interval_ns, requests=t.requests,
                  read_fraction=t.mix.read, bulk=t.bulk,
                  slo_p99_ns=t.slo.p99_ns,
                  working_set_bytes=t.working_set_bytes,
                  workers=t.workers, queue_limit=t.queue_limit,
                  seed=t.seed, machine=pins[t.name])
        for t in specs)
    return ClusterScenario(
        name="parity", duration_ns=_DURATION,
        machines=(MachineDoc(name="shard0"), MachineDoc(name="shard1")),
        tenants=docs, faults=faults)


def _reference_plan(scenario):
    """The same experiment built by hand, PR-8 style."""
    specs = mixed_tenant_workload(duration_ns=_DURATION)
    adjusted = tuple(
        dataclasses.replace(
            t, ingress_ns=0.0 if t.bulk else scenario.ingress_ns)
        for t in specs)
    shards = tuple(ShardSpec(name=f"shard{i}", tenants=adjusted[i::2])
                   for i in range(2))
    links = {}
    for shard in ("shard0", "shard1"):
        links[("lb", shard)] = scenario.lb_latency_ns
        links[(shard, "lb")] = scenario.lb_latency_ns
    topology = ShardTopology(shards=("shard0", "shard1", "lb"),
                             link_latency_ns=scenario.link_latency_ns,
                             overrides=links, lb="lb")
    return ShardPlan(shards=shards, topology=topology,
                     cluster_faults=scenario.faults)


def test_empty_population_plan_reproduces_cluster_chaos_bytes():
    scenario = _parity_scenario()
    report = run_cluster(dataclasses.replace(
        scenario, scheduler=SchedulerDoc(migrate=False)), jobs=1)
    direct = run_sharded(_reference_plan(scenario), jobs=1, engine="event")
    assert report.tenants == direct.tenants
    assert report.counters == direct.counters
    assert ([d.as_tuple() for d in report.decisions]
            == [d.as_tuple() for d in direct.decisions])
    assert report.elapsed_ns == direct.elapsed_ns
    assert report.cluster_decisions == []


def test_bulk_export_ships_over_the_fabric_at_any_jobs():
    """A pinned tenant's ``export`` compiles to its machine's shard
    exports: gamma's bulk completions cross the fabric, and worker
    processes reproduce the in-process run."""
    scenario = _parity_scenario(faults=None)
    scenario = dataclasses.replace(
        scenario, scheduler=SchedulerDoc(migrate=False),
        tenants=tuple(dataclasses.replace(t, export=ExportDoc(to="shard0"))
                      if t.name == "gamma" else t
                      for t in scenario.tenants))
    plan = compile_scenario(scenario)[0]
    assert [s.exports for s in plan.shards] == [{}, {"gamma": "shard0"}]
    lone = run_cluster(scenario, jobs=1)
    many = run_cluster(scenario, jobs=2)
    assert lone.counters["xshard.sent"] > 0
    assert lone.counters["xshard.delivered"] == lone.counters["xshard.sent"]
    assert lone.tenants == many.tenants
    assert lone.counters == many.counters
    assert ([d.as_tuple() for d in lone.decisions]
            == [d.as_tuple() for d in many.decisions])


def test_export_to_a_machine_without_tenants_is_refused():
    """Placement leaves ``shard1`` empty, so nothing would run there to
    take the exported traffic: refused at the export's JSON path."""
    scenario = _parity_scenario(faults=None)
    scenario = dataclasses.replace(scenario, tenants=tuple(
        dataclasses.replace(t, machine="shard0",
                            export=(ExportDoc(to="shard1")
                                    if t.name == "gamma" else None))
        for t in scenario.tenants))
    with pytest.raises(SchemaError, match="hosts no tenant") as exc:
        compile_scenario(scenario)
    assert exc.value.path == "tenants[3].export.to"


def _hot_cold_scenario(seed):
    """One overloaded machine, one idle one, a tiny seeded cohort —
    the smallest scenario that migrates mid-run."""
    tenants = (
        TenantDoc(name="hog", payload=4096, interval_ns=300.0,
                  requests=500, read_fraction=0.0, slo_p99_ns=200_000.0,
                  workers=2, queue_limit=2, working_set_bytes=32 * GB,
                  machine="hot"),
        TenantDoc(name="idle", payload=512, interval_ns=20_000.0,
                  requests=8, slo_p99_ns=200_000.0, machine="cold"),
    )
    cohort = PopulationSpec(
        name="noise", tenants=2,
        active_users=RandomVar("normal", 100, std=30, lo=10),
        req_per_min=RandomVar.fixed(60), payload=512,
        slo_p99_ns=200_000.0)
    return ClusterScenario(
        name="hot-cold", duration_ns=_DURATION,
        machines=(MachineDoc(name="hot"), MachineDoc(name="cold")),
        tenants=tenants, populations=(cohort,), population_seed=seed,
        scheduler=SchedulerDoc(patience=1, cooldown_windows=2,
                               min_samples=1))


@settings(max_examples=3, deadline=None)
@given(st.integers(min_value=0, max_value=50))
def test_migrating_cluster_runs_bit_identical_across_jobs(seed):
    scenario = _hot_cold_scenario(seed)
    lone = run_cluster(scenario, jobs=1)
    many = run_cluster(scenario, jobs=2)
    # The run must actually migrate: live ctl directives over the LB,
    # remote serving over the fabric.  Its workers block on relay acks,
    # the one jobs-identity case where a worker waits on the fabric.
    assert lone.counters.get("clustersched.offloads", 0) >= 1
    assert lone.counters.get("xshard.sent", 0) > 0
    assert lone.counters.get("xshard.relay_requests", 0) > 0
    assert lone.counters.get("sched.remote_served", 0) > 0
    assert lone.tenants == many.tenants
    assert lone.counters == many.counters
    assert ([d.as_tuple() for d in lone.cluster_decisions]
            == [d.as_tuple() for d in many.cluster_decisions])
    assert not violations(check_report(lone))


def test_serve_cluster_facade_and_option_defaults():
    scenario = _hot_cold_scenario(3)
    report = run_cluster(scenario, jobs=1)
    assert isinstance(report, ClusterReport)
    assert set(report.placement) == set(report.tenants)
    assert report.summary().startswith("cluster 'hot-cold'")
    rows = report.machine_rows()
    assert [row[0] for row in rows] == ["hot", "cold"]


def test_machines_override_rebuilds_the_rack():
    cohort = PopulationSpec(
        name="pop", tenants=4,
        active_users=RandomVar.fixed(100),
        req_per_min=RandomVar.fixed(60))
    scenario = ClusterScenario(
        name="tiny", duration_ns=60_000.0,
        machines=(MachineDoc(name="m", count=2),),
        populations=(cohort,),
        scheduler=SchedulerDoc(migrate=False))
    report = run_cluster(scenario.resized(3), jobs=1)
    assert [m.name for m in report.machines] == ["m00", "m01", "m02"]


def test_resize_cycles_the_nic_pattern_and_keeps_pins_honest():
    scenario = _parity_scenario(faults=None)
    mixed = dataclasses.replace(scenario, machines=(
        MachineDoc(name="shard0"), MachineDoc(name="shard1", nic="rnic")),
        tenants=tuple(dataclasses.replace(t, machine=None)
                      for t in scenario.tenants))
    assert [(m.name, m.nic) for m in mixed.resized(5).machine_specs()] == [
        ("m00", "snic"), ("m01", "rnic"), ("m02", "snic"),
        ("m03", "rnic"), ("m04", "snic")]
    # A pinned tenant whose machine the new rack lacks is a document
    # error at the pin, before anything compiles.
    with pytest.raises(SchemaError, match=r"tenants\[0\]\.machine"):
        scenario.resized(2)

