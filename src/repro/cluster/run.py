"""Compile a :class:`~repro.api.schema.ClusterScenario` and run it.

The pipeline::

    JSON document
      → ClusterScenario          (repro.api.schema — pure description)
      → sample_population        (cohorts → concrete TenantSpecs)
      → bin_pack_placement       (tenants → machines, Fig-11 budgets)
      → ShardPlan + ShardTopology (machines + LB node + fault plan)
      → run_sharded(controller=ClusterScheduler)   (lockstep fabric)
      → ClusterReport            (machine/tenant/decision rollup)

Everything upstream of ``run_sharded`` is deterministic given the
scenario (placement is pure, population sampling is seeded), so a
scenario document *is* the experiment: same JSON, same seed → same
report, bit for bit, at any ``jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.machine import MachineSpec
from repro.cluster.scheduler import (ClusterDecision, ClusterScheduler,
                                     bin_pack_placement,
                                     round_robin_placement)
from repro.codec import SchemaError
from repro.core.report import format_table
from repro.faults.cluster import ClusterInjector
from repro.net.topology import paper_testbed
from repro.sched.serve import ServeReport
from repro.sched.tenant import TenantSpec
from repro.sim.shard import ShardPlan, ShardSpec, run_sharded
from repro.sim.xshard import ShardTopology
from repro.units import fmt_ns
from repro.workloads.population import sample_population


@dataclass
class ClusterReport:
    """One rack-scale run: the merged serving report plus the cluster
    view (who ran where, what the scheduler moved, how many users the
    population stood for)."""

    scenario: str
    serve: ServeReport
    machines: Tuple[MachineSpec, ...]
    placement: Dict[str, str]                  # tenant -> home machine
    cluster_decisions: List[ClusterDecision] = field(default_factory=list)
    total_users: int = 0
    users: Dict[str, int] = field(default_factory=dict)  # tenant -> users

    # -- delegation to the merged ServeReport -------------------------------

    @property
    def tenants(self):
        return self.serve.tenants

    @property
    def decisions(self):
        return self.serve.decisions

    @property
    def counters(self):
        return self.serve.counters

    @property
    def windows(self):
        return self.serve.windows

    @property
    def conservation(self):
        return self.serve.conservation

    @property
    def path_gbps(self):
        return self.serve.path_gbps

    @property
    def machine_path_gbps(self):
        return self.serve.machine_path_gbps

    @property
    def elapsed_ns(self) -> float:
        return self.serve.elapsed_ns

    @property
    def total_slo_goodput_gbps(self) -> float:
        return self.serve.total_slo_goodput_gbps

    @property
    def slo_attainment(self) -> float:
        """Completion-weighted SLO attainment across every tenant."""
        done = sum(t.completed for t in self.tenants.values())
        if not done:
            return 0.0
        hit = sum(t.completed * t.slo_attainment
                  for t in self.tenants.values())
        return hit / done

    def machine_rows(self) -> List[tuple]:
        """Per-machine aggregates: tenants, users, completions, SLO."""
        by_machine: Dict[str, List[str]] = {m.name: [] for m in self.machines}
        for tenant, machine in self.placement.items():
            by_machine.setdefault(machine, []).append(tenant)
        rows = []
        for machine in self.machines:
            names = by_machine.get(machine.name, [])
            reports = [self.tenants[n] for n in names if n in self.tenants]
            done = sum(t.completed for t in reports)
            att = (sum(t.completed * t.slo_attainment for t in reports)
                   / done if done else 0.0)
            moved = sum(1 for d in self.cluster_decisions
                        if d.machine == machine.name
                        and d.kind == "offload")
            rows.append((machine.name, machine.nic, len(names),
                         sum(self.users.get(n, 0) for n in names),
                         done,
                         sum(t.rejected for t in reports),
                         f"{sum(t.slo_goodput_gbps for t in reports):.1f}",
                         f"{100 * att:.1f}%", moved))
        return rows

    def summary(self) -> str:
        """The rack at a glance — one row per machine, totals in the
        title (per-tenant detail stays in ``.tenants``; with hundreds
        of tenants a per-tenant table is a log, not a summary)."""
        title = (f"cluster {self.scenario!r}: {len(self.tenants)} tenants "
                 f"~{self.total_users:,} users on {len(self.machines)} "
                 f"machines ({fmt_ns(self.elapsed_ns)}, "
                 f"{self.total_slo_goodput_gbps:.1f} slo-gbps, "
                 f"{100 * self.slo_attainment:.1f}% slo-att, "
                 f"{len(self.cluster_decisions)} cluster moves)")
        return format_table(
            ["machine", "nic", "tenants", "users", "done", "rej",
             "slo-gbps", "slo-att", "offloads"],
            self.machine_rows(), title=title)


def compile_scenario(scenario, testbed=None):
    """Scenario → (plan, placement map, tenant specs, machine specs,
    topology, users-per-tenant).  Pure: no simulation happens here."""
    testbed = testbed or paper_testbed()
    specs = scenario.machine_specs()
    sample = sample_population(scenario.populations,
                               seed=scenario.population_seed,
                               duration_ns=scenario.duration_ns,
                               ingress_ns=scenario.ingress_ns)
    tenants: List[TenantSpec] = list(sample.tenants)
    pinned: Dict[str, str] = {}
    exports: Dict[str, Dict[str, str]] = {}     # machine -> tenant -> dst
    for doc in scenario.tenants:
        tenants.append(doc.to_spec(ingress_ns=scenario.ingress_ns))
        if doc.machine is not None:
            pinned[doc.name] = doc.machine
        if doc.export is not None:
            exports.setdefault(doc.machine, {})[doc.name] = doc.export.to
    if scenario.scheduler.placement == "binpack":
        where = bin_pack_placement(tenants, specs, testbed,
                                   headroom=scenario.scheduler.headroom,
                                   pinned=pinned)
    else:
        where = round_robin_placement(tenants, specs, testbed,
                                      pinned=pinned)
    by_machine: Dict[str, List[TenantSpec]] = {}
    for spec in sorted(tenants, key=lambda t: t.name):
        by_machine.setdefault(where[spec.name], []).append(spec)
    used = [m for m in specs if m.name in by_machine]
    for i, doc in enumerate(scenario.tenants):
        if doc.export is not None and doc.export.to not in by_machine:
            raise SchemaError(f"tenants[{i}].export.to",
                              f"machine {doc.export.to!r} hosts no tenant")
    shards = tuple(ShardSpec(name=m.name,
                             tenants=tuple(by_machine[m.name]),
                             exports=exports.get(m.name, {}),
                             nic=m.nic)
                   for m in used)
    nodes = [m.name for m in used] + [scenario.lb_name]
    overrides = {}
    for m in used:
        overrides[(scenario.lb_name, m.name)] = scenario.lb_latency_ns
        overrides[(m.name, scenario.lb_name)] = scenario.lb_latency_ns
    topology = ShardTopology(shards=tuple(nodes),
                             link_latency_ns=scenario.link_latency_ns,
                             overrides=overrides, lb=scenario.lb_name)
    plan = ShardPlan(shards=shards, topology=topology,
                     cluster_faults=scenario.faults)
    users = {name: sample.users.get(name, 0) for name in where}
    return plan, where, tenants, tuple(used), topology, users


def run_cluster(scenario, jobs: Optional[int] = None, testbed=None,
                supervisor=None) -> ClusterReport:
    """Run one rack-scale scenario end to end.

    ``scenario`` is a :class:`~repro.api.schema.ClusterScenario` or a
    path to its JSON document; to change the rack, the population seed,
    the placement policy, migration or the engine, run an edited
    document (``dataclasses.replace``, :meth:`ClusterScenario.resized`).
    ``jobs`` and ``supervisor`` pass through to
    :func:`~repro.sim.shard.run_sharded`.

    Bit-identity: the report is identical across ``jobs={1,N}``, with
    or without a live migration controller, because placement and
    sampling are pure and the controller is a pure function of the
    (deterministic) heartbeat sequence.
    """
    # Lazy: repro.api.schema imports repro.cluster.machine at module
    # load, so importing it at this module's load would cycle.
    from repro.api.schema import ClusterScenario
    if isinstance(scenario, (str, bytes)) or hasattr(scenario, "read_text"):
        scenario = ClusterScenario.from_file(scenario)
    testbed = testbed or paper_testbed()
    plan, where, tenants, used, topology, users = compile_scenario(
        scenario, testbed=testbed)
    controller = None
    if scenario.scheduler.migrate and len(plan.shards) > 1:
        injector = None
        if plan.chaotic:
            # The controller's own oracle instance: machine_down and
            # machines_lost are pure functions of the plan, so sharing
            # state with run_sharded's injector is unnecessary.
            injector = ClusterInjector(plan.cluster_faults,
                                       [s.name for s in plan.shards],
                                       topology)
        controller = ClusterScheduler(
            specs={t.name: t for t in tenants},
            home=dict(where), topology=topology, injector=injector,
            patience=scenario.scheduler.patience,
            cooldown_windows=scenario.scheduler.cooldown_windows,
            min_samples=scenario.scheduler.min_samples)
    report = run_sharded(plan, jobs=jobs, supervisor=supervisor,
                         controller=controller, testbed=testbed,
                         engine=scenario.engine)
    return ClusterReport(
        scenario=scenario.name,
        serve=report,
        machines=used,
        placement=dict(where),
        cluster_decisions=(list(controller.decisions)
                           if controller is not None else []),
        total_users=sum(users.values()),
        users=users,
    )
