"""The declarative cluster-scenario schema: one JSON document → one run.

A *scenario* names everything a rack-scale serving experiment needs —
the machines (with their NIC devices), the tenant population (either
stochastic user cohorts or explicit tenant specs), the load-balancer
tier, the placement/migration policy and an optional fault plan — and
round-trips losslessly through JSON::

    scenario = ClusterScenario.from_file("examples/rack_scenario.json")
    report = repro.cluster.run_cluster(scenario)

``examples/rack_scenario.json`` is the canonical document; the CLI
front door is ``repro serve --cluster <doc.json>``, whose ``--machines``,
``--population-seed``, ``--placement``, ``--no-migrate`` and
``--engine`` flags are ``dataclasses.replace`` edits of the document.
Compilation to an executable :class:`~repro.sim.shard.ShardPlan` lives
in :mod:`repro.cluster.run` — this module is pure description.

Each document type declares its fields once, as a frozen dataclass;
:mod:`repro.codec` decodes and encodes every one of them from those
declarations.  Parsing is strict: an unknown key, a missing required
field, a wrong JSON type (``"bulk": "false"``, ``"tenants": null``) or
a value the type's own validation refuses (an explicit tenant with
``"workers": 0``) raises :class:`SchemaError` carrying the JSON path of
the offending field (``populations[0].active_users.sd``), so a typo in
a 300-line document is a one-line fix, not a stack trace safari.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.cluster.machine import MachineSpec
from repro.codec import SchemaError, decode, encode
from repro.faults.plan import FaultPlan
from repro.sched.serve import ENGINE_CHOICES
from repro.sched.tenant import TenantSpec
from repro.units import GB
from repro.workloads.population import PopulationSpec, tenant_spec

_PLACEMENTS = ("binpack", "round-robin")


@dataclass(frozen=True)
class MachineDoc:
    """One machine — or, with ``count``, a homogeneous group.

    ``{"name": "web", "nic": "snic", "count": 9}`` expands to machines
    ``web00`` … ``web08``; ``count=1`` keeps the bare name.
    """

    name: str
    nic: str = "snic"
    count: int = 1

    def __post_init__(self):
        MachineSpec(name=self.name, nic=self.nic)   # name and nic checks
        if self.count < 1:
            raise ValueError(f"count must be >= 1: {self.count}")

    def expand(self) -> Tuple[MachineSpec, ...]:
        if self.count == 1:
            return (MachineSpec(name=self.name, nic=self.nic),)
        return tuple(MachineSpec(name=f"{self.name}{i:02d}", nic=self.nic)
                     for i in range(self.count))


@dataclass(frozen=True)
class SchedulerDoc:
    """Cluster placement and migration policy knobs."""

    placement: str = "binpack"
    migrate: bool = True
    patience: int = 2
    cooldown_windows: int = 6
    min_samples: int = 4
    headroom: float = 0.9

    def __post_init__(self):
        if self.placement not in _PLACEMENTS:
            raise SchemaError("scheduler.placement",
                              f"unknown placement {self.placement!r}; "
                              f"expected one of {_PLACEMENTS}")
        if not 0.0 < self.headroom <= 1.0:
            raise SchemaError("scheduler.headroom",
                              f"headroom must be in (0, 1]: {self.headroom}")


@dataclass(frozen=True)
class TenantDoc:
    """One explicitly-specified tenant (versus a stochastic cohort).

    The knobs mirror :class:`~repro.sched.tenant.TenantSpec`;
    ``machine`` optionally pins the tenant to a named machine (the
    placement policies seed pins first and pack around them).  A doc
    the spec would refuse is refused when the doc is built.
    """

    name: str
    payload: int
    interval_ns: float
    requests: int
    read_fraction: float = 1.0
    send_fraction: float = 0.0
    bulk: bool = False
    slo_p99_ns: float = 50_000.0
    working_set_bytes: float = 1 * GB
    hot_range_bytes: Optional[float] = None
    workers: int = 4
    queue_limit: int = 32
    seed: int = 0
    machine: Optional[str] = None

    def __post_init__(self):
        self.to_spec()

    def to_spec(self, ingress_ns: float = 0.0) -> TenantSpec:
        return tenant_spec(self, name=self.name,
                           interval_ns=self.interval_ns,
                           requests=self.requests, seed=self.seed,
                           ingress_ns=ingress_ns,
                           send_fraction=self.send_fraction)


@dataclass(frozen=True)
class ClusterScenario:
    """The whole experiment, declaratively.

    * ``machines`` — the rack (:class:`MachineDoc`, expandable groups).
    * ``populations`` — stochastic user cohorts
      (:class:`~repro.workloads.population.PopulationSpec`), sampled
      open-loop into concrete tenants by ``population_seed``.
    * ``tenants`` — explicit tenants (:class:`TenantDoc`), optionally
      pinned to machines; may be combined with populations.
    * ``lb_latency_ns`` — the load-balancer hop; request latencies gain
      one LB round trip (``2 × lb_latency_ns``) of ingress.  Must not
      exceed ``link_latency_ns``: the fabric's fault timeout is derived
      from the *worst* link, and a slower LB hop would widen it and
      perturb runs that never touch the LB.
    * ``scheduler`` — placement policy + migration knobs.
    * ``faults`` — optional cluster-scope chaos plan
      (:class:`~repro.faults.plan.FaultPlan`).
    """

    name: str
    duration_ns: float
    machines: Tuple[MachineDoc, ...]
    populations: Tuple[PopulationSpec, ...] = ()
    tenants: Tuple[TenantDoc, ...] = ()
    population_seed: int = 0
    link_latency_ns: float = 25_000.0
    lb_latency_ns: float = 5_000.0
    lb_name: str = "lb"
    engine: str = "event"
    scheduler: SchedulerDoc = field(default_factory=SchedulerDoc)
    faults: Optional[FaultPlan] = None

    def __post_init__(self):
        if not self.name:
            raise SchemaError("name", "scenario needs a name")
        if self.duration_ns <= 0:
            raise SchemaError("duration_ns",
                              f"must be positive: {self.duration_ns}")
        if not self.machines:
            raise SchemaError("machines", "need at least one machine")
        if not self.populations and not self.tenants:
            raise SchemaError("populations",
                              "need populations or tenants (or both)")
        if self.engine not in ENGINE_CHOICES:
            raise SchemaError("engine", f"unknown engine {self.engine!r}; "
                                        f"expected one of {ENGINE_CHOICES}")
        if self.link_latency_ns <= 0:
            raise SchemaError("link_latency_ns",
                              f"must be positive: {self.link_latency_ns}")
        if not 0 < self.lb_latency_ns <= self.link_latency_ns:
            raise SchemaError(
                "lb_latency_ns",
                f"must be in (0, link_latency_ns]: {self.lb_latency_ns} "
                f"(link {self.link_latency_ns})")
        if not self.lb_name:
            raise SchemaError("lb_name", "load balancer needs a name")
        specs = self.machine_specs()
        names = [m.name for m in specs]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise SchemaError("machines",
                              f"expanded machine names collide: {dupes}")
        if self.lb_name in names:
            raise SchemaError("lb_name",
                              f"{self.lb_name!r} collides with a machine")
        known = set(names)
        for i, doc in enumerate(self.tenants):
            if doc.machine is not None and doc.machine not in known:
                raise SchemaError(f"tenants[{i}].machine",
                                  f"unknown machine {doc.machine!r}")
        tenant_names = [d.name for d in self.tenants]
        dupes = sorted({n for n in tenant_names if tenant_names.count(n) > 1})
        if dupes:
            raise SchemaError("tenants", f"duplicate tenant names: {dupes}")
        pop_names = [p.name for p in self.populations]
        dupes = sorted({n for n in pop_names if pop_names.count(n) > 1})
        if dupes:
            raise SchemaError("populations",
                              f"duplicate cohort names: {dupes}")

    def machine_specs(self) -> Tuple[MachineSpec, ...]:
        """The rack, with machine groups expanded to individuals."""
        return tuple(spec for doc in self.machines
                     for spec in doc.expand())

    def resized(self, machines: int) -> "ClusterScenario":
        """This scenario on a rack of ``machines`` machines named
        ``m00``, ``m01``, …, cycling the document's own NIC pattern so
        the SNIC/RNIC mix holds.  A tenant pinned to a machine the new
        rack lacks is a :class:`SchemaError`."""
        pattern = [m.nic for m in self.machine_specs()]
        return replace(self, machines=tuple(
            MachineDoc(name=f"m{i:02d}", nic=pattern[i % len(pattern)])
            for i in range(machines)))

    @property
    def ingress_ns(self) -> float:
        """Per-request network overhead outside the machine: one LB
        round trip."""
        return 2.0 * self.lb_latency_ns

    # -- (de)serialization: repro.codec, from the field declarations -------

    def to_dict(self) -> dict:
        return encode(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ClusterScenario":
        return decode(cls, raw)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ClusterScenario":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path) -> "ClusterScenario":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))
