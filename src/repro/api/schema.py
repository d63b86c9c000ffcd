"""The declarative cluster-scenario schema: one JSON document → one run.

A *scenario* names everything a rack-scale serving experiment needs —
the machines (with their NIC devices), the tenant population (either
stochastic user cohorts or explicit tenant specs), the load-balancer
tier, the placement/migration policy and an optional fault plan — and
round-trips losslessly through JSON::

    scenario = ClusterScenario.from_file("examples/rack_scenario.json")
    report = repro.cluster.run_cluster(scenario)

``examples/rack_scenario.json`` is the canonical document; the CLI
front door is ``repro serve --cluster <doc.json>``.  Compilation to an
executable :class:`~repro.sim.shard.ShardPlan` lives in
:mod:`repro.cluster.run` — this module is pure description.

Validation errors raise :class:`SchemaError` carrying the JSON path of
the offending field (``machines[2].nic``), so a typo in a 300-line
document is a one-line fix, not a stack trace safari.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.cluster.machine import MachineSpec
from repro.faults.plan import FaultPlan
from repro.sched.serve import ENGINE_CHOICES
from repro.sched.tenant import SloSpec, TenantSpec
from repro.units import GB
from repro.workloads import OpMix
from repro.workloads.population import PopulationSpec

_PLACEMENTS = ("binpack", "round-robin")


class SchemaError(ValueError):
    """A scenario document failed validation, with the JSON path."""

    def __init__(self, path: str, problem: str):
        self.path = path
        super().__init__(f"{path}: {problem}")


def _require(raw: dict, path: str, key: str):
    if key not in raw:
        raise SchemaError(f"{path}.{key}", "required field missing")
    return raw[key]


def _check_keys(raw: dict, path: str, allowed: Tuple[str, ...]) -> None:
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise SchemaError(f"{path}.{unknown[0]}",
                          f"unknown field; expected one of {sorted(allowed)}")


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
        if not self.name:
            raise SchemaError("machines[].name", "machine needs a name")
        if self.count < 1:
            raise SchemaError(f"machines[{self.name}].count",
                              f"count must be >= 1: {self.count}")

    def expand(self) -> Tuple[MachineSpec, ...]:
        if self.count == 1:
            return (MachineSpec(name=self.name, nic=self.nic),)
        return tuple(MachineSpec(name=f"{self.name}{i:02d}", nic=self.nic)
                     for i in range(self.count))

    def to_dict(self) -> dict:
        out = {"name": self.name, "nic": self.nic}
        if self.count != 1:
            out["count"] = self.count
        return out

    @classmethod
    def from_dict(cls, raw: dict, path: str = "machines[]") -> "MachineDoc":
        _check_keys(raw, path, ("name", "nic", "count"))
        try:
            return cls(name=_require(raw, path, "name"),
                       nic=raw.get("nic", "snic"),
                       count=int(raw.get("count", 1)))
        except ValueError as exc:
            if isinstance(exc, SchemaError):
                raise
            raise SchemaError(path, str(exc))


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

    def to_dict(self) -> dict:
        return {"placement": self.placement, "migrate": self.migrate,
                "patience": self.patience,
                "cooldown_windows": self.cooldown_windows,
                "min_samples": self.min_samples, "headroom": self.headroom}

    @classmethod
    def from_dict(cls, raw: dict, path: str = "scheduler") -> "SchedulerDoc":
        _check_keys(raw, path, ("placement", "migrate", "patience",
                                "cooldown_windows", "min_samples",
                                "headroom"))
        try:
            return cls(placement=raw.get("placement", "binpack"),
                       migrate=bool(raw.get("migrate", True)),
                       patience=int(raw.get("patience", 2)),
                       cooldown_windows=int(raw.get("cooldown_windows", 6)),
                       min_samples=int(raw.get("min_samples", 4)),
                       headroom=float(raw.get("headroom", 0.9)))
        except ValueError as exc:
            if isinstance(exc, SchemaError):
                raise
            raise SchemaError(path, str(exc))


@dataclass(frozen=True)
class TenantDoc:
    """One explicitly-specified tenant (versus a stochastic cohort).

    The knobs mirror :class:`~repro.sched.tenant.TenantSpec`;
    ``machine`` optionally pins the tenant to a named machine (the
    placement policies seed pins first and pack around them).
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

    def to_spec(self, ingress_ns: float = 0.0) -> TenantSpec:
        one_sided = max(0.0, 1.0 - self.send_fraction)
        return TenantSpec(
            name=self.name, payload=self.payload,
            interval_ns=self.interval_ns, requests=self.requests,
            mix=OpMix(read=one_sided * self.read_fraction,
                      write=one_sided * (1.0 - self.read_fraction),
                      send=self.send_fraction),
            slo=SloSpec(p99_ns=self.slo_p99_ns),
            bulk=self.bulk, hot_range_bytes=self.hot_range_bytes,
            working_set_bytes=self.working_set_bytes, workers=self.workers,
            queue_limit=self.queue_limit, seed=self.seed,
            ingress_ns=0.0 if self.bulk else ingress_ns)

    def to_dict(self) -> dict:
        out = {"name": self.name, "payload": self.payload,
               "interval_ns": self.interval_ns, "requests": self.requests,
               "read_fraction": self.read_fraction,
               "send_fraction": self.send_fraction, "bulk": self.bulk,
               "slo_p99_ns": self.slo_p99_ns,
               "working_set_bytes": self.working_set_bytes,
               "workers": self.workers, "queue_limit": self.queue_limit,
               "seed": self.seed}
        if self.hot_range_bytes is not None:
            out["hot_range_bytes"] = self.hot_range_bytes
        if self.machine is not None:
            out["machine"] = self.machine
        return out

    @classmethod
    def from_dict(cls, raw: dict, path: str = "tenants[]") -> "TenantDoc":
        _check_keys(raw, path, ("name", "payload", "interval_ns",
                                "requests", "read_fraction",
                                "send_fraction", "bulk", "slo_p99_ns",
                                "working_set_bytes", "hot_range_bytes",
                                "workers", "queue_limit", "seed", "machine"))
        try:
            return cls(
                name=_require(raw, path, "name"),
                payload=int(_require(raw, path, "payload")),
                interval_ns=float(_require(raw, path, "interval_ns")),
                requests=int(_require(raw, path, "requests")),
                read_fraction=float(raw.get("read_fraction", 1.0)),
                send_fraction=float(raw.get("send_fraction", 0.0)),
                bulk=bool(raw.get("bulk", False)),
                slo_p99_ns=float(raw.get("slo_p99_ns", 50_000.0)),
                working_set_bytes=float(raw.get("working_set_bytes",
                                                1 * GB)),
                hot_range_bytes=raw.get("hot_range_bytes"),
                workers=int(raw.get("workers", 4)),
                queue_limit=int(raw.get("queue_limit", 32)),
                seed=int(raw.get("seed", 0)),
                machine=raw.get("machine"))
        except ValueError as exc:
            if isinstance(exc, SchemaError):
                raise
            raise SchemaError(path, str(exc))


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

    @property
    def ingress_ns(self) -> float:
        """Per-request network overhead outside the machine: one LB
        round trip."""
        return 2.0 * self.lb_latency_ns

    # -- (de)serialization --------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "duration_ns": self.duration_ns,
            "machines": [m.to_dict() for m in self.machines],
            "population_seed": self.population_seed,
            "link_latency_ns": self.link_latency_ns,
            "lb_latency_ns": self.lb_latency_ns,
            "lb_name": self.lb_name,
            "engine": self.engine,
            "scheduler": self.scheduler.to_dict(),
        }
        if self.populations:
            out["populations"] = [p.to_dict() for p in self.populations]
        if self.tenants:
            out["tenants"] = [t.to_dict() for t in self.tenants]
        if self.faults is not None:
            out["faults"] = self.faults.to_dict()
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "ClusterScenario":
        _check_keys(raw, "scenario",
                    ("name", "duration_ns", "machines", "populations",
                     "tenants", "population_seed", "link_latency_ns",
                     "lb_latency_ns", "lb_name", "engine", "scheduler",
                     "faults"))
        machines = tuple(
            MachineDoc.from_dict(m, path=f"machines[{i}]")
            for i, m in enumerate(raw.get("machines", ())))
        populations = []
        for i, p in enumerate(raw.get("populations", ())):
            try:
                populations.append(PopulationSpec.from_dict(p))
            except (ValueError, KeyError) as exc:
                raise SchemaError(f"populations[{i}]", str(exc))
        tenants = tuple(
            TenantDoc.from_dict(t, path=f"tenants[{i}]")
            for i, t in enumerate(raw.get("tenants", ())))
        faults = None
        if raw.get("faults") is not None:
            try:
                faults = FaultPlan.from_dict(raw["faults"])
            except (ValueError, KeyError, TypeError) as exc:
                raise SchemaError("faults", str(exc))
        try:
            return cls(
                name=_require(raw, "scenario", "name"),
                duration_ns=float(_require(raw, "scenario", "duration_ns")),
                machines=machines,
                populations=tuple(populations),
                tenants=tenants,
                population_seed=int(raw.get("population_seed", 0)),
                link_latency_ns=float(raw.get("link_latency_ns", 25_000.0)),
                lb_latency_ns=float(raw.get("lb_latency_ns", 5_000.0)),
                lb_name=raw.get("lb_name", "lb"),
                engine=raw.get("engine", "event"),
                scheduler=SchedulerDoc.from_dict(raw.get("scheduler", {})),
                faults=faults)
        except ValueError as exc:
            if isinstance(exc, SchemaError):
                raise
            raise SchemaError("scenario", str(exc))

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ClusterScenario":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path) -> "ClusterScenario":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    def save(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())
            handle.write("\n")
