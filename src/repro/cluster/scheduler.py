"""Cluster-level scheduling: tenant → machine placement and migration.

Two halves, same Fig-11 vocabulary as the per-machine
:class:`~repro.sched.policy.PathPolicy`:

* **Placement** (:func:`bin_pack_placement` /
  :func:`round_robin_placement`) — before the run, tenants are packed
  onto machines against each machine's *concurrent* per-path budgets
  from :meth:`Advisor.plan <repro.core.advisor.Advisor>`'s analyzer
  (Mrps for client paths, the ``P − N`` Gbps budget for path ③), with
  the device model enforced: RNIC machines take host-terminated client
  tenants only — never bulk shippers.  Round-robin is the static
  baseline the benchmark compares against.

* **Migration** (:class:`ClusterScheduler`) — during the run, the
  lockstep parent hands the scheduler every shard's barrier heartbeat.
  It keeps per-tenant SLO breach streaks from the closed-window
  digests, and when a machine's tenants breach persistently it directs
  one latency-tolerant local tenant to be *served remotely* by the
  least-loaded surviving machine (load-aware: completed-per-window
  deltas, remote-assignment pressure and observed fabric RTT).
  Machine crashes retarget or return remote tenants.  Directives
  travel the fabric as ``ctl`` messages from the LB node, so they are
  window-logged, replay-safe and bit-identical across ``jobs={1,N}``
  — the scheduler is a pure function of the heartbeat sequence.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set

from repro.cluster.machine import MachineSpec
from repro.core.advisor import Advisor
from repro.core.paths import CommPath, Opcode
from repro.hw.cpu import RELAY_GIBPS
from repro.sched.tenant import TenantSpec
from repro.sim.xshard import ShardMessage, ShardTopology
from repro.units import gib_per_s

#: Stand-in for the remote host's CPU dispatch inside the relay-cost
#: estimate (the exact value comes from the testbed at serve time).
_RELAY_CPU_NS = 2_000.0


# ---------------------------------------------------------------------------
# placement
# ---------------------------------------------------------------------------


def _tenant_path(spec: TenantSpec, advisor: Advisor,
                 machine: MachineSpec) -> CommPath:
    """The path the tenant would occupy on ``machine``."""
    if spec.bulk:
        return CommPath.SNIC3_H2S
    if not machine.soc:
        return CommPath.SNIC1        # RNIC: host termination only
    plan = advisor.plan(spec.profile())
    return (plan.two_sided_path if spec.mix.send >= 0.5
            else plan.one_sided_path)


class _MachineLoad:
    """Mutable packing state for one machine."""

    __slots__ = ("spec", "mrps", "bulk_gbps", "clients")

    def __init__(self, spec: MachineSpec):
        self.spec = spec
        self.mrps: Dict[CommPath, float] = {}
        self.bulk_gbps = 0.0
        self.clients = 0

    def assign(self, tenant: TenantSpec, path: CommPath) -> None:
        if tenant.bulk:
            self.bulk_gbps += tenant.offered_gbps
        else:
            self.mrps[path] = self.mrps.get(path, 0.0) + tenant.rate_mrps
            self.clients += 1

    @property
    def total_mrps(self) -> float:
        return sum(self.mrps.values())


def _eligible(tenant: TenantSpec, load: _MachineLoad,
              max_clients: int) -> bool:
    if tenant.bulk:
        return load.spec.soc
    return load.clients < max_clients


def _fits(tenant: TenantSpec, load: _MachineLoad, advisor: Advisor,
          headroom: float) -> bool:
    """Fig-11 admission at cluster scope, mirroring
    :meth:`repro.sched.policy.PathPolicy._fits`."""
    path = _tenant_path(tenant, advisor, load.spec)
    if tenant.bulk:
        budget = advisor.analyzer.path3_budget_gbps()
        if budget <= 0:
            return True
        return load.bulk_gbps + tenant.offered_gbps <= headroom * budget
    op = (Opcode.READ if tenant.mix.read >= tenant.mix.write
          else Opcode.WRITE)
    budgets = advisor.analyzer.concurrent_endpoint_budgets(
        op, payload=tenant.payload)
    budget = budgets.get(path)
    if budget is None or budget <= 0:
        return True
    bound = load.mrps.get(path, 0.0)
    return bound + tenant.rate_mrps <= headroom * budget


def _seed_pins(loads: Dict[str, _MachineLoad], advisor: Advisor,
               tenants: Sequence[TenantSpec],
               pinned: Mapping[str, str]) -> Dict[str, str]:
    placement: Dict[str, str] = {}
    by_name = {t.name: t for t in tenants}
    for name in sorted(pinned):
        machine = pinned[name]
        if machine not in loads:
            raise ValueError(f"tenant {name!r} pinned to unknown machine "
                             f"{machine!r}")
        spec = by_name[name]
        load = loads[machine]
        if spec.bulk and not load.spec.soc:
            raise ValueError(f"bulk tenant {name!r} pinned to RNIC "
                             f"machine {machine!r}")
        load.assign(spec, _tenant_path(spec, advisor, load.spec))
        placement[name] = machine
    return placement


def bin_pack_placement(tenants: Sequence[TenantSpec],
                       machines: Sequence[MachineSpec], testbed,
                       headroom: float = 0.9,
                       pinned: Optional[Mapping[str, str]] = None
                       ) -> Dict[str, str]:
    """First-fit-decreasing against per-machine Fig-11 budgets.

    Bulk shippers (the big rocks, SNIC-only) pack first by offered
    Gbps against the ``P − N`` budget; client tenants follow by
    offered Mrps against the concurrent path partitions.  Among
    machines that fit, the least-loaded wins (ties by name).  When
    nothing fits the budgets, the least-loaded *eligible* machine
    takes the overflow — admission control inside the machine will
    shed what the budgets cannot carry.  The hard limits are device
    (no bulk on RNIC) and client capacity (``testbed.n_clients``
    non-bulk tenants per machine).
    """
    if not machines:
        raise ValueError("no machines to place on")
    advisor = Advisor(testbed)
    max_clients = testbed.n_clients
    loads = {m.name: _MachineLoad(m) for m in machines}
    if len(loads) != len(machines):
        raise ValueError(f"duplicate machine names: "
                         f"{[m.name for m in machines]}")
    placement = _seed_pins(loads, advisor, tenants, pinned or {})
    free = [t for t in tenants if t.name not in placement]
    order = (sorted((t for t in free if t.bulk),
                    key=lambda t: (-t.offered_gbps, t.name))
             + sorted((t for t in free if not t.bulk),
                      key=lambda t: (-t.rate_mrps, t.name)))
    for spec in order:
        eligible = [load for name, load in sorted(loads.items())
                    if _eligible(spec, load, max_clients)]
        if not eligible:
            raise ValueError(
                f"no machine can host tenant {spec.name!r}: "
                f"{'bulk needs an SNIC machine' if spec.bulk else 'client capacity exhausted'}")

        def _score(load: _MachineLoad) -> tuple:
            return (load.total_mrps + load.bulk_gbps / 100.0,
                    load.clients, load.spec.name)

        fitting = [load for load in eligible
                   if _fits(spec, load, advisor, headroom)]
        best = min(fitting or eligible, key=_score)
        best.assign(spec, _tenant_path(spec, advisor, best.spec))
        placement[spec.name] = best.spec.name
    return placement


def round_robin_placement(tenants: Sequence[TenantSpec],
                          machines: Sequence[MachineSpec], testbed,
                          pinned: Optional[Mapping[str, str]] = None
                          ) -> Dict[str, str]:
    """The static baseline: cycle machines in order, budget-blind.

    Only the hard constraints are honored (device eligibility and
    client capacity); everything the bin-packer knows about budgets is
    deliberately ignored.
    """
    if not machines:
        raise ValueError("no machines to place on")
    advisor = Advisor(testbed)
    max_clients = testbed.n_clients
    loads = {m.name: _MachineLoad(m) for m in machines}
    placement = _seed_pins(loads, advisor, tenants, pinned or {})
    ring = [loads[m.name] for m in machines]
    cursor = 0
    for spec in (t for t in tenants if t.name not in placement):
        for hop in range(len(ring)):
            load = ring[(cursor + hop) % len(ring)]
            if _eligible(spec, load, max_clients):
                load.assign(spec, _tenant_path(spec, advisor, load.spec))
                placement[spec.name] = load.spec.name
                cursor = (cursor + hop + 1) % len(ring)
                break
        else:
            raise ValueError(
                f"no machine can host tenant {spec.name!r}: "
                f"{'bulk needs an SNIC machine' if spec.bulk else 'client capacity exhausted'}")
    return placement


# ---------------------------------------------------------------------------
# runtime migration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterDecision:
    """One cluster-level scheduling decision.

    Deliberately *not* a :class:`~repro.sched.policy.Decision`: those
    attribute path moves inside a machine (and require a
    :class:`~repro.core.paths.CommPath`); cluster moves are between
    machines and have none.
    """

    window: int
    time_ns: float
    tenant: str
    kind: str            # offload | retarget | return | machine-down
    machine: str         # the tenant's home machine (or the dead one)
    target: str          # remote serving machine ("" for return/down)
    reason: str

    def as_tuple(self) -> tuple:
        """Hashable, bit-comparable form (the determinism oracle)."""
        return (self.window, self.time_ns, self.tenant, self.kind,
                self.machine, self.target, self.reason)


class ClusterScheduler:
    """Barrier-time migration controller over the machine fabric.

    Driven by :func:`repro.sim.shard.run_sharded` via ``observe`` at
    every closed window.  All state transitions are pure functions of
    the (deterministic) heartbeat sequence, so the scheduler introduces
    no divergence between ``jobs=1`` and ``jobs=N``.

    * ``patience`` — consecutive breaching SLO windows a machine's
      tenant must show before its machine may shed load.
    * ``cooldown_windows`` — sync windows a machine waits between
      offloads (hysteresis against flapping).
    * ``min_samples`` — completions a window needs before its p99 is
      trusted (rejections always count as breaching).
    * ``rtt_slack`` — a tenant is offload-eligible only if its SLO
      deadline exceeds ``rtt_slack ×`` the estimated remote-serve cost
      (two fabric traversals plus the host relay).
    * ``pressure_penalty`` — load-score surcharge per tenant already
      directed at a target machine, so one idle machine does not
      absorb every offload at once.
    """

    def __init__(self, specs: Mapping[str, TenantSpec],
                 home: Mapping[str, str], topology: ShardTopology,
                 injector=None, patience: int = 2,
                 cooldown_windows: int = 6, min_samples: int = 4,
                 rtt_slack: float = 2.0, pressure_penalty: float = 25.0):
        if patience < 1:
            raise ValueError(f"patience must be >= 1: {patience}")
        if cooldown_windows < 1:
            raise ValueError(
                f"cooldown must be >= 1 window: {cooldown_windows}")
        missing = sorted(set(home) - set(specs))
        if missing:
            raise ValueError(f"homed tenants without specs: {missing}")
        self.specs = dict(specs)
        self.home = dict(home)
        self.topology = topology
        self.lb = topology.lb
        self.injector = injector
        self.patience = patience
        self.cooldown_windows = cooldown_windows
        self.min_samples = min_samples
        self.rtt_slack = rtt_slack
        self.pressure_penalty = pressure_penalty
        #: tenant -> machine currently serving it remotely.
        self.remote: Dict[str, str] = {}
        self.decisions: List[ClusterDecision] = []
        self.ctl_sent = 0
        self.offloads = 0
        self.retargets = 0
        self.returns = 0
        self.machine_downs = 0
        self._ids = itertools.count(1)
        self._breach: Dict[str, int] = {}
        self._seen_window: Dict[str, int] = {}
        self._cooldown_until: Dict[str, int] = {}
        self._prev_total: Dict[str, int] = {}
        self._prev_barrier = 0.0

    # -- identity -----------------------------------------------------------

    def fingerprint(self) -> str:
        """Joins the run fingerprint: resuming a checkpoint under a
        different scheduler policy must be refused."""
        payload = repr((
            sorted(self.home.items()), self.lb, self.patience,
            self.cooldown_windows, self.min_samples, self.rtt_slack,
            self.pressure_penalty,
        )).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    def counters(self) -> Dict[str, int]:
        return {
            "clustersched.ctl_sent": self.ctl_sent,
            "clustersched.offloads": self.offloads,
            "clustersched.retargets": self.retargets,
            "clustersched.returns": self.returns,
            "clustersched.machine_down": self.machine_downs,
        }

    # -- the per-window tick ------------------------------------------------

    def observe(self, window_no: int, barrier: float,
                heartbeats: Mapping[str, dict],
                done: Mapping[str, bool]) -> List[ShardMessage]:
        """One barrier tick: digest heartbeats, emit ctl directives."""
        machines = sorted(heartbeats)
        if self.injector is not None:
            alive = set(self.injector.alive_shards(barrier)) & set(machines)
            for lost in self.injector.machines_lost(self._prev_barrier,
                                                    barrier):
                self.machine_downs += 1
                self._log(window_no, barrier, "", "machine-down", lost, "",
                          f"machine {lost} crashed")
        else:
            alive = set(machines)
        self._prev_barrier = barrier

        window_load = self._window_load(machines, heartbeats)
        pressure: Dict[str, float] = {m: 0.0 for m in machines}
        for target in self.remote.values():
            if target in pressure:
                pressure[target] += self.pressure_penalty

        messages: List[ShardMessage] = []
        self._retarget_dead(messages, window_no, barrier, machines, alive,
                            window_load, pressure, heartbeats, done)
        self._update_breaches(machines, heartbeats)
        self._offload_hot(messages, window_no, barrier, machines, alive,
                          window_load, pressure, heartbeats, done)
        self.ctl_sent += len(messages)
        return messages

    # -- internals ----------------------------------------------------------

    def _window_load(self, machines: Sequence[str],
                     heartbeats: Mapping[str, dict]) -> Dict[str, float]:
        """Completions each machine absorbed since the last barrier."""
        load: Dict[str, float] = {}
        for machine in machines:
            total = heartbeats[machine].get("load", (0, 0, 0, 0.0))[0]
            load[machine] = float(total - self._prev_total.get(machine, 0))
            self._prev_total[machine] = total
        return load

    def _retarget_dead(self, messages, window_no, barrier, machines, alive,
                       window_load, pressure, heartbeats, done) -> None:
        for tenant in sorted(self.remote):
            target = self.remote[tenant]
            home = self.home[tenant]
            if home not in alive or done.get(home, False):
                continue             # no one left to direct
            if target in alive and not done.get(target, False):
                continue
            fresh = self._pick_target(machines, alive, window_load,
                                      pressure, heartbeats, done,
                                      exclude={home, target})
            if fresh is None:
                self._direct(messages, window_no, barrier, tenant, home,
                             None, "return", f"target {target} unavailable")
            else:
                pressure[fresh] += self.pressure_penalty
                self._direct(messages, window_no, barrier, tenant, home,
                             fresh, "retarget",
                             f"target {target} unavailable")

    def _update_breaches(self, machines, heartbeats) -> None:
        for machine in machines:
            digests = heartbeats[machine].get("windows") or {}
            for tenant in sorted(digests):
                digest = digests[tenant]
                if digest is None:
                    continue
                idx, count, p99_ns, rejected, _violations = digest
                if self._seen_window.get(tenant) == idx:
                    continue         # window already digested
                self._seen_window[tenant] = idx
                spec = self.specs.get(tenant)
                if spec is None:
                    continue
                breaching = (rejected > 0
                             or (count >= self.min_samples
                                 and p99_ns > spec.slo.p99_ns))
                self._breach[tenant] = (self._breach.get(tenant, 0) + 1
                                        if breaching else 0)

    def _offload_hot(self, messages, window_no, barrier, machines, alive,
                     window_load, pressure, heartbeats, done) -> None:
        for machine in machines:
            if machine not in alive or done.get(machine, False):
                continue
            if window_no < self._cooldown_until.get(machine, 0):
                continue
            local = [t for t in sorted(self.home)
                     if self.home[t] == machine and t not in self.remote]
            hot = [t for t in local
                   if self._breach.get(t, 0) >= self.patience]
            if not hot:
                continue
            donor = self._pick_donor(local)
            if donor is None:
                continue
            target = self._pick_target(machines, alive, window_load,
                                       pressure, heartbeats, done,
                                       exclude={machine})
            if target is None:
                continue
            pressure[target] += self.pressure_penalty
            self._direct(messages, window_no, barrier, donor, machine,
                         target, "offload",
                         f"{len(hot)} tenant(s) breaching SLO on {machine}")
            self._cooldown_until[machine] = window_no + self.cooldown_windows

    def _relay_cost_ns(self, spec: TenantSpec) -> float:
        """Estimated remote-serve latency: two fabric traversals plus
        the remote host relay (CPU dispatch + DRAM-speed copy)."""
        return (2.0 * self.topology.link_latency_ns + _RELAY_CPU_NS
                + max(1, spec.payload) / gib_per_s(RELAY_GIBPS))

    def _pick_donor(self, local: Sequence[str]) -> Optional[str]:
        """The tenant whose departure relieves the machine most, among
        those whose deadline tolerates remote serving."""
        eligible = [t for t in local
                    if self.specs[t].slo.deadline
                    >= self.rtt_slack * self._relay_cost_ns(self.specs[t])]
        if not eligible:
            return None
        return max(eligible,
                   key=lambda t: (self.specs[t].offered_gbps, t))

    def _pick_target(self, machines, alive: Set[str], window_load,
                     pressure, heartbeats, done,
                     exclude: Set[str]) -> Optional[str]:
        """Least-loaded surviving machine: window completions plus
        remote-assignment pressure, fabric RTT as the tiebreak."""
        candidates = [m for m in machines
                      if m in alive and m not in exclude
                      and not done.get(m, False)]
        if not candidates:
            return None

        def _score(machine: str) -> tuple:
            load = heartbeats[machine].get("load", (0, 0, 0, 0.0))
            _total, _served, acked, rtt_total = load
            mean_rtt = rtt_total / acked if acked else 0.0
            return (window_load.get(machine, 0.0) + pressure[machine],
                    mean_rtt, machine)

        return min(candidates, key=_score)

    def _direct(self, messages: List[ShardMessage], window_no: int,
                barrier: float, tenant: str, home: str,
                target: Optional[str], kind: str, reason: str) -> None:
        note = f"serve-on:{target}" if target is not None else "serve-local"
        src = self.lb if self.lb is not None else "cluster"
        try:
            latency = self.topology.latency_ns(src, home)
        except KeyError:
            latency = self.topology.link_latency_ns
        messages.append(ShardMessage(
            src=src, dst=home, kind="ctl", tenant=tenant, nbytes=0,
            send_ns=barrier, deliver_ns=barrier + latency,
            msg_id=next(self._ids), note=note))
        if target is not None:
            self.remote[tenant] = target
        else:
            self.remote.pop(tenant, None)
        if kind == "offload":
            self.offloads += 1
        elif kind == "retarget":
            self.retargets += 1
        elif kind == "return":
            self.returns += 1
        self._log(window_no, barrier, tenant, kind, home, target or "",
                  reason)

    def _log(self, window_no: int, barrier: float, tenant: str, kind: str,
             machine: str, target: str, reason: str) -> None:
        self.decisions.append(ClusterDecision(
            window=window_no, time_ns=barrier, tenant=tenant, kind=kind,
            machine=machine, target=target, reason=reason))
