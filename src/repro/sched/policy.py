"""The decision function: the paper's advice, enacted per control tick.

:class:`PathPolicy` is pure decision logic — no simulation objects, no
side effects — so every choice the scheduler makes is a deterministic
function of (tenant spec, current lease, window stats, SoC health,
time).  The mapping from the paper's advice to decisions:

* **Advice #1 (skew)** / **capacity** — the advisor's initial placement
  puts skewed or oversized one-sided tenants on path ① (host memory).
* **Wimpy SoC** — two-sided tenants terminate on the host.
* **Fig 11 partition** — when tenants occupy both ① and ②, migrations
  are admitted against the *concurrent* per-path budgets from the
  :class:`~repro.core.flows.ConcurrencyAnalyzer`, not the solo peaks.
* **Rule P − N** — path-③ tenants get a token-bucket rate cap at the
  partitioned budget (56 Gbps on the paper's testbed); arrivals beyond
  it back up in the bounded queue and bounce (admission control).
* **Failover** — a crashed SoC fails every SoC-terminated tenant
  host-ward: path-② tenants re-bind to host memory, path-③ tenants
  drop to the degraded host-local relay (PR 3's graceful degradation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.advisor import Advisor, OffloadPlan
from repro.core.paths import CommPath, Opcode
from repro.net.topology import Testbed
from repro.sched.slo import WindowStats
from repro.sched.tenant import TenantSpec


@dataclass(frozen=True)
class Decision:
    """One scheduling decision, exactly as enacted (and span-attributed)."""

    time_ns: float
    tenant: str
    kind: str                       # place | migrate | failover | admission
    to_path: CommPath
    to_responder: str
    from_path: Optional[CommPath] = None
    from_responder: str = ""
    reason: str = ""
    advice_refs: Tuple[str, ...] = ()
    observed_p99_ns: float = 0.0
    generation: int = 0
    #: Which machine (shard) enacted the decision; "" on unsharded runs.
    #: Shards the decision log per machine so the cluster-level merge
    #: can attribute every move.
    machine: str = ""

    def as_tuple(self) -> tuple:
        """A hashable, bit-comparable form (the determinism oracle)."""
        return (self.time_ns, self.tenant, self.kind, self.to_path.value,
                self.to_responder,
                self.from_path.value if self.from_path else None,
                self.from_responder, self.reason, self.advice_refs,
                self.observed_p99_ns, self.generation, self.machine)


@dataclass(frozen=True)
class Placement:
    """The policy's answer for a tenant's initial (or re-)binding."""

    path: CommPath
    responder: str                  # endpoint kind: "host" or "soc"
    rate_cap_gbps: Optional[float]  # token-bucket admission cap
    degraded: bool                  # host-local relay (SoC down)
    reason: str
    advice_refs: Tuple[str, ...]


#: Which endpoint kind terminates each schedulable path.
_RESPONDER = {
    CommPath.SNIC1: "host",
    CommPath.SNIC2: "soc",
    CommPath.SNIC3_H2S: "soc",
}

#: The alternative endpoint for a client tenant (①↔②).
_ALTERNATE = {CommPath.SNIC1: CommPath.SNIC2,
              CommPath.SNIC2: CommPath.SNIC1}

#: Minimum simulated time between migrations of one tenant, in ns
#: (hysteresis against flapping).
COOLDOWN_NS = 60_000.0
#: Completions a window must hold before its p99 is trusted for a
#: migration decision.
MIN_SAMPLES = 8
#: Fraction of a Fig 11 path budget that offered load may occupy
#: before migrations *into* the path are refused.
HEADROOM = 0.9


class PathPolicy:
    """Advice-driven placement, migration and admission decisions.

    Migrations obey :data:`COOLDOWN_NS`, :data:`MIN_SAMPLES` and
    :data:`HEADROOM`.
    """

    def __init__(self, testbed: Testbed):
        self.testbed = testbed
        self.advisor = Advisor(testbed)
        self._plans: Dict[str, OffloadPlan] = {}
        self._last_change: Dict[str, float] = {}

    # -- placement ----------------------------------------------------------

    def place(self, spec: TenantSpec, soc_available: bool = True) -> Placement:
        """Initial placement straight from the advisor's plan."""
        plan = self.advisor.replan(spec.profile(),
                                   previous=self._plans.get(spec.name),
                                   soc_available=soc_available)
        self._plans[spec.name] = plan
        refs = tuple(plan.advice_refs())
        if spec.bulk:
            degraded = not soc_available
            return Placement(
                path=CommPath.SNIC3_H2S,
                responder="host" if degraded else "soc",
                rate_cap_gbps=plan.path3_budget_gbps or None,
                degraded=degraded,
                reason="advisor-plan", advice_refs=refs)
        path = (plan.two_sided_path if spec.mix.send >= 0.5
                else plan.one_sided_path)
        return Placement(path=path, responder=_RESPONDER[path],
                         rate_cap_gbps=None, degraded=False,
                         reason="advisor-plan", advice_refs=refs)

    def note_change(self, tenant: str, now: float) -> None:
        """Record an enacted decision (starts the cooldown clock)."""
        self._last_change[tenant] = now

    # -- the per-tick decision ---------------------------------------------

    def decide(self, spec: TenantSpec, path: CommPath, responder: str,
               degraded: bool, stats: WindowStats, soc_available: bool,
               now: float,
               offered_mrps_by_path: Dict[CommPath, float]
               ) -> Optional[Placement]:
        """What (if anything) to change for one tenant this tick.

        ``offered_mrps_by_path`` is the runtime's view of open-loop
        offered load currently bound to each path, used for the Fig 11
        feasibility check.  Returns ``None`` for "leave it alone".
        """
        # 1. Failover dominates everything: a crashed SoC black-holes
        #    paths ② and ③ (Advice: fail host-ward).
        if not soc_available and responder == "soc" and not degraded:
            plan = self.advisor.replan(spec.profile(),
                                       previous=self._plans.get(spec.name),
                                       soc_available=False)
            self._plans[spec.name] = plan
            if spec.bulk:
                return Placement(
                    path=path, responder="host", rate_cap_gbps=None,
                    degraded=True, reason="soc-crash",
                    advice_refs=("failover",))
            return Placement(
                path=CommPath.SNIC1, responder="host", rate_cap_gbps=None,
                degraded=False, reason="soc-crash",
                advice_refs=tuple(plan.advice_refs()))

        # 2. SLO-violation migration for client tenants, under cooldown
        #    and the Fig 11 partition feasibility check.
        if spec.bulk or path not in _ALTERNATE:
            return None
        if stats.count < MIN_SAMPLES:
            return None
        if stats.p99_ns <= spec.slo.p99_ns:
            return None
        if now - self._last_change.get(spec.name, 0.0) < COOLDOWN_NS:
            return None
        target = _ALTERNATE[path]
        if target is CommPath.SNIC2 and not soc_available:
            return None
        if not self._fits(spec, target, offered_mrps_by_path):
            return None
        return Placement(
            path=target, responder=_RESPONDER[target], rate_cap_gbps=None,
            degraded=False, reason="slo-p99",
            advice_refs=("fig11-partition",))

    # -- feasibility --------------------------------------------------------

    def _fits(self, spec: TenantSpec, target: CommPath,
              offered_mrps_by_path: Dict[CommPath, float]) -> bool:
        """Fig 11 admission: does the tenant fit the target's budget?

        The concurrent ①/② budgets partition the shared NIC-core pool;
        offered load already bound to the target plus the migrating
        tenant must stay inside :data:`HEADROOM` of the partition.
        """
        op = Opcode.READ if spec.mix.read >= spec.mix.write else Opcode.WRITE
        budgets = self.advisor.analyzer.concurrent_endpoint_budgets(
            op, payload=spec.payload)
        budget = budgets.get(target)
        if budget is None or budget <= 0:
            return True
        bound = offered_mrps_by_path.get(target, 0.0)
        return bound + spec.rate_mrps <= HEADROOM * budget
