"""The control loop: observe windows, consult the policy, enact leases.

:class:`PathScheduler` is the online counterpart of the static
:class:`~repro.core.advisor.Advisor`.  It ticks on simulated time
(default every 20 µs), and each tick it:

1. checks SoC health (the fault injector flips ``Node.crashed``);
2. pulls each tenant's rolling :class:`~repro.sched.slo.WindowStats`
   from the tracker — live telemetry, not oracle knowledge;
3. asks the :class:`~repro.sched.policy.PathPolicy` for a decision;
4. enacts it through :meth:`~repro.sched.runtime.ServingRuntime.rebind`
   and attributes it — a :class:`~repro.sched.policy.Decision` in the
   log, a zero-duration span annotation in the trace (so ``repro trace``
   timelines show *why* a flow moved), and a telemetry counter bump.

Every input is deterministic (DES time, seeded streams), so two runs of
the same plan produce bit-identical decision logs — asserted by
``tests/sched/test_determinism.py``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sched.policy import Decision, PathPolicy, Placement
from repro.sched.runtime import ServingRuntime
from repro.sched.slo import SloTracker
from repro.trace.tracer import Tracer


class PathScheduler:
    """Online path scheduling over a serving runtime."""

    def __init__(self, runtime: ServingRuntime, policy: PathPolicy,
                 tracker: SloTracker, interval_ns: float = 20_000.0,
                 tracer: Optional[Tracer] = None, machine: str = ""):
        if interval_ns <= 0:
            raise ValueError(f"tick interval must be positive: {interval_ns}")
        self.runtime = runtime
        self.policy = policy
        self.tracker = tracker
        self.interval_ns = interval_ns
        self.tracer = tracer
        self.machine = machine
        self.decisions: List[Decision] = []
        # Hybrid-engine listener: called with each post-placement
        # Decision so the controller can open a guard window around the
        # transient.  None on pure-DES runs (no events either way).
        self.on_decision = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Place every tenant and start the control loop."""
        soc_ok = self.runtime.soc_available
        for spec in self.runtime.specs:
            placement = self.policy.place(spec, soc_available=soc_ok)
            lease = self.runtime.place(spec, placement)
            self._record(spec.name, "place", placement, lease.generation,
                         from_path=None, from_responder="")
            if placement.rate_cap_gbps:
                self._record(
                    spec.name, "admission", placement, lease.generation,
                    from_path=None, from_responder="",
                    reason=f"rate cap {placement.rate_cap_gbps:.0f} Gbps",
                    advice_refs=("rule-p-minus-n",))
        self.runtime.sim.spawn(self._loop())

    def _loop(self):
        while not self.runtime.done:
            yield self.runtime.sim.timeout(self.interval_ns)
            self.tick()

    # -- one control tick ---------------------------------------------------

    def tick(self) -> None:
        now = self.runtime.sim.now
        soc_ok = self.runtime.soc_available
        offered = self.runtime.offered_mrps_by_path()
        for spec in self.runtime.specs:
            lease = self.runtime.lease(spec.name)
            stats = self.tracker.window(spec.name, now)
            placement = self.policy.decide(
                spec, lease.path, lease.responder, lease.degraded,
                stats, soc_ok, now, offered)
            if placement is None:
                continue
            from_path, from_responder = lease.path, lease.responder
            lease = self.runtime.rebind(spec.name, placement)
            self.policy.note_change(spec.name, now)
            kind = ("failover" if placement.reason == "soc-crash"
                    else "migrate")
            self.runtime.cluster.bump(f"sched.{kind}s")
            self._record(spec.name, kind, placement, lease.generation,
                         from_path=from_path, from_responder=from_responder,
                         observed_p99_ns=stats.p99_ns)
            if self.on_decision is not None:
                self.on_decision(self.decisions[-1])

    # -- attribution --------------------------------------------------------

    def _record(self, tenant: str, kind: str, placement: Placement,
                generation: int, from_path, from_responder: str,
                reason: Optional[str] = None,
                advice_refs: Optional[tuple] = None,
                observed_p99_ns: float = 0.0) -> None:
        decision = Decision(
            time_ns=self.runtime.sim.now, tenant=tenant, kind=kind,
            to_path=placement.path, to_responder=placement.responder,
            from_path=from_path, from_responder=from_responder,
            reason=reason if reason is not None else placement.reason,
            advice_refs=(advice_refs if advice_refs is not None
                         else placement.advice_refs),
            observed_p99_ns=observed_p99_ns, generation=generation,
            machine=self.machine)
        self.decisions.append(decision)
        if self.tracer is not None:
            self.tracer.annotate(
                f"sched.{kind}", category="control", tenant=tenant,
                to_path=placement.path.value, reason=decision.reason)
