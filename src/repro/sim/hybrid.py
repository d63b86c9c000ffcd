"""Hybrid analytic/DES execution for serving runs.

The serving stack spends almost all of its events inside steady-state
stretches: tenants admitted at fixed intervals, workers draining
queues whose service times repeat the same congestion sawtooth, the
scheduler ticking without deciding anything.  Event-level simulation
re-derives that equilibrium ~50 events per request; the operational
laws predict it in O(1) per request.

:class:`HybridController` exploits this.  It watches a live
:class:`~repro.sched.runtime.ServingRuntime` and flips the whole run
between two modes:

* **GUARD** — plain DES.  Every run starts here, and every transient
  (fault window, scheduler decision, SoC crash) forces the run back
  here for a guard window, so transient behaviour is always simulated
  at event level.  While guarded, the runtime feeds the controller an
  empirical *service-time profile* per ``(tenant, op, lease
  generation)`` — post-to-completion durations net of queue wait and
  token-bucket pacing.

* **ANALYTIC** — fast-forward.  Once the run has been steady for
  ``STABLE_TICKS`` control ticks (enough window samples per tenant, no
  new losses, no fault window within lookahead), the controller drains
  each tenant's admission queue into a deterministic recurrence.  Each
  arrival process parks in :meth:`HybridController.handover`, and the
  recurrence advances the tenant's one
  :class:`~repro.sched.tenant.ArrivalStream` (the DES's cursor, gaps
  and op draws) until splice-back resumes the process at its cursor.
  Per synthesized arrival it replays the admission check, the shared
  token bucket and a cyclic replay of the recorded service profile —
  advancing completion counts, the :class:`~repro.sched.slo.SloTracker`
  windows and the clock without scheduling events.  Only the control
  ticks remain at event level (~6 events per tick instead of thousands).

Faithfulness contract (checked by ``repro.sim.crosscheck`` and the
property tests):

* pure-DES runs are **bit-identical** to a build without this module —
  the runtime's hooks are ``None`` and dormant;
* hybrid runs match pure DES **exactly** on completion / rejection /
  loss counts and on decision logs;
* p50/p99 latency and goodput agree within the tolerances declared
  in :mod:`repro.sim.crosscheck` (the analytic segment replays
  profiles, so individual latencies are re-sampled, not re-derived).

Known, documented divergences: per-component telemetry counters (the
analytic segment posts no verbs), work-request ids, and profile
staleness across a tenant's stream end.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.core.paths import Opcode
from repro.hw.cpu import relay_service_ns
from repro.sched.tenant import DEGRADED, OK
from repro.sim.events import URGENT
from repro.units import gbps
from repro.workloads import OpMix

#: Mode names (kept as plain strings for cheap comparison and repr).
GUARD = "guard"
ANALYTIC = "analytic"


#: The control tick, in ns: equal to the serving control interval
#: (:data:`repro.sched.serve.INTERVAL_NS`), so every scheduler tick
#: has an URGENT hybrid tick at the same instant.
TICK_NS = 20_000.0
#: DES guard window re-opened around every transient, in ns.
GUARD_NS = 40_000.0
#: Consecutive steady control ticks required before fast-forwarding.
STABLE_TICKS = 2
#: Minimum rolling-window completions per tenant (and minimum
#: service-profile samples per op) before its behaviour counts as
#: characterized.
MIN_SAMPLES = 4
#: The floor of the fault-transient guard envelope: how far ahead of a
#: tick a fault window must be to stay analytic.
LOOKAHEAD_NS = 20_000.0
#: Ring size of the per-(tenant, op, generation) service profile.
MAX_PROFILE = 512
#: Max relative p50/p99 movement between consecutive ticks for a
#: tick to count as steady (rules out still-filling queues).
DRIFT_TOL = 0.25
#: Multiplier applied per escalation when a splice-back still finds
#: analytic tails inside a blackout margin (envelope re-validation).
ENVELOPE_GROWTH = 1.5
#: Hard cap on the adaptive envelope, in ns.
MAX_ENVELOPE_NS = 300_000.0


class _AnalyticTenant:
    """One tenant's deterministic recurrence state while fast-forwarded.

    Queued and in-flight items carry an op *slot* instead of the
    :class:`Opcode`: ``(op, op code in the completion log, next service
    time)``, resolved once per flip, so the recurrence neither hashes an
    op nor looks up a profile per request.  A slot's service times
    replay its recorded profile cyclically; an op never observed under
    this lease generation (possible only for a zero-probability op
    raced onto the stream) replays the mean of everything recorded.
    Arrivals come from the tenant's stream once ``resume`` is set.
    """

    __slots__ = ("state", "queue", "worker_free", "pending", "sentinels",
                 "resume", "slots", "degraded_service")

    def __init__(self, state, backlog, sentinels, now, n_workers,
                 profiles, degraded_service, log):
        self.state = state                  # the runtime's _TenantState
        self.worker_free = [now] * n_workers
        heapq.heapify(self.worker_free)
        self.pending: List[tuple] = []      # (end, seq, slot, arrived, flags)
        self.sentinels = sentinels          # drained worker-exit Nones
        self.resume = None                  # set once arrivals hand over
        pooled = [s for profile in profiles.values() for s in profile]
        fallback = sum(pooled) / len(pooled) if pooled else 1_000.0
        #: One slot per op, in the order the mix's thresholds cut.
        self.slots = tuple(
            (op, log.op_code(op.value),
             (itertools.cycle(profiles[op]) if profiles.get(op)
              else itertools.repeat(fallback)).__next__)
            for op in OpMix.OPS)
        by_op = {slot[0]: slot for slot in self.slots}
        self.queue = deque((seq, by_op[op], arrived)
                           for seq, op, arrived in backlog)
        self.degraded_service = degraded_service


class HybridController:
    """Flips a serving run between DES and the analytic recurrence."""

    def __init__(self, runtime, tracker, faults=None):
        self.runtime = runtime
        self.tracker = tracker
        self.sim = runtime.sim
        self.tick_ns = TICK_NS
        self.mode = GUARD
        self.guard_until = GUARD_NS
        self._stable = 0
        self._lost_seen = 0
        self._last_stats: Dict[str, Tuple[float, float]] = {}
        self._tenants: Dict[str, _AnalyticTenant] = {}
        #: (tenant, op, lease generation) -> recent service durations.
        self._profiles: Dict[tuple, deque] = {}
        self._blackouts = self._fault_blackouts(faults)
        # Adaptive guard envelope: the blackout margin grows with the
        # observed service-time ceiling (so analytic in-flight tails
        # finish strictly before any fault transient), escalates when a
        # splice-back proves it too small, and relaxes again after a
        # clean re-validation.
        self._service_ceiling = 0.0
        self._escalations = 0
        # Engagement statistics (surfaced via ServeReport.hybrid_stats).
        self.flips = 0
        self.splices = 0
        self.escalations = 0
        self.analytic_completions = 0
        self.analytic_arrivals = 0

    # -- lifecycle ----------------------------------------------------------

    def install(self) -> "HybridController":
        """Hook into the runtime and start the control process."""
        self.runtime.hybrid = self
        self.sim.spawn(self._run())
        return self

    def _run(self):
        # URGENT ticks fire before the scheduler's NORMAL tick at equal
        # timestamps, so the tracker is advanced to "now" before any
        # decision reads it.
        while not self.runtime.done:
            yield self.sim.timeout(self.tick_ns, priority=URGENT)
            self._tick()

    def stats(self) -> dict:
        return {"flips": self.flips, "splices": self.splices,
                "escalations": self.escalations,
                "analytic_arrivals": self.analytic_arrivals,
                "analytic_completions": self.analytic_completions}

    # -- runtime hooks ------------------------------------------------------

    def record_service(self, tenant: str, op: Opcode,
                       service_ns: float) -> None:
        """DES completion feed: grow the empirical service profile."""
        t = self.runtime._tenants[tenant]
        key = (tenant, op, t.lease.generation if t.lease else 0)
        profile = self._profiles.get(key)
        if profile is None:
            profile = self._profiles[key] = deque(maxlen=MAX_PROFILE)
        profile.append(service_ns)
        if service_ns > self._service_ceiling:
            self._service_ceiling = service_ns

    def wants(self, t) -> bool:
        """Should this tenant's arrival process hand over its stream?"""
        return t.spec.name in self._tenants

    def handover(self, t):
        """Called *from* the arrival process at an arrival instant.

        Arms the tenant's recurrence at the arrival stream's cursor
        (whose instant is now) and parks the process until splice-back,
        returning with the clock at the cursor's instant.
        """
        at = self._tenants[t.spec.name]
        at.resume = self.sim.event()
        self._advance_tenant(at, self.sim.now)
        yield at.resume
        resume_at = t.arrivals.at
        if resume_at > self.sim.now:
            yield self.sim.timeout(resume_at - self.sim.now)

    def on_decision(self, decision) -> None:
        """Scheduler listener: any decision is a transient."""
        self._reguard(self.sim.now)

    # -- one control tick ---------------------------------------------------

    def _tick(self) -> None:
        now = self.sim.now
        if self.mode is ANALYTIC:
            self._advance_all(now)
            self._release_finished(now)
            margin = self.envelope_ns()
            if self._tenants and self._blackout_within(
                    now, now + self.tick_ns + margin, margin):
                self._reguard(now)
            elif not self._tenants:
                self.mode = GUARD
            return
        if self._steady(now):
            self._stable += 1
            if self._stable >= STABLE_TICKS:
                self._flip_analytic(now)
        else:
            self._stable = 0

    # -- steadiness ---------------------------------------------------------

    def envelope_ns(self) -> float:
        """The current fault-transient margin around blackout windows.

        This is the worst analytic in-flight tail the recurrence can
        create beyond a settle horizon: the observed service-time
        ceiling plus the widest token-bucket reservation slack
        (``workers`` requests reserved ahead at the capped rate),
        escalated geometrically while splice-backs keep proving it too
        small.  Never below ``LOOKAHEAD_NS``; capped at
        ``MAX_ENVELOPE_NS``.
        """
        slack = 0.0
        for spec in self.runtime.specs:
            t = self.runtime._tenants[spec.name]
            lease = t.lease
            if lease is not None and lease.rate_cap_gbps:
                slack = max(slack, spec.workers * max(1, spec.payload)
                            / gbps(lease.rate_cap_gbps))
        margin = ((self._service_ceiling + slack)
                  * ENVELOPE_GROWTH ** self._escalations)
        return min(MAX_ENVELOPE_NS, max(LOOKAHEAD_NS, margin))

    def _steady(self, now: float) -> bool:
        margin = self.envelope_ns()
        steady = (now >= self.guard_until
                  and not self._blackout_within(
                      now, now + self.tick_ns + margin, margin))
        xshard = getattr(self.runtime, "xshard", None)
        exported = frozenset(xshard.exports) if xshard is not None else ()
        lost = sum(self.tracker.lost.values())
        if lost != self._lost_seen:
            self._lost_seen = lost
            steady = False
        previous = self._last_stats
        current: Dict[str, Tuple[float, float]] = {}
        any_active = False
        for spec in self.runtime.specs:
            t = self.runtime._tenants[spec.name]
            if t.arrivals_done and t.finished >= t.admitted:
                continue                    # fully drained
            any_active = True
            if spec.name in exported:
                # Cross-shard senders stay at event level: the analytic
                # recurrence completes requests without the runtime's
                # finish hook, so fast-forwarding would drop their
                # fabric sends (bulk shipping / remote relays).
                steady = False
            if t.lease is None:
                steady = False
                continue
            stats = self.tracker.window(spec.name, now)
            current[spec.name] = (stats.p50_ns, stats.p99_ns)
            if stats.count < MIN_SAMPLES:
                steady = False
                continue
            if stats.rejected and t.bucket is None:
                # Rejections without a rate cap mean an overloaded
                # equilibrium whose admission counts hinge on exact
                # congestion timing — never fast-forward those.
                steady = False
                continue
            prev = previous.get(spec.name)
            if prev is None:
                steady = False
            elif (abs(stats.p50_ns - prev[0]) > DRIFT_TOL * max(prev[0], 1.0)
                  or abs(stats.p99_ns - prev[1])
                  > DRIFT_TOL * max(prev[1], 1.0)):
                steady = False              # latency still trending
            if t.lease.degraded:
                continue                    # deterministic host relay
            generation = t.lease.generation
            for op in spec.mix.support:
                profile = self._profiles.get((spec.name, op, generation))
                if profile is None or len(profile) < MIN_SAMPLES:
                    steady = False
        self._last_stats = current
        return steady and any_active

    def _fault_blackouts(self, faults) -> List[Tuple[float, Optional[float]]]:
        """(start, end) windows where analytic mode is forbidden."""
        windows: List[Tuple[float, Optional[float]]] = []
        if faults is None:
            return windows
        for fault in faults.faults:
            at = getattr(fault, "at", None)
            if at is not None:              # SocCrash: two point transients
                windows.append((at, at))
                if fault.recover_at is not None:
                    windows.append((fault.recover_at, fault.recover_at))
            else:
                windows.append((fault.start, fault.end))
        return windows

    def _blackout_within(self, start: float, end: float,
                         margin: float) -> bool:
        for w_start, w_end in self._blackouts:
            lo = w_start - margin
            hi = (float("inf") if w_end is None
                  else w_end + GUARD_NS)
            if start < hi and end > lo:
                return True
        return False

    # -- GUARD -> ANALYTIC --------------------------------------------------

    def _flip_analytic(self, now: float) -> None:
        runtime = self.runtime
        self._tenants = {}
        for spec in runtime.specs:
            t = runtime._tenants[spec.name]
            if t.arrivals_done and t.finished >= t.admitted:
                continue
            drained = t.queue.drain()
            sentinels = sum(1 for item in drained if item is None)
            backlog = [item for item in drained if item is not None]
            n_workers = spec.workers if not t.arrivals_done else sentinels
            degraded_service = (
                relay_service_ns(runtime.cluster.node("host").cpu,
                                 spec.payload)
                if t.lease.degraded else 0.0)
            generation = t.lease.generation
            profiles = {
                op: tuple(self._profiles.get((spec.name, op, generation), ()))
                for op in spec.mix.support}
            self._tenants[spec.name] = _AnalyticTenant(
                t, backlog, sentinels, now, max(1, n_workers),
                profiles, degraded_service, runtime.completions)
        if not self._tenants:
            return
        self.mode = ANALYTIC
        self.flips += 1
        if self._escalations:
            # Clean re-validation: the (possibly escalated) envelope
            # admitted a flip again — relax it one step.
            self._escalations -= 1

    # -- the recurrence -----------------------------------------------------

    def _advance_all(self, now: float) -> None:
        for at in self._tenants.values():
            self._advance_tenant(at, now)

    def _advance_tenant(self, at: _AnalyticTenant, horizon: float) -> None:
        """Synthesize arrivals and completions up to ``horizon``.

        One fused loop: before each synthesized arrival (and finally at
        ``horizon``) queued items are assigned to the workers free by
        then, each paying the shared token bucket and drawing its
        service time; the arrival then draws its op from the tenant's
        arrival stream, is admitted or rejected, and steps the stream's
        cursor one gap.  Completions due by ``horizon`` are written to the
        completion log's columns and fed to the tracker as one batch,
        in completion order; like the DES, a record's start is its
        arrival backdated by the tenant's ingress.
        """
        t = at.state
        spec = t.spec
        queue = at.queue
        free = at.worker_free
        pending = at.pending
        bucket = t.bucket
        payload = spec.payload
        degraded = t.lease.degraded
        flags = OK | DEGRADED if degraded else OK
        degraded_service = at.degraded_service
        heappush = heapq.heappush
        heappop = heapq.heappop
        popleft = queue.popleft
        arrivals = t.arrivals
        arriving = at.resume is not None
        if arriving:
            seq = arrivals.seq
            next_at = arrivals.at
            requests = spec.requests
            gap = arrivals.gap
            limit = spec.queue_limit
            random = arrivals.rng.random
            read_below, write_below = arrivals.mix.thresholds
            read_slot, write_slot, send_slot = at.slots
            admitted = 0
            first_seq = seq
        while True:
            if arriving and (seq >= requests or next_at > horizon):
                arriving = False
            upto = next_at if arriving else horizon
            while queue and free[0] <= upto:
                freed = heappop(free)
                item_seq, slot, arrived = popleft()
                start = freed if freed > arrived else arrived
                if degraded:
                    end = start + degraded_service
                else:
                    if bucket is not None:
                        delay = bucket.delay_for(payload, start)
                        if delay > 0:
                            start += delay
                    end = start + slot[2]()
                heappush(free, end)
                heappush(pending, (end, item_seq, slot, arrived, flags))
            if not arriving:
                break
            # OpMix.sample inline: the same draw, the same thresholds.
            roll = random()
            slot = (read_slot if roll < read_below
                    else write_slot if roll < write_below else send_slot)
            if len(queue) >= limit:
                self.tracker.observe_reject(spec.name, next_at)
                self.runtime.cluster.bump("sched.rejected")
            else:
                admitted += 1
                queue.append((seq, slot, next_at))
            seq += 1
            next_at += gap()
        if at.resume is not None:
            t.admitted += admitted
            self.analytic_arrivals += seq - first_seq
            arrivals.seq = seq
            arrivals.at = next_at
        ingress = spec.ingress_ns
        seqs, ops, starts, ends, row_flags = [], [], [], [], []
        while pending and pending[0][0] <= horizon:
            end, item_seq, slot, arrived, item_flags = heappop(pending)
            seqs.append(item_seq)
            ops.append(slot[1])
            starts.append(arrived - ingress)
            ends.append(end)
            row_flags.append(item_flags)
        if ends:
            self._emit(t, seqs, ops, starts, ends, row_flags)

    def _emit(self, t, seqs: List[int], ops: List[int], starts: List[float],
              ends: List[float], flags: List[int]) -> None:
        """Book synthesized completions: log, tracker and totals."""
        n = len(ends)
        t.finished += n
        t.degraded_served += flags.count(OK | DEGRADED)
        log = self.runtime.completions
        log.add_batch(t.code, log.path_code(t.lease.path), seqs, ops, starts,
                      ends, flags)
        self.tracker.observe_rows(t.spec.name, zip(starts, ends, flags),
                                  t.spec.payload)
        self.analytic_completions += n

    def _release_finished(self, now: float) -> None:
        """Hand fully-synthesized tenants back so their processes exit."""
        for name, at in list(self._tenants.items()):
            t = at.state
            if at.queue or at.pending:
                continue
            if at.resume is not None:
                arrivals = t.arrivals
                if arrivals.seq >= t.spec.requests:
                    # The stream ended inside the recurrence: its
                    # process exits now, not a gap later.
                    arrivals.at = now
                    at.resume.succeed()
                    del self._tenants[name]
            elif t.arrivals_done:
                for _ in range(at.sentinels):
                    t.queue.offer(None)
                del self._tenants[name]

    # -- ANALYTIC -> GUARD --------------------------------------------------

    def _reguard(self, now: float) -> None:
        """Open a guard window; splice live state back to event level."""
        self.guard_until = max(self.guard_until,
                               now + GUARD_NS)
        self._stable = 0
        if self.mode is not ANALYTIC:
            return
        self._splice_back(now)

    def _splice_back(self, now: float) -> None:
        # Envelope re-validation: if any analytic in-flight tail still
        # reaches into a blackout margin, the envelope was too small —
        # grow it and hold the guard window until the tails are
        # flushed, then require a fresh steadiness pass.
        worst_end = max((entry[0] for at in self._tenants.values()
                         for entry in at.pending), default=now)
        if worst_end > now and self._blackout_within(
                now, worst_end + self.tick_ns, 0.0):
            self._escalations += 1
            self.escalations += 1
            self.guard_until = max(self.guard_until, worst_end + GUARD_NS)
        for name, at in self._tenants.items():
            t = at.state
            # In-flight synthesized requests: park one worker per item
            # until its analytic completion instant, and complete the
            # record from a stub process at that instant.
            for entry in sorted(at.pending):
                end, seq, slot, arrived, flags = entry
                t.queue.offer(("hold", end))
                self.sim.spawn(
                    self._stub(t, end, seq, slot[1], arrived, flags))
            at.pending = []
            for seq, slot, arrived in at.queue:
                t.queue.offer((seq, slot[0], arrived))
            for _ in range(at.sentinels):
                t.queue.offer(None)
            if at.resume is not None:
                at.resume.succeed()
        self._tenants = {}
        self.mode = GUARD
        self.splices += 1

    def _stub(self, t, end: float, seq: int, op: int, arrived: float,
              flags: int):
        delay = end - self.sim.now
        if delay > 0:
            yield self.sim.timeout(delay)
        self._emit(t, [seq], [op], [arrived - t.spec.ingress_ns],
                   [self.sim.now], [flags])
