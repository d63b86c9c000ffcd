"""The serving runtime: tenant streams executed over live QPs.

:class:`ServingRuntime` is the data plane under the scheduler.  Each
tenant gets:

* an **open-loop arrival process** walking its
  :class:`~repro.sched.tenant.ArrivalStream` (one request per gap,
  regardless of completions — the serving-system regime where queueing
  delay is real);
* a **bounded admission queue** — arrivals that find it full are
  rejected immediately (backpressure instead of unbounded buildup);
* ``workers`` **worker processes**, each owning one RC QP pair to the
  tenant's current responder, draining the queue through actual
  simulated verbs (so latency includes NIC pipelines, PCIe, DMA and
  congestion from every other tenant);
* an optional **token bucket** capping its byte rate (the scheduler
  sets this to the ``P − N`` budget for path-③ tenants).

The control-plane surface is :class:`PathLease`: the scheduler mutates
a tenant's lease via :meth:`ServingRuntime.rebind`, which bumps the
lease generation and connects fresh QP pairs to the new responder
(see :meth:`repro.rdma.verbs.RdmaContext.rebind_rc`).  In-flight
requests that fail on the old path retry on the new one — migration
is lossless as long as the retry budget holds out.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.apps.logship import TokenBucket
from repro.core.paths import CommPath, Opcode
from repro.hw.cpu import relay_service_ns
from repro.net.cluster import SimCluster
from repro.rdma.mr import zero_bytes
from repro.rdma.qp import QPState, QueuePair
from repro.rdma.verbs import RdmaContext
from repro.sched.policy import Placement
from repro.sched.slo import SloTracker
from repro.sched.tenant import (
    ArrivalStream, CompletionLog, CompletionRecord, TenantSpec)
from repro.units import gbps
from repro.sim import Store
from repro.sim.events import URGENT, Timeout
from repro.sim.links import LOST

#: Per-attempt transport tuning for runtime QPs.  Default verbs retry
#: for ~0.5 ms before wedging; a serving runtime wants to fail fast and
#: let the (possibly migrated) lease drive the retry instead.
_RETRY_CNT = 2
_TIMEOUT_NS = 4_000.0


@dataclass
class PathLease:
    """A tenant's current binding, owned by the scheduler.

    ``generation`` increments on every re-bind; workers compare their
    QP's generation against the lease to notice migrations mid-retry.
    ``degraded`` marks the host-local relay mode (path-③ tenant with
    the SoC down) — requests are served by host CPU + DRAM instead of
    traversing QPs.
    """

    tenant: str
    path: CommPath
    responder: str                       # endpoint kind: "host" or "soc"
    generation: int = 0
    rate_cap_gbps: Optional[float] = None
    degraded: bool = False


class _TenantState:
    """Everything mutable the runtime tracks for one tenant."""

    def __init__(self, spec: TenantSpec, requester: str, sim, code: int):
        self.spec = spec
        self.code = code                 # tenant code in the completion log
        self.requester = requester
        self.queue = Store(sim)          # unbounded; bounded by check below
        self.lease: Optional[PathLease] = None
        # Per-worker (requester_qp, responder_qp); replaced on re-bind.
        self.qps: List[Tuple[QueuePair, QueuePair]] = []
        self.local_mrs = []
        self.remote_mrs = []
        self.bucket: Optional[TokenBucket] = None
        self.arrivals = ArrivalStream(spec)
        self.wr_ids = itertools.count(1)
        self.admitted = 0
        self.finished = 0
        self.arrivals_done = False
        self.degraded_served = 0


class ServingRuntime:
    """Executes tenant streams against the cluster under lease control."""

    MAX_ATTEMPTS = 6

    def __init__(self, cluster: SimCluster, ctx: RdmaContext,
                 tenants: Iterable[TenantSpec], tracker: SloTracker):
        self.cluster = cluster
        self.ctx = ctx
        self.sim = cluster.sim
        self.tracker = tracker
        self.specs: List[TenantSpec] = list(tenants)
        names = [t.name for t in self.specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        self.completions = CompletionLog()
        # Hybrid-engine hook (repro.sim.hybrid).  None on pure-DES runs:
        # every touch point guards with one ``is not None`` check, so
        # the default engine's event sequence is untouched.
        self.hybrid = None
        # Cross-shard fabric hook (repro.sim.xshard): the shard's bound
        # ShardChannel on sharded runs with cross-machine traffic.
        # Same dormancy contract as ``hybrid`` — None means every event
        # stays machine-local and the sequence is untouched.
        self.xshard = None
        # Cluster-scheduler directives: tenant -> remote machine whose
        # host currently serves it (set/cleared via ctl messages).  Same
        # dormancy contract — empty means all serving is local.
        self.remote_serve: Dict[str, str] = {}
        self._tenants: Dict[str, _TenantState] = {}
        clients = [n.name for n in cluster.clients()]
        client_i = 0
        for spec in self.specs:
            if spec.bulk:
                requester = "host"
            else:
                if client_i >= len(clients):
                    raise ValueError(
                        f"{len(clients)} client nodes for more client "
                        f"tenants; raise n_clients")
                requester = clients[client_i]
                client_i += 1
            self._tenants[spec.name] = _TenantState(
                spec, requester, self.sim,
                self.completions.tenant_code(spec.name))

    # -- control-plane surface (used by the scheduler) ----------------------

    def lease(self, tenant: str) -> PathLease:
        lease = self._tenants[tenant].lease
        if lease is None:
            raise ValueError(f"tenant {tenant!r} was never placed")
        return lease

    def place(self, spec: TenantSpec, placement: Placement) -> PathLease:
        """Bind a tenant for the first time and start its processes."""
        t = self._tenants[spec.name]
        if t.lease is not None:
            raise ValueError(f"tenant {spec.name!r} already placed")
        t.lease = PathLease(tenant=spec.name, path=placement.path,
                            responder=placement.responder,
                            rate_cap_gbps=placement.rate_cap_gbps,
                            degraded=placement.degraded)
        self._apply_rate_cap(t)
        if not placement.degraded:
            self._connect(t)
        self.sim.spawn(self._arrivals(t))
        for wid in range(spec.workers):
            self.sim.spawn(self._worker(t, wid))
        return t.lease

    def rebind(self, tenant: str, placement: Placement) -> PathLease:
        """Enact a migration/failover decision on a live tenant."""
        t = self._tenants[tenant]
        lease = self.lease(tenant)
        lease.generation += 1
        lease.path = placement.path
        lease.responder = placement.responder
        lease.degraded = placement.degraded
        lease.rate_cap_gbps = placement.rate_cap_gbps
        self._apply_rate_cap(t)
        if not placement.degraded:
            self._connect(t)
        return lease

    @property
    def soc_available(self) -> bool:
        """Is server 0's SoC alive (the schedulable SoC endpoint)?"""
        soc = self.cluster.nodes.get("soc")
        return soc is not None and not soc.crashed

    @property
    def done(self) -> bool:
        """All arrivals emitted and every admitted request resolved."""
        return all(t.arrivals_done and t.finished >= t.admitted
                   for t in self._tenants.values())

    def progress(self) -> Dict[str, Tuple[int, int]]:
        """Per-tenant ``(admitted, finished)`` — the runtime-side half
        of the conservation identity (the tracker holds the rest)."""
        return {name: (t.admitted, t.finished)
                for name, t in self._tenants.items()}

    def offered_mrps_by_path(self) -> Dict[CommPath, float]:
        """Open-loop offered load currently bound to each path (Mrps)."""
        offered: Dict[CommPath, float] = {}
        for t in self._tenants.values():
            if t.lease is None:
                continue
            path = t.lease.path
            offered[path] = offered.get(path, 0.0) + t.spec.rate_mrps
        return offered

    # -- wiring -------------------------------------------------------------

    def _responder_node(self, lease: PathLease) -> str:
        # Endpoint kinds map to server 0's node names directly.
        return lease.responder

    def _apply_rate_cap(self, t: _TenantState) -> None:
        cap = t.lease.rate_cap_gbps if t.lease else None
        if cap:
            burst = max(t.spec.payload, 4096)
            t.bucket = TokenBucket(gbps(cap), burst)
        else:
            t.bucket = None

    def _connect(self, t: _TenantState) -> None:
        """(Re)connect one QP pair per worker to the lease's responder."""
        responder = self._responder_node(t.lease)
        payload = max(1, t.spec.payload)
        t.qps = []
        t.local_mrs = []
        t.remote_mrs = []
        for _wid in range(t.spec.workers):
            qp_a, qp_b = self.ctx.connect_rc(t.requester, responder)
            qp_a.retry_cnt = _RETRY_CNT
            qp_a.timeout_ns = _TIMEOUT_NS
            t.qps.append((qp_a, qp_b))
            t.local_mrs.append(self.ctx.reg_mr(t.requester, payload))
            t.remote_mrs.append(self.ctx.reg_mr(responder, payload))

    # -- data plane ---------------------------------------------------------

    def _arrivals(self, t: _TenantState):
        """Open-loop arrival process over the tenant's arrival stream,
        with bounded-queue admission.

        The relative ``timeout(gap)`` stepping is load-bearing: arrival
        instants accumulate float rounding one hop at a time, and the
        pure-DES bit-identity contract pins that exact sequence.  The
        hybrid handover below is the only absolute-time splice, and it
        only runs under ``engine="hybrid"``.
        """
        spec = t.spec
        sim = self.sim
        arrivals = t.arrivals
        while arrivals.seq < spec.requests:
            gap = arrivals.gap()
            arrivals.at = sim.now + gap      # the instant the timeout fires
            yield sim.timeout(gap)
            hybrid = self.hybrid
            if hybrid is not None and hybrid.wants(t):
                # Hand the stream to the analytic recurrence.  It
                # synthesizes arrivals from the cursor onward and
                # resumes us at the instant of the first event-mode
                # arrival (or once the stream is exhausted).
                yield from hybrid.handover(t)
                if arrivals.seq >= spec.requests:
                    break
            op = arrivals.op()
            if len(t.queue) >= spec.queue_limit:
                self.tracker.observe_reject(spec.name, sim.now)
                self.cluster.bump("sched.rejected")
            else:
                t.admitted += 1
                t.queue.offer((arrivals.seq, op, sim.now))
            arrivals.seq += 1
        t.arrivals_done = True
        for _ in range(spec.workers):
            t.queue.offer(None)          # wake idle workers to exit

    def _worker(self, t: _TenantState, wid: int):
        queue = t.queue
        sim = self.sim
        while True:
            # A queued item is taken inline unless another event is due
            # now: the get event would be popped next, with nothing run
            # before it (Simulator.due_now).
            if queue and not sim.due_now():
                item = queue.take()
            else:
                item = yield queue.get()
            if item is None:
                return
            if item[0] == "hold":
                # Hybrid splice-back: this worker stands in for an
                # analytic in-flight request until its completion time.
                until = item[1]
                if until > self.sim.now:
                    yield self.sim.timeout(until - self.sim.now)
                continue
            seq, op, arrived_ns = item
            yield from self._serve_one(t, wid, seq, op, arrived_ns)

    def _serve_one(self, t: _TenantState, wid: int, seq: int, op: Opcode,
                   arrived_ns: float):
        """One admitted request, retried across lease generations."""
        spec = t.spec
        payload = max(1, spec.payload)
        attempts = 0
        while True:
            lease = t.lease
            attempts += 1
            xshard = self.xshard
            if xshard is not None and xshard.machine_down():
                # The whole machine (host *and* SoC) is dead: nothing
                # local can serve or relay this request.  It is lost at
                # the instant it would have dispatched — never hung.
                self.cluster.bump("sched.lost")
                self.cluster.bump("sched.machine_lost")
                self._finish(t, seq, op, arrived_ns, ok=False,
                             attempts=attempts, degraded=lease.degraded)
                return
            if lease.degraded:
                # Host-local relay: CPU service + DRAM-speed copy.
                host = self.cluster.node("host")
                yield self.sim.timeout(relay_service_ns(host.cpu, payload))
                t.degraded_served += 1
                self._finish(t, seq, op, arrived_ns, ok=True,
                             attempts=attempts, degraded=True)
                return
            remote = self.remote_serve.get(spec.name)
            if remote is not None and xshard is not None:
                if (remote == xshard.shard
                        or (xshard.injector is not None
                            and xshard.injector.machine_down(
                                remote, self.sim.now))):
                    remote = None    # stale directive; serve locally
            else:
                remote = None
            if remote is not None:
                # Cluster-scheduler offload: the request is relayed to
                # another machine's host over the fabric, relieving
                # local path contention at the cost of two link
                # traversals plus the remote relay service.
                outcome = yield xshard.relay_request(
                    spec.name, remote, payload)
                if outcome is LOST:
                    self.cluster.bump("sched.lost")
                    self._finish(t, seq, op, arrived_ns, ok=False,
                                 attempts=attempts)
                    return
                self.cluster.bump("sched.remote_served")
                self._finish(t, seq, op, arrived_ns, ok=True,
                             attempts=attempts)
                return
            if t.bucket is not None:
                delay = t.bucket.delay_for(spec.payload, self.sim.now)
                if delay > 0:
                    yield self.sim.timeout(delay)
            qp, peer = t.qps[wid]
            if qp.state is QPState.ERROR:
                qp.recover()
            sim = self.sim
            posted_ns = sim.now
            wr = next(t.wr_ids)
            if op is Opcode.READ:
                verb = qp.read(wr, t.local_mrs[wid], t.remote_mrs[wid],
                               payload)
            elif op is Opcode.WRITE:
                verb = qp.write(wr, t.local_mrs[wid], t.remote_mrs[wid],
                                payload)
            else:
                peer.post_recv(wr, t.remote_mrs[wid], 0, payload)
                verb = qp.send(wr, zero_bytes(payload))
            # The verb runs inside this worker.  As a process of its own
            # it had two hops, its URGENT bootstrap and its completion;
            # each is taken only when another event is due now
            # (Simulator.due_now; docs/performance.md, "Verb datapath").
            if sim.due_now():
                yield Timeout(sim, 0, priority=URGENT)
            yield from verb
            if sim.due_now():
                yield Timeout(sim, 0)
            ok = any(c.wr_id == wr and c.ok for c in qp.send_cq.poll())
            if ok:
                hybrid = self.hybrid
                if hybrid is not None:
                    # Feed the empirical service-time profile: post →
                    # completion, net of queue wait and bucket pacing.
                    hybrid.record_service(t.spec.name, op,
                                          self.sim.now - posted_ns)
                self._finish(t, seq, op, arrived_ns, ok=True,
                             attempts=attempts)
                return
            if attempts >= self.MAX_ATTEMPTS:
                self.cluster.bump("sched.lost")
                self._finish(t, seq, op, arrived_ns, ok=False,
                             attempts=attempts)
                return
            # else: retry — possibly on a migrated lease (fresh QPs).

    def _finish(self, t: _TenantState, seq: int, op: Opcode,
                arrived_ns: float, ok: bool, attempts: int,
                degraded: bool = False) -> None:
        # Ingress (the LB round trip, for rack scenarios) is a fixed
        # overhead outside the machine: fold it in by backdating the
        # start so latency_ns reports the user-observed value while the
        # in-machine event sequence stays byte-identical to ingress=0.
        record = CompletionRecord(
            t.spec.name, seq, op.value, t.lease.path,
            arrived_ns - t.spec.ingress_ns, self.sim.now, ok, attempts,
            degraded)
        t.finished += 1
        self.completions.append(record)
        self.tracker.observe(record, t.spec.payload)
        xshard = self.xshard
        if xshard is not None and ok and not degraded:
            dst = xshard.exports.get(t.spec.name)
            if dst is not None:
                # Asynchronous offload shipping: the completed payload
                # crosses the fabric to the destination shard's host.
                xshard.ship_bulk(t.spec.name, dst, t.spec.payload)
