"""Cross-shard traffic fabric: messages between lockstep shards.

:mod:`repro.sim.shard` runs one serving machine per shard in
conservative time-windowed lockstep.  This module is the layer that
lets those machines *talk*: a tenant, relay or shipper on one shard
sends a :class:`ShardMessage` to an endpoint on another shard, and the
lockstep protocol guarantees **one-window delivery** — a message sent
during window *W* is injected into the receiving shard's event queue
during window *W+1*, at its physical arrival instant
(``send_ns + link latency``) with URGENT priority.

The guarantee holds because the barrier protocol only exchanges
messages at window boundaries, and :func:`repro.sim.shard.run_sharded`
makes the window the tightest machine-to-machine link latency
(:meth:`ShardTopology.min_fabric_latency_ns`): no message can need to
arrive inside the window it was sent in, so advancing all shards one
window at a time never delivers late.  ``jobs=1`` runs the identical exchange
in-process and is the bit-identity reference for the multiprocess path.

Pieces:

* :class:`ShardTopology` — inter-shard link latencies (uniform unless
  overridden per link).
* :class:`ShardChannel` — the per-shard endpoint: apps send through
  it, the lockstep driver drains its outbox at each barrier and hands
  it inbound messages to inject.  Its ``exports`` map a tenant to the
  machine whose host each of its completions ships to (bulk shipping).
* :class:`ShardRouter` — the parent-side exchange: routes collected
  outboxes to destination inboxes in a deterministic order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.hw.cpu import relay_service_ns
from repro.sim.events import URGENT
from repro.sim.links import LOST
from repro.sim.resources import Resource

#: Default inter-shard one-way latency: two machines in different racks
#: behind the load-balancer tier — several switch traversals plus cable
#: runs, not the single-switch 310 ns of the paper's testbed fabric.
DEFAULT_LINK_LATENCY_NS = 25_000.0

#: Host-relay service parallelism for *inbound* cross-shard work: how
#: many remote relay/bulk transfers a host absorbs concurrently.
_RELAY_UNITS = 4

@dataclass(frozen=True)
class ShardTopology:
    """Inter-shard link latencies, ns.  Uniform unless overridden."""

    shards: Tuple[str, ...]
    link_latency_ns: float = DEFAULT_LINK_LATENCY_NS
    #: Optional per-link override: {(src, dst): latency_ns}.
    overrides: Mapping[Tuple[str, str], float] = field(default_factory=dict)
    #: Load-balancer node, if any.  The LB is a topology node like any
    #: other (so links to/from it have latencies and ctl messages can
    #: be addressed from it) but it hosts no serving machine: no shard
    #: worker runs for it and no cross-shard *traffic* transits it, so
    #: its links are excluded from the sync-window derivation —
    #: see :meth:`min_fabric_latency_ns`.
    lb: Optional[str] = None

    def __post_init__(self):
        if len(set(self.shards)) != len(self.shards):
            raise ValueError(f"duplicate shard names: {list(self.shards)}")
        if self.link_latency_ns <= 0:
            raise ValueError(
                f"link latency must be positive: {self.link_latency_ns}")
        if self.lb is not None and self.lb not in self.shards:
            raise ValueError(f"lb {self.lb!r} not in topology "
                             f"{list(self.shards)}")
        for (src, dst), latency in self.overrides.items():
            for name in (src, dst):
                if name not in self.shards:
                    raise ValueError(f"override names unknown shard {name!r}")
            if latency <= 0:
                raise ValueError(
                    f"override {src!r}->{dst!r} must be positive: {latency}")

    @classmethod
    def uniform(cls, shards: Sequence[str],
                link_latency_ns: float = DEFAULT_LINK_LATENCY_NS,
                ) -> "ShardTopology":
        return cls(shards=tuple(shards), link_latency_ns=link_latency_ns)

    def latency_ns(self, src: str, dst: str) -> float:
        for name in (src, dst):
            if name not in self.shards:
                raise KeyError(f"unknown shard {name!r}")
        return self.overrides.get((src, dst), self.link_latency_ns)

    def min_latency_ns(self) -> float:
        """The tightest link anywhere in the topology, LB hops included."""
        latencies = [self.latency_ns(s, d) for s in self.shards
                     for d in self.shards if s != d]
        return min(latencies) if latencies else self.link_latency_ns

    @property
    def fabric_shards(self) -> Tuple[str, ...]:
        """The shards that run serving machines (everything but the LB)."""
        return tuple(s for s in self.shards if s != self.lb)

    def min_fabric_latency_ns(self) -> float:
        """The tightest *machine-to-machine* link — the lockstep sync
        window.

        One-window delivery requires every link that carries messages
        sent *mid-window* to be at least one window long.  Machine
        links carry such traffic (relays, bulk shipping, acks fire at
        arbitrary sim instants), so they bound the window.  LB links do
        not: the only LB-originated messages are control directives the
        lockstep parent injects *at barriers* (sender clock == barrier),
        so any positive LB latency lands them strictly inside the next
        window.  Deriving the window from :meth:`min_latency_ns` would
        let a fast LB hop needlessly narrow it — more barriers, same
        results.
        """
        fabric = self.fabric_shards
        latencies = [self.latency_ns(s, d) for s in fabric
                     for d in fabric if s != d]
        return min(latencies) if latencies else self.link_latency_ns


@dataclass(frozen=True)
class ShardMessage:
    """One cross-shard datagram (picklable plain data).

    ``deliver_ns`` is stamped at send time: ``send_ns`` plus the link
    latency.  ``msg_id`` is unique per (shard, channel) and carries the
    correlation for acks (``reply_to``).
    """

    src: str
    dst: str
    kind: str                    # "bulk" | "relay" | "ack" | "ctl"
    tenant: str
    nbytes: int
    send_ns: float
    deliver_ns: float
    msg_id: int
    reply_to: Optional[int] = None
    origin_send_ns: float = 0.0  # acks: the original request's send_ns
    #: Control payload for ``kind="ctl"`` directives from the cluster
    #: scheduler ("serve-on:<machine>" / "serve-local"); empty for data
    #: messages.  Defaulted so pre-existing window checkpoints (which
    #: round-trip messages through ``dataclasses.asdict``) still load.
    note: str = ""

    def sort_key(self) -> tuple:
        return (self.deliver_ns, self.src, self.msg_id)


class ShardChannel:
    """One shard's endpoint on the cross-shard fabric.

    Installed into a :class:`~repro.sched.serve.ServeSession`; the
    lockstep driver calls :meth:`collect` at each barrier and
    :meth:`deliver` with the messages routed to this shard.  All
    counter surfaces go through ``cluster.bump`` so they land in the
    merged report's telemetry like any other shard counter.
    """

    def __init__(self, shard: str, topology: ShardTopology,
                 exports: Mapping[str, str] = (),
                 injector=None, fault_timeout_ns: Optional[float] = None):
        if shard not in topology.shards:
            raise ValueError(f"shard {shard!r} not in topology "
                             f"{list(topology.shards)}")
        if fault_timeout_ns is not None and fault_timeout_ns <= 0:
            raise ValueError(
                f"fault timeout must be positive: {fault_timeout_ns}")
        self.shard = shard
        self.topology = topology
        #: Cluster-fault liveness oracle (a
        #: :class:`repro.faults.cluster.ClusterInjector`), or ``None``
        #: when the run has no cluster fault plan.
        self.injector = injector
        #: Ack timeout, ns.  ``None`` (the default) means the fabric is
        #: trusted: senders wait forever, exactly the pre-fault
        #: behavior.  Armed only when a cluster fault plan can actually
        #: drop messages.
        self.fault_timeout_ns = fault_timeout_ns
        #: Bulk exports: tenant -> the machine its completions ship to.
        self.exports: Dict[str, str] = dict(exports or {})
        self._outbox: List[ShardMessage] = []
        self._ids = itertools.count(1)
        self._waiters: Dict[int, object] = {}   # msg_id -> sim Event
        self._session = None                    # bound by ServeSession
        self._relay: Optional[Resource] = None
        # Flow-conservation counts for the supervisor's watchdog:
        # every message sent must end up handed over by the router,
        # still pending in it, or dropped by the cluster injector.
        self.sent_count = 0
        self.handed_count = 0
        self.fired_count = 0
        self.timeout_count = 0
        # Load surfaces for the cluster scheduler's heartbeat digest:
        # inbound work served here, acks seen, and accumulated RTT.
        self.served_count = 0
        self.acked_count = 0
        self.rtt_ns_total = 0.0

    # -- session binding ----------------------------------------------------

    def bind(self, session) -> "ShardChannel":
        """Attach to a live session (one channel per session)."""
        if self._session is not None:
            raise ValueError("channel already bound to a session")
        self._session = session
        self._relay = Resource(session.cluster.sim, capacity=_RELAY_UNITS)
        return self

    @property
    def sim(self):
        return self._session.cluster.sim

    @property
    def cluster(self):
        return self._session.cluster

    @property
    def idle(self) -> bool:
        """No queued outbound messages and no requests awaiting acks."""
        return not self._outbox and not self._waiters

    # -- sending ------------------------------------------------------------

    def _post(self, dst: str, kind: str, tenant: str, nbytes: int,
              reply_to: Optional[int] = None,
              origin_send_ns: float = 0.0) -> ShardMessage:
        now = self.sim.now
        message = ShardMessage(
            src=self.shard, dst=dst, kind=kind, tenant=tenant,
            nbytes=nbytes, send_ns=now,
            deliver_ns=now + self.topology.latency_ns(self.shard, dst),
            msg_id=next(self._ids), reply_to=reply_to,
            origin_send_ns=origin_send_ns)
        self._outbox.append(message)
        self.sent_count += 1
        self.cluster.bump("xshard.sent")
        self.cluster.bump("xshard.sent_bytes", nbytes)
        return message

    def ship_bulk(self, tenant: str, dst: str, nbytes: int) -> None:
        """Asynchronous completion shipping (kind="bulk")."""
        message = self._post(dst, "bulk", tenant, nbytes)
        self._waiters[message.msg_id] = None     # ack expected, nobody waits
        self._arm_timeout(message.msg_id)

    def relay_request(self, tenant: str, dst: str, nbytes: int):
        """Remote host-ward relay: returns the event the worker waits
        on; it succeeds at the instant the remote ack is delivered —
        or, on a faulted fabric, with :data:`~repro.sim.links.LOST`
        when the ack timeout expires."""
        message = self._post(dst, "relay", tenant, nbytes)
        event = self.sim.event()
        self._waiters[message.msg_id] = event
        self._arm_timeout(message.msg_id)
        self.cluster.bump("xshard.relay_requests")
        return event

    def _arm_timeout(self, msg_id: int) -> None:
        if self.fault_timeout_ns is not None:
            self.sim.spawn(self._expire(msg_id))

    def _expire(self, msg_id: int):
        yield self.sim.timeout(self.fault_timeout_ns)
        if msg_id not in self._waiters:
            return                               # acked in time
        waiter = self._waiters.pop(msg_id)
        self.timeout_count += 1
        self.cluster.bump("xshard.timeouts")
        if waiter is not None:
            waiter.succeed(LOST)

    # -- cluster-fault oracle ------------------------------------------------

    def machine_down(self, now: Optional[float] = None) -> bool:
        """Whether *this* shard's machine is dead right now (always
        ``False`` without a cluster fault plan)."""
        if self.injector is None:
            return False
        return self.injector.machine_down(
            self.shard, self.sim.now if now is None else now)

    # -- barrier protocol ---------------------------------------------------

    def collect(self) -> List[ShardMessage]:
        """Drain the outbox (called by the lockstep driver at barriers)."""
        out, self._outbox = self._outbox, []
        return out

    def deliver(self, messages: Sequence[ShardMessage]) -> None:
        """Inject inbound messages (already routed to this shard).

        Messages must be pre-sorted by :meth:`ShardMessage.sort_key`;
        each is scheduled as an URGENT arrival at its ``deliver_ns``
        (always in the upcoming window — the one-window guarantee).
        """
        sim = self.sim
        for message in messages:
            if message.dst != self.shard:       # pragma: no cover - misroute
                raise ValueError(f"message for {message.dst!r} delivered "
                                 f"to {self.shard!r}")
            self.handed_count += 1
            sim.spawn(self._receive(message))

    def flow_counts(self) -> Tuple[int, int, int, int]:
        """``(sent, handed, fired, timeouts)`` for the watchdog."""
        return (self.sent_count, self.handed_count, self.fired_count,
                self.timeout_count)

    def _receive(self, message: ShardMessage):
        delay = message.deliver_ns - self.sim.now
        if delay < 0:                           # pragma: no cover - guarded
            raise ValueError(
                f"late delivery: {message} at {self.sim.now} "
                "(sync window wider than the link latency?)")
        yield self.sim.timeout(delay, priority=URGENT)
        self.fired_count += 1
        self.cluster.bump("xshard.delivered")
        if message.kind == "ack":
            self._on_ack(message)
            return
        if message.kind == "ctl":
            # Cluster-scheduler directive: applied instantly (no relay
            # service, no ack — the scheduler observes effects through
            # the next heartbeat, not a reply).
            self.cluster.bump("xshard.ctl")
            self._session.apply_directive(message)
            return
        # Inbound work: occupy the host relay for a CPU dispatch plus a
        # DRAM-speed copy, then ack back to the sender.
        yield self._relay.request()
        try:
            host = self.cluster.node("host")
            yield self.sim.timeout(relay_service_ns(host.cpu,
                                                    message.nbytes))
        finally:
            self._relay.release()
        self.served_count += 1
        self.cluster.bump("xshard.served")
        self.cluster.bump("xshard.served_bytes", message.nbytes)
        self._post(message.src, "ack", message.tenant, 0,
                   reply_to=message.msg_id, origin_send_ns=message.send_ns)

    def _on_ack(self, message: ShardMessage) -> None:
        waiter = self._waiters.pop(message.reply_to, None)
        self.acked_count += 1
        self.rtt_ns_total += self.sim.now - message.origin_send_ns
        self.cluster.bump("xshard.acked")
        self.cluster.bump("xshard.rtt_ns_total",
                          self.sim.now - message.origin_send_ns)
        if waiter is not None:
            waiter.succeed(self.sim.now)


class ShardRouter:
    """Parent-side exchange: collected outboxes -> per-shard inboxes.

    Deterministic regardless of collection order: each inbox is sorted
    by ``(deliver_ns, src, msg_id)`` so in-process and multiprocess
    lockstep inject identical event sequences.
    """

    def __init__(self, topology: ShardTopology):
        self.topology = topology
        self._pending: Dict[str, List[ShardMessage]] = {}
        self.routed = 0

    def route(self, messages: Sequence[ShardMessage]) -> None:
        for message in messages:
            if message.dst not in self.topology.shards:
                raise KeyError(f"message to unknown shard {message.dst!r}")
            self._pending.setdefault(message.dst, []).append(message)
            self.routed += 1

    def take(self, shard: str) -> List[ShardMessage]:
        """The sorted inbox for ``shard``, consumed."""
        inbox = self._pending.pop(shard, [])
        inbox.sort(key=ShardMessage.sort_key)
        return inbox

    @property
    def in_flight(self) -> bool:
        return bool(self._pending)

    @property
    def pending_count(self) -> int:
        """Messages routed but not yet taken, total."""
        return sum(len(msgs) for msgs in self._pending.values())

    def pending_by_shard(self) -> Dict[str, int]:
        """Per-destination pending counts (for wedge diagnostics)."""
        return {shard: len(msgs) for shard, msgs in self._pending.items()}
