"""Sharded serving simulation: clusters on worker processes.

A serving run models one server and its clients; a datacenter-scale
experiment is many such machines.  Each machine is a *shard* with its
own event timeline; shards execute on separate worker processes and
merge afterwards.

The execution protocol is conservative time-windowed lockstep: the
parent advances every shard to the same simulated-time barrier
(``sync_window_ns``) before any shard may move past it.  Shards may
exchange traffic through the cross-shard fabric
(:mod:`repro.sim.xshard`): outboxes are collected at every barrier,
routed by a :class:`~repro.sim.xshard.ShardRouter`, and injected into
the destination shard at the start of the next round as URGENT arrivals
at their physical delivery instants.  The **one-window delivery
guarantee** — a message sent in window *W* is delivered in window
*W+1* — holds iff every inter-shard link latency is at least
``sync_window_ns``; :func:`run_sharded` validates exactly that.
One barrier loop drives every run through a shard handle: an
in-process :class:`ServeSession` at ``jobs=1`` (the bit-identity
reference, asserted by ``tests/sim/test_shard.py``) or a worker
process per shard otherwise.

Cluster-scale chaos layers on top (``docs/robustness.md``):

* a :class:`ShardPlan` may carry ``cluster_faults`` — machine crashes
  and fabric partition/loss/delay/reorder specs
  (:mod:`repro.faults.plan`), interpreted by a
  :class:`~repro.faults.cluster.ClusterInjector` whose every decision
  is a pure hash of the plan seed and message identity, so ``jobs=N``
  stays bit-identical to ``jobs=1`` under any plan and an *empty* plan
  is bit-identical to no plan at all;
* the loop is a **supervisor**: worker death and barrier stalls are
  detected (pipe EOF / poll timeout), the failed shard is respawned,
  and the :class:`~repro.sim.supervise.WindowLog`
  — the per-window inbound-message journal, which together with the
  shard spec fully determines worker state — is replayed into it,
  landing bit-identical to the worker that died.  The same log
  serializes to disk for cross-process checkpoint/resume;
* a :class:`~repro.sim.supervise.ConservationWatchdog` audits every
  window of every sharded run: per-tenant arrivals must equal
  completed + rejected + lost + in-flight, and every fabric message
  sent must be handed over, pending, or accounted dropped.

Merging uses :meth:`repro.sched.slo.SloTracker.merge` for the SLO
windows, concatenates decision logs in time order, and sums per-path
bandwidth and telemetry counters (including the ``xshard.*`` fabric
counters).  ``elapsed_ns`` is the latest instant any shard's event
queue ran dry, so a one-shard plan reports exactly what an unsharded
run of the same tenants does.
"""

from __future__ import annotations

import copy
import multiprocessing
import traceback
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.faults.cluster import ClusterInjector
from repro.faults.plan import FaultPlan
from repro.sched.serve import ServeReport, ServeSession
from repro.sched.slo import SloTracker
from repro.sched.tenant import TenantSpec
from repro.sim.supervise import (ConservationWatchdog, FabricWedgedError,
                                 IncidentLog, ShardWorkerError,
                                 SupervisorConfig, WindowLog,
                                 plan_fingerprint)
from repro.sim.xshard import (CrossTraffic, ShardChannel, ShardRouter,
                              ShardTopology)


@dataclass(frozen=True)
class ShardSpec:
    """One shard: a tenant set (and optional faults) on its own cluster.

    ``exports`` declares which of this shard's tenants send traffic to
    other machines (see :class:`~repro.sim.xshard.CrossTraffic`); the
    plan must then carry (or default) a topology whose link latencies
    admit the chosen sync window.
    """

    name: str
    tenants: Tuple[TenantSpec, ...]
    faults: Optional[FaultPlan] = None
    fault_seed: int = 0
    exports: Tuple[CrossTraffic, ...] = ()
    #: Which NIC this machine carries: ``"snic"`` (off-path SmartNIC,
    #: SoC present, all three comm paths) or ``"rnic"`` (plain RNIC —
    #: host-only, no SoC endpoints, no path-③ bulk offload).
    nic: str = "snic"

    def __post_init__(self):
        if not self.tenants:
            raise ValueError(f"shard {self.name!r} has no tenants")
        if self.nic not in ("snic", "rnic"):
            raise ValueError(f"shard {self.name!r}: unknown nic "
                             f"{self.nic!r}; expected 'snic' or 'rnic'")
        names = {t.name for t in self.tenants}
        seen = set()
        for export in self.exports:
            if export.tenant not in names:
                raise ValueError(
                    f"shard {self.name!r} exports unknown tenant "
                    f"{export.tenant!r}")
            if export.tenant in seen:
                raise ValueError(
                    f"shard {self.name!r} exports tenant "
                    f"{export.tenant!r} twice")
            seen.add(export.tenant)
            if export.dst_shard == self.name:
                raise ValueError(
                    f"shard {self.name!r} exports {export.tenant!r} "
                    "to itself")

    def export_map(self) -> Dict[str, CrossTraffic]:
        return {export.tenant: export for export in self.exports}


@dataclass(frozen=True)
class ShardPlan:
    """An ordered set of shards with globally unique tenant names.

    ``topology`` gives the inter-shard link latencies; when omitted and
    any shard exports traffic (or a cluster fault plan is present),
    :func:`run_sharded` defaults to a uniform
    :class:`~repro.sim.xshard.ShardTopology`.

    ``cluster_faults`` is the rack-scale chaos plan: machine crashes
    and fabric faults, all cluster-scope
    (:func:`repro.faults.plan.is_cluster_fault`).  An empty plan is
    bit-identical to no plan.
    """

    shards: Tuple[ShardSpec, ...]
    topology: Optional[ShardTopology] = None
    cluster_faults: Optional[FaultPlan] = None

    def __post_init__(self):
        if not self.shards:
            raise ValueError("plan needs at least one shard")
        shard_names = [shard.name for shard in self.shards]
        if len(set(shard_names)) != len(shard_names):
            raise ValueError(
                f"duplicate shard names: {shard_names} — tenants must "
                "not overlap machines")
        seen: Dict[str, str] = {}
        for shard in self.shards:
            for spec in shard.tenants:
                if spec.name in seen:
                    raise ValueError(
                        f"tenant {spec.name!r} appears in shards "
                        f"{seen[spec.name]!r} and {shard.name!r}")
                seen[spec.name] = shard.name
        for shard in self.shards:
            for export in shard.exports:
                if export.dst_shard not in shard_names:
                    raise ValueError(
                        f"shard {shard.name!r} exports "
                        f"{export.tenant!r} to unknown shard "
                        f"{export.dst_shard!r}")
        if self.topology is not None:
            missing = set(shard_names) - set(self.topology.shards)
            if missing:
                raise ValueError(
                    f"topology is missing shard(s) {sorted(missing)}")
        if self.cluster_faults is not None:
            # Validates fault scope and shard names; the instance used
            # at run time is built by run_sharded with the topology.
            ClusterInjector(self.cluster_faults, shard_names)

    @property
    def cross_traffic(self) -> bool:
        return any(shard.exports for shard in self.shards)

    @property
    def chaotic(self) -> bool:
        """Whether a non-empty cluster fault plan is armed."""
        return self.cluster_faults is not None and not self.cluster_faults.empty

    def resolved_topology(self) -> Optional[ShardTopology]:
        """The topology to run under (uniform default when exporting
        or when cluster faults need the fabric oracle everywhere)."""
        if self.topology is not None:
            return self.topology
        if self.cross_traffic or self.chaotic:
            return ShardTopology.uniform([s.name for s in self.shards])
        return None

    @classmethod
    def partition(cls, tenants: Sequence[TenantSpec],
                  n_shards: int) -> "ShardPlan":
        """Round-robin the tenants over ``n_shards`` shards."""
        if n_shards < 1:
            raise ValueError(f"need >= 1 shard, got {n_shards}")
        tenants = tuple(tenants)
        n_shards = min(n_shards, len(tenants))
        groups: List[List[TenantSpec]] = [[] for _ in range(n_shards)]
        for i, spec in enumerate(tenants):
            groups[i % n_shards].append(spec)
        return cls(shards=tuple(
            ShardSpec(name=f"shard{i}", tenants=tuple(group))
            for i, group in enumerate(groups)))


def _lowered(shard: ShardSpec, injector: ClusterInjector) -> ShardSpec:
    """Fold the shard's machine crashes into its own local fault plan.

    Inside the shard a machine death is an SoC crash (QPs error, the
    path policy fails host-ward) with the same recovery schedule; the
    host side is enforced by the runtime's dispatch-time liveness
    check and the fabric-level drops.
    """
    extra = injector.local_faults(shard.name)
    if not extra:
        return shard
    base = shard.faults if shard.faults is not None else FaultPlan()
    return replace(shard, faults=base.with_faults(*extra))


def _make_session(shard: ShardSpec, serve_kwargs: dict,
                  topology: Optional[ShardTopology],
                  injector: Optional[ClusterInjector] = None,
                  fault_timeout_ns: Optional[float] = None) -> ServeSession:
    if serve_kwargs.get("testbed") is not None:
        # SimCluster adopts the testbed's device objects and re-binds
        # them to its own simulator; in-process shards sharing one
        # Testbed would therefore fight over the same SmartNIC and the
        # run would never drain.  Every session gets its own copy
        # (worker processes get one implicitly, via pickling).
        serve_kwargs = dict(serve_kwargs)
        serve_kwargs["testbed"] = copy.deepcopy(serve_kwargs["testbed"])
    channel = None
    if topology is not None:
        channel = ShardChannel(shard.name, topology, shard.export_map(),
                               injector=injector,
                               fault_timeout_ns=fault_timeout_ns)
    return ServeSession(shard.tenants, faults=shard.faults,
                        fault_seed=shard.fault_seed, channel=channel,
                        nic=shard.nic, **serve_kwargs)


def _advance(session: ServeSession, barrier: float,
             inbound: Sequence) -> tuple:
    """One shard's half of a barrier round: hand over the routed
    inbound messages, run to the barrier, and return ``(done, idle,
    outbox, heartbeat)`` — the channel's idleness, the window's outbox,
    and the digest the conservation watchdog audits."""
    channel = session.channel
    if channel is not None and inbound:
        channel.deliver(inbound)
    done = session.advance(barrier)
    if channel is None:
        return done, True, [], session.heartbeat()
    return done, channel.idle, channel.collect(), session.heartbeat()


def _shard_worker(conn, shard: ShardSpec, serve_kwargs: dict,
                  topology: Optional[ShardTopology],
                  injector: Optional[ClusterInjector] = None,
                  fault_timeout_ns: Optional[float] = None) -> None:
    """Child-process loop: advance on command, report when asked.

    Each ``advance`` carries the barrier and this shard's routed
    inbound messages; the reply carries :func:`_advance`'s result.  A
    worker-side exception is shipped to the parent with the shard name
    and the full traceback, so a crashed shard is attributable without
    re-running.
    """
    try:
        session = _make_session(shard, serve_kwargs, topology,
                                injector, fault_timeout_ns)
        while True:
            message = conn.recv()
            if message[0] == "advance":
                conn.send(("ok",) + _advance(session, *message[1:]))
            elif message[0] == "report":
                conn.send(("report", session.finalize(), session.tracker))
                return
            else:  # pragma: no cover - protocol misuse
                raise ValueError(f"unknown command {message[0]!r}")
    except Exception:  # pragma: no cover - surfaced in parent
        try:
            conn.send(("error", shard.name, traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


def _reap_worker(proc, shard_name: str, join_timeout_s: float = 5.0,
                 kill_grace_s: float = 2.0) -> None:
    """Put one worker process down for good: join, then terminate,
    then kill, each on its own timeout, warning with the shard's name
    if even SIGKILL could not reap it."""
    proc.join(timeout=join_timeout_s)
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout=kill_grace_s)
    if proc.is_alive():
        proc.kill()
        proc.join(timeout=kill_grace_s)
    if proc.is_alive():  # pragma: no cover - kernel refused SIGKILL
        warnings.warn(
            f"shard worker {shard_name!r} survived terminate and kill "
            f"(pid {proc.pid}); abandoning it")


def _wedged(done: Dict[str, bool], idle: Dict[str, bool],
            router: ShardRouter, moved: bool) -> bool:
    """A round where nothing can ever make progress again.

    Every shard is drained, no messages moved or are pending, yet some
    channel still awaits an ack — the event that would deliver it can
    no longer be generated anywhere.
    """
    return (all(done.values()) and not moved and not router.in_flight
            and not all(idle.values()))


class _WorkerGone(Exception):
    """A worker died or stalled — respawnable, unlike a worker error."""


# -- shard handles ------------------------------------------------------------------
#
# The lockstep loop drives every shard through one interface:
# ``begin(barrier, inbound)`` starts a barrier round and ``finish()``
# returns its ``(done, idle, outbox, heartbeat)``; the split lets worker
# processes advance in parallel.  ``kill()`` is the chaos hook, after
# which ``finish()``/``report()`` raise :class:`_WorkerGone`;
# ``respawn(prefix)`` rebuilds the shard by replaying logged windows;
# ``report()`` returns the final ``(ServeReport, SloTracker)``.


class _LocalShard:
    """A shard advanced in this process: one :class:`ServeSession`."""

    def __init__(self, shard: ShardSpec, session_args: tuple):
        self.name = shard.name
        self._shard = shard
        self._session_args = session_args
        self._session: Optional[ServeSession] = _make_session(
            shard, *session_args)
        self._round: tuple = ()

    def _live(self) -> ServeSession:
        if self._session is None:
            raise _WorkerGone("session discarded by the chaos hook")
        return self._session

    def begin(self, barrier: float, inbound: list) -> None:
        self._round = (barrier, inbound)

    def finish(self) -> tuple:
        return _advance(self._live(), *self._round)

    def kill(self) -> None:
        self._session = None

    def respawn(self, prefix: Sequence[Tuple[float, dict]]) -> None:
        # A ServeSession is a pure function of its spec and the logged
        # inboxes, so a fresh one re-living them is bit-identical to
        # the one that was lost.
        self._session = _make_session(self._shard, *self._session_args)
        for barrier, inbound in prefix:
            _advance(self._session, barrier, inbound.get(self.name, []))

    def report(self) -> tuple:
        session = self._live()
        return session.finalize(), session.tracker

    def close(self) -> None:
        pass


class _WorkerShard:
    """A shard on a supervised worker process, driven over a pipe."""

    def __init__(self, shard: ShardSpec, session_args: tuple,
                 config: SupervisorConfig):
        self.name = shard.name
        self._args = (shard,) + session_args
        self._cfg = config
        self._spawn()

    def _spawn(self) -> None:
        ctx = multiprocessing.get_context()
        parent_conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(target=_shard_worker,
                                 args=(child_conn,) + self._args,
                                 daemon=True)
        self._proc.start()
        child_conn.close()
        self._conn = parent_conn

    def _send(self, message: tuple) -> None:
        try:
            self._conn.send(message)
        except (BrokenPipeError, OSError):
            pass                   # death surfaces on the recv side

    def _recv(self) -> tuple:
        timeout = self._cfg.exchange_timeout_s
        try:
            if not self._conn.poll(timeout):
                state = ("alive but stalled" if self._proc.is_alive()
                         else "dead")
                raise _WorkerGone(f"no barrier reply within {timeout:g}s "
                                  f"(process {state})")
            reply = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise _WorkerGone(f"pipe to worker closed: {exc!r}")
        if reply[0] == "error":
            # A worker-side exception is deterministic: a respawn would
            # replay straight into it.  Surface it with its traceback.
            raise ShardWorkerError(reply[1], reply[2])
        return reply[1:]

    def begin(self, barrier: float, inbound: list) -> None:
        self._send(("advance", barrier, inbound))

    def finish(self) -> tuple:
        return self._recv()

    def kill(self) -> None:
        if self._proc.is_alive():
            self._proc.kill()

    def respawn(self, prefix: Sequence[Tuple[float, dict]]) -> None:
        if self._proc.is_alive():
            self._proc.terminate()
        self.close()
        self._spawn()
        for barrier, inbound in prefix:
            self.begin(barrier, inbound.get(self.name, []))
            self.finish()

    def report(self) -> tuple:
        self._send(("report",))
        return self._recv()

    def close(self) -> None:
        try:
            self._conn.close()
        except OSError:
            pass
        _reap_worker(self._proc, self.name, self._cfg.join_timeout_s,
                     self._cfg.kill_grace_s)


def _controller_step(controller, router, injector, barrier: float,
                     window_no: int, heartbeats: Dict[str, dict],
                     done_map: Dict[str, bool]) -> None:
    """One cluster-controller tick at a closed barrier.

    The controller observes the window's heartbeats and may inject
    ``ctl`` directives onto the fabric; they ride the normal router →
    inbox path, so they are window-logged like any other message and a
    replayed shard re-receives them verbatim (the controller's own
    re-injections during replay are discarded with the regenerated
    outboxes).  Runs *before* the watchdog so the flow balance sees the
    injection and the router pending count move together.
    """
    if controller is None:
        return
    messages = controller.observe(window_no, barrier, heartbeats, done_map)
    if not messages:
        return
    if injector is not None:
        messages = injector.apply_outbox(messages)
    if messages:
        router.route(messages)


def _lockstep(shards: Sequence[ShardSpec], make_handle: Callable,
              sync_window_ns: float, topology: Optional[ShardTopology],
              injector: Optional[ClusterInjector], cfg: SupervisorConfig,
              log: WindowLog, incidents: IncidentLog, resumed: bool,
              controller=None):
    """The barrier loop, over one shard handle per shard.

    Every window: take (and chaos-shuffle) each shard's inbox, log it,
    advance every live shard to the barrier, route the outboxes, then
    audit — cluster controller first, conservation watchdog second.  A
    handle that dies mid-round is respawned from the window log and
    re-advanced, within the supervisor's respawn budget.
    """
    router = ShardRouter(topology) if topology is not None else None
    watchdog = ConservationWatchdog()
    names = [shard.name for shard in shards]
    done = dict.fromkeys(names, False)
    idle = dict.fromkeys(names, True)
    heartbeats: Dict[str, dict] = {}
    handles: List = []

    def respawn(handle, prefix, failure: _WorkerGone,
                window_no: int) -> None:
        incidents.record("respawn", handle.name, window_no, str(failure))
        if incidents.respawns > cfg.max_respawns:
            raise ShardWorkerError(
                handle.name, f"respawn budget ({cfg.max_respawns}) "
                             f"exhausted; last failure: {failure}")
        handle.respawn(prefix)

    def take_inbound(barrier: float) -> Dict[str, list]:
        inbound: Dict[str, list] = {}
        for name in names:
            inbox = router.take(name) if router is not None else []
            if injector is not None:
                inbox = injector.shuffle_inbox(name, barrier, inbox)
            inbound[name] = inbox
        return inbound

    def run_window(window_no: int, barrier: float, inbound: Dict[str, list],
                   prefix: Sequence[Tuple[float, dict]]) -> bool:
        """Advance, route and audit one window; True if any outbox
        carried messages.  Every live shard gets the new horizon before
        any reply is awaited, so workers advance in parallel."""
        live = [handle for handle in handles
                if router is not None or not done[handle.name]]
        for handle in live:
            handle.begin(barrier, inbound.get(handle.name, []))
        moved = False
        for handle in live:
            while True:
                try:
                    reply = handle.finish()
                    break
                except _WorkerGone as failure:
                    respawn(handle, prefix, failure, window_no)
                    handle.begin(barrier, inbound.get(handle.name, []))
            name = handle.name
            done[name], idle[name], outbox, heartbeats[name] = reply
            if outbox:
                moved = True
                if injector is not None:
                    outbox = injector.apply_outbox(outbox)
                if outbox:
                    router.route(outbox)
        _controller_step(controller, router, injector, barrier, window_no,
                         heartbeats, dict(done))
        watchdog.check(
            barrier, heartbeats,
            router.pending_count if router is not None else 0,
            injector.dropped if injector is not None else 0,
            injected=controller.ctl_sent if controller is not None else 0)
        return moved

    try:
        for shard in shards:
            handles.append(make_handle(shard))
        by_name = {handle.name: handle for handle in handles}
        barrier = 0.0
        window_no = 0
        if resumed:
            # Re-live the checkpointed prefix: logged inboxes are
            # delivered verbatim; routing each window's surviving
            # outboxes (and taking-and-discarding the regenerated
            # inboxes) rebuilds the router and injector state exactly.
            for k, (barrier, inbound) in enumerate(log.windows):
                window_no += 1
                run_window(window_no, barrier, inbound, log.windows[:k])
                if k + 1 < len(log.windows):
                    take_inbound(log.windows[k + 1][0])

        while not (all(done.values()) and all(idle.values())
                   and (router is None or not router.in_flight)):
            window_no += 1
            barrier += sync_window_ns
            inbound = take_inbound(barrier)
            log.record(barrier, inbound)
            if cfg.checkpoint_dir:
                log.save(cfg.checkpoint_dir)
            if cfg.kill_shard is not None and window_no == cfg.kill_window:
                incidents.record("kill-injected", cfg.kill_shard, window_no,
                                 "chaos hook")
                by_name[cfg.kill_shard].kill()
            moved = run_window(window_no, barrier, inbound, log.windows[:-1])
            moved = moved or any(inbound.values())
            if router is not None and _wedged(done, idle, router, moved):
                raise FabricWedgedError(done=done, idle=idle,
                                        pending=router.pending_by_shard())
        watchdog.assert_drained(barrier, heartbeats)
        results = []
        for handle in handles:
            while True:
                try:
                    results.append(handle.report())
                    break
                except _WorkerGone as failure:
                    respawn(handle, log.windows, failure, window_no)
        return ([report for report, _tracker in results],
                [tracker for _report, tracker in results])
    finally:
        for handle in handles:
            handle.close()


def _run_lockstep_inprocess(shards: Sequence[ShardSpec],
                            session_args: tuple, **lockstep):
    """The lockstep loop over in-process :class:`_LocalShard` handles
    — the ``jobs=1`` bit-identity reference."""
    return _lockstep(shards, lambda shard: _LocalShard(shard, session_args),
                     **lockstep)


def merge_reports(reports: Sequence[ServeReport],
                  trackers: Sequence[SloTracker],
                  names: Optional[Sequence[str]] = None) -> ServeReport:
    """Fold per-shard reports (and trackers) into one cluster view.

    ``names`` labels each report's machine in ``machine_path_gbps``
    (default ``shard0``, ``shard1``, ...).
    """
    if not reports:
        raise ValueError("nothing to merge")
    if names is None:
        names = [f"shard{i}" for i in range(len(reports))]
    merged_tracker = trackers[0]
    for tracker in trackers[1:]:
        merged_tracker.merge(tracker)
    tenants: Dict[str, object] = {}
    for report in reports:
        overlap = tenants.keys() & report.tenants.keys()
        if overlap:
            raise ValueError(f"tenant(s) {sorted(overlap)} in two shards")
        tenants.update(report.tenants)
    # The merged tracker is the ground truth for totals; per-shard
    # reports must agree with it exactly.
    for name, tenant in tenants.items():
        if merged_tracker.completed[name] != tenant.completed:
            raise AssertionError(
                f"merge drift for {name!r}: tracker says "
                f"{merged_tracker.completed[name]}, report {tenant.completed}")
    decisions = sorted((d for report in reports for d in report.decisions),
                       key=lambda d: d.time_ns)
    path_gbps: Dict[str, float] = {}
    counters: Dict[str, float] = {}
    for report in reports:
        for path, gbps in report.path_gbps.items():
            path_gbps[path] = path_gbps.get(path, 0.0) + gbps
        for key, value in report.counters.items():
            counters[key] = counters.get(key, 0.0) + value
    hybrid_stats = None
    if any(report.hybrid_stats for report in reports):
        hybrid_stats = {}
        for report in reports:
            for key, value in (report.hybrid_stats or {}).items():
                hybrid_stats[key] = hybrid_stats.get(key, 0) + value
    # Tenants are disjoint across shards, so the per-tenant window
    # archives and conservation terms merge by plain union.
    windows: Dict[str, tuple] = {}
    conservation: Dict[str, tuple] = {}
    for report in reports:
        windows.update(report.windows)
        conservation.update(report.conservation)
    return ServeReport(
        adaptive=all(report.adaptive for report in reports),
        elapsed_ns=max(report.elapsed_ns for report in reports),
        tenants=tenants,
        decisions=decisions,
        path_gbps=path_gbps,
        counters=counters,
        engine=reports[0].engine,
        hybrid_stats=hybrid_stats,
        windows=windows,
        conservation=conservation,
        machine_path_gbps=({name: dict(report.path_gbps)
                            for name, report in zip(names, reports)}
                           if len(reports) > 1 else {}),
    )


def run_sharded(plan: ShardPlan, jobs: Optional[int] = None,
                sync_window_ns: Optional[float] = None,
                supervisor: Optional[SupervisorConfig] = None,
                controller=None, **serve_kwargs) -> ServeReport:
    """Execute a shard plan and return the merged report.

    ``jobs`` — 1 = in-process (the bit-identity reference), >1 = one
    worker process per shard (``None``/0, the default, is the same).
    ``sync_window_ns`` defaults to 200 µs for independent shards, and
    to the topology's tightest
    *machine-to-machine* link latency when the plan carries cross-shard
    traffic — LB links are excluded because the LB only originates
    barrier-clocked control messages, never mid-window traffic
    (:meth:`~repro.sim.xshard.ShardTopology.min_fabric_latency_ns`);
    an explicit window wider than that latency is rejected — it would
    silently break the one-window delivery guarantee.

    ``controller`` is an optional cluster scheduler
    (:class:`repro.cluster.ClusterScheduler`): at every closed barrier
    it sees all shard heartbeats and may inject ``ctl`` directives onto
    the fabric.  Its decisions are a pure function of the heartbeat
    sequence, so ``jobs=N`` stays bit-identical to ``jobs=1`` with a
    live controller.  ``serve_kwargs`` are forwarded to every shard's
    :class:`~repro.sched.serve.ServeSession` (``engine="hybrid"``
    composes with sharding; exporting tenants stay at event level).
    ``trace=True`` is rejected: tracers do not serialize across
    process boundaries.

    ``supervisor`` configures worker supervision, checkpointing, chaos
    kills and incident reporting
    (:class:`~repro.sim.supervise.SupervisorConfig`); every run is
    supervised with the defaults when it is omitted.  The
    plan's ``cluster_faults`` arm the
    :class:`~repro.faults.cluster.ClusterInjector`; its ``cluster.*``
    counters join the merged report, and the conservation watchdog
    audits every window either way.
    """
    topology = plan.resolved_topology()
    injector = None
    if plan.chaotic:
        injector = ClusterInjector(plan.cluster_faults,
                                   [s.name for s in plan.shards], topology)
    if controller is not None and topology is None:
        raise ValueError(
            "a cluster controller needs a fabric: give the plan a "
            "topology (or exports/cluster faults that default one)")
    if sync_window_ns is None:
        sync_window_ns = (topology.min_fabric_latency_ns()
                          if topology is not None else 200_000.0)
    if sync_window_ns <= 0:
        raise ValueError(f"sync window must be positive: {sync_window_ns}")
    if (topology is not None
            and sync_window_ns > topology.min_fabric_latency_ns()):
        raise ValueError(
            f"sync_window_ns={sync_window_ns} exceeds the shortest "
            f"machine-to-machine link latency "
            f"({topology.min_fabric_latency_ns()} ns): the one-window "
            "delivery guarantee would not hold")
    if serve_kwargs.get("trace"):
        raise ValueError("trace=True is not supported for sharded runs")
    for key in ("faults", "fault_seed", "channel", "nic"):
        if key in serve_kwargs:
            raise ValueError(f"pass {key!r} per shard via ShardSpec")
    shards = plan.shards
    fault_timeout_ns = None
    if injector is not None:
        shards = tuple(_lowered(shard, injector) for shard in shards)
        fault_timeout_ns = injector.fault_timeout_ns()
    cfg = supervisor if supervisor is not None else SupervisorConfig()
    if (cfg.kill_shard is not None
            and cfg.kill_shard not in {s.name for s in shards}):
        raise ValueError(
            f"kill_shard {cfg.kill_shard!r} is not in the plan; "
            f"shards: {[s.name for s in shards]}")
    incidents = IncidentLog()
    # The controller's policy joins the run identity: resuming a
    # checkpoint under a different scheduler config must be refused.
    fp_kwargs = dict(serve_kwargs)
    if controller is not None:
        fp_kwargs["__controller__"] = controller.fingerprint()
    fingerprint = plan_fingerprint(plan, sync_window_ns, fp_kwargs)
    resumed = False
    if cfg.resume:
        log = WindowLog.load(cfg.checkpoint_dir,
                             expect_fingerprint=fingerprint)
        resumed = len(log) > 0
    else:
        log = WindowLog(fingerprint, sync_window_ns)
    session_args = (serve_kwargs, topology, injector, fault_timeout_ns)
    lockstep = dict(sync_window_ns=sync_window_ns, topology=topology,
                    injector=injector, cfg=cfg, log=log,
                    incidents=incidents, resumed=resumed,
                    controller=controller)
    if jobs is None or jobs == 0:
        jobs = len(shards)
    if jobs <= 1 or len(shards) == 1:
        reports, trackers = _run_lockstep_inprocess(shards, session_args,
                                                    **lockstep)
    else:
        reports, trackers = _lockstep(
            shards, lambda shard: _WorkerShard(shard, session_args, cfg),
            **lockstep)
    if cfg.checkpoint_dir:
        log.complete = True
        log.save(cfg.checkpoint_dir)
    if cfg.incident_report:
        incidents.save(cfg.incident_report)
    report = merge_reports(reports, trackers,
                           names=[shard.name for shard in shards])
    if injector is not None:
        report.counters.update(injector.counters())
    if controller is not None:
        report.counters.update(controller.counters())
    if incidents.incidents:
        report.counters["supervisor.incidents"] = len(incidents.incidents)
        report.counters["supervisor.respawns"] = incidents.respawns
    return report
