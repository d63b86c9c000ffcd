"""Sharded serving simulation: clusters on worker processes.

A serving run models one server and its clients; a datacenter-scale
experiment is many such machines.  Each machine is a *shard* with its
own event timeline; shards execute on separate worker processes and
merge afterwards.

Every sharded run has a fabric, as every machine in a rack sits behind
one: the plan's :class:`~repro.sim.xshard.ShardTopology`, or a uniform
one over its shards.  The execution protocol is conservative
time-windowed lockstep: the parent advances every shard to the same
simulated-time barrier before any shard may move past it.  The window
is the topology's tightest machine-to-machine link latency
(:meth:`~repro.sim.xshard.ShardTopology.min_fabric_latency_ns`), which
is what makes the **one-window delivery guarantee** hold: a message
sent in window *W* (:mod:`repro.sim.xshard`) is collected at its
barrier, routed by a :class:`~repro.sim.xshard.ShardRouter`, and
injected into the destination shard in window *W+1* as an URGENT
arrival at its physical delivery instant.
One barrier loop drives every run through a shard handle over one
shard lifecycle (:class:`_LocalShard`): the parent hosts it at
``jobs=1`` (the bit-identity reference, asserted by
``tests/sim/test_shard.py``), a worker process per shard otherwise.

Plans are compiled from scenario documents
(:func:`repro.cluster.compile_scenario`); tests and benchmark scripts
may build them directly.

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
  landing bit-identical to the worker that died.  The same log is
  journaled to disk, a line per window, for checkpoint/resume;
* a :class:`~repro.sim.supervise.ConservationWatchdog` audits every
  window of every sharded run: per-tenant arrivals must equal
  completed + rejected + lost + in-flight, and every fabric message
  sent must be handed over, pending, or accounted dropped.

Shards return their :class:`ServeReport` only.  Merging unions the
per-tenant fields (tenants are disjoint across shards), concatenates
decision logs in time order, and sums per-path bandwidth and telemetry
counters (including the ``xshard.*`` fabric counters).
``elapsed_ns`` is the latest instant any shard's event
queue ran dry, so a one-shard plan reports exactly what an unsharded
run of the same tenants does (its decisions name the machine).
"""

from __future__ import annotations

import copy
import multiprocessing
import traceback
import warnings
from dataclasses import dataclass, field, replace
from typing import (Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.faults.cluster import ClusterInjector
from repro.faults.plan import FaultPlan
from repro.net.topology import Testbed
from repro.sched.serve import ServeReport, ServeSession
from repro.sched.tenant import TenantSpec
from repro.sim import supervise
from repro.sim.supervise import (JOIN_TIMEOUT_S, KILL_GRACE_S,
                                 ConservationWatchdog, FabricWedgedError,
                                 IncidentLog, ShardWorkerError,
                                 SupervisorConfig, WindowLog,
                                 plan_fingerprint)
from repro.sim.xshard import ShardChannel, ShardRouter, ShardTopology


@dataclass(frozen=True)
class ShardSpec:
    """One shard: a tenant set (and optional faults) on its own cluster.

    ``exports`` maps each of this shard's exporting tenants to the
    machine its completions ship to (bulk shipping over the fabric).
    """

    name: str
    tenants: Tuple[TenantSpec, ...]
    faults: Optional[FaultPlan] = None
    fault_seed: int = 0
    exports: Mapping[str, str] = field(default_factory=dict)
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
        for tenant, dst in self.exports.items():
            if tenant not in names:
                raise ValueError(f"shard {self.name!r} exports unknown "
                                 f"tenant {tenant!r}")
            if dst == self.name:
                raise ValueError(f"shard {self.name!r} exports {tenant!r} "
                                 "to itself")


@dataclass(frozen=True)
class ShardPlan:
    """An ordered set of shards with globally unique tenant names.

    ``topology`` gives the inter-shard link latencies; when omitted,
    :func:`run_sharded` runs a uniform
    :class:`~repro.sim.xshard.ShardTopology` over the shards.

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
            for tenant, dst in shard.exports.items():
                if dst not in shard_names:
                    raise ValueError(
                        f"shard {shard.name!r} exports {tenant!r} to "
                        f"unknown shard {dst!r}")
        if self.topology is not None:
            missing = set(shard_names) - set(self.topology.shards)
            if missing:
                raise ValueError(
                    f"topology is missing shard(s) {sorted(missing)}")
        if self.cluster_faults is not None:
            # Validates fault scope and shard names; the instance used
            # at run time is built by run_sharded.
            ClusterInjector(self.cluster_faults, shard_names,
                            self.topology
                            or ShardTopology.uniform(shard_names))

    @property
    def chaotic(self) -> bool:
        """Whether a non-empty cluster fault plan is armed."""
        return self.cluster_faults is not None and not self.cluster_faults.empty


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


def _inboxes(prefix: Sequence[Tuple[float, dict]],
             name: str) -> List[Tuple[float, list]]:
    """One shard's ``(barrier, inbox)`` pairs out of logged windows."""
    return [(barrier, inbound.get(name, [])) for barrier, inbound in prefix]


def _reap_worker(proc, shard_name: str,
                 join_timeout_s: float = JOIN_TIMEOUT_S,
                 kill_grace_s: float = KILL_GRACE_S) -> None:
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
# ``report()`` returns the final :class:`ServeReport`.


class _LocalShard:
    """A shard advanced in this process: one :class:`ServeSession`,
    driven by the lockstep parent at ``jobs=1`` and by
    :func:`_shard_worker` inside a worker process otherwise."""

    def __init__(self, shard: ShardSpec, session_args: tuple):
        self.name = shard.name
        self._shard = shard
        self._session_args = session_args
        self._session: Optional[ServeSession] = self._build()
        self._round: tuple = ()

    def _build(self) -> ServeSession:
        options, topology, injector, fault_timeout_ns = self._session_args
        if options["testbed"] is not None:
            # SimCluster adopts the testbed's device objects and
            # re-binds them to its own simulator; in-process shards
            # sharing one Testbed would therefore fight over the same
            # SmartNIC and the run would never drain.  Every session
            # gets its own copy.
            options = dict(options,
                           testbed=copy.deepcopy(options["testbed"]))
        shard = self._shard
        channel = ShardChannel(shard.name, topology, shard.exports,
                               injector=injector,
                               fault_timeout_ns=fault_timeout_ns)
        return ServeSession(shard.tenants, faults=shard.faults,
                            fault_seed=shard.fault_seed, channel=channel,
                            nic=shard.nic, **options)

    def _live(self) -> ServeSession:
        if self._session is None:
            raise _WorkerGone("session discarded by the chaos hook")
        return self._session

    def advance(self, barrier: float, inbound: Sequence) -> tuple:
        """One barrier round: hand over the routed inbound messages,
        run to the barrier, and return ``(done, idle, outbox,
        heartbeat)`` — the channel's idleness, the window's outbox, and
        the digest the conservation watchdog audits."""
        session = self._live()
        channel = session.channel
        if inbound:
            channel.deliver(inbound)
        done = session.advance(barrier)
        return done, channel.idle, channel.collect(), session.heartbeat()

    def replay(self, inboxes: Sequence[Tuple[float, list]]) -> None:
        # A session is a pure function of its spec and its inboxes, so
        # re-living them lands bit-identical to the one that lived them.
        for barrier, inbox in inboxes:
            self.advance(barrier, inbox)

    def begin(self, barrier: float, inbound: list) -> None:
        self._round = (barrier, inbound)

    def finish(self) -> tuple:
        return self.advance(*self._round)

    def kill(self) -> None:
        self._session = None

    def respawn(self, prefix: Sequence[Tuple[float, dict]]) -> None:
        self._session = self._build()
        self.replay(_inboxes(prefix, self.name))

    def report(self) -> ServeReport:
        return self._live().finalize()

    def close(self) -> None:
        pass


def _shard_worker(conn, shard: ShardSpec, session_args: tuple) -> None:
    """Child-process loop: host a :class:`_LocalShard` and call its
    ``advance``/``replay``/``report`` on command, answering all but
    ``replay`` (a respawn's whole log prefix, in one message).  A
    worker-side exception is shipped to the parent with the shard name
    and the full traceback, so a crashed shard is attributable without
    re-running."""
    try:
        local = _LocalShard(shard, session_args)
        while True:
            command, *args = conn.recv()
            result = getattr(local, command)(*args)
            if command != "replay":
                conn.send(("ok", result))
            if command == "report":
                return
    except Exception:  # pragma: no cover - surfaced in parent
        try:
            conn.send(("error", shard.name, traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


class _WorkerShard:
    """A shard on a supervised worker process, driven over a pipe."""

    def __init__(self, shard: ShardSpec, session_args: tuple):
        self.name = shard.name
        self._args = (shard, session_args)
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

    def _recv(self):
        timeout = supervise.EXCHANGE_TIMEOUT_S
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
        return reply[1]

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
        self._send(("replay", _inboxes(prefix, self.name)))

    def report(self) -> ServeReport:
        self._send(("report",))
        return self._recv()

    def close(self) -> None:
        try:
            self._conn.close()
        except OSError:
            pass
        _reap_worker(self._proc, self.name)


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
              topology: ShardTopology,
              injector: Optional[ClusterInjector], cfg: SupervisorConfig,
              log: WindowLog, incidents: IncidentLog, resumed: bool,
              controller=None) -> List[ServeReport]:
    """The barrier loop, over one shard handle per shard.

    Every window: take (and chaos-shuffle) each shard's inbox, log it,
    advance every live shard to the barrier, route the outboxes, then
    audit — cluster controller first, conservation watchdog second.  A
    handle that dies mid-round is respawned from the window log and
    re-advanced, within :data:`~repro.sim.supervise.MAX_RESPAWNS`.
    Windows are the topology's tightest machine-to-machine latency.
    """
    sync_window_ns = topology.min_fabric_latency_ns()
    router = ShardRouter(topology)
    watchdog = ConservationWatchdog()
    names = [shard.name for shard in shards]
    done = dict.fromkeys(names, False)
    idle = dict.fromkeys(names, True)
    heartbeats: Dict[str, dict] = {}
    handles: List = []

    def respawn(handle, prefix, failure: _WorkerGone,
                window_no: int) -> None:
        incidents.record("respawn", handle.name, window_no, str(failure))
        if incidents.respawns > supervise.MAX_RESPAWNS:
            raise ShardWorkerError(
                handle.name, f"respawn budget ({supervise.MAX_RESPAWNS}) "
                             f"exhausted; last failure: {failure}")
        handle.respawn(prefix)

    def take_inbound(barrier: float) -> Dict[str, list]:
        inbound: Dict[str, list] = {}
        for name in names:
            inbox = router.take(name)
            if injector is not None:
                inbox = injector.shuffle_inbox(name, barrier, inbox)
            inbound[name] = inbox
        return inbound

    def run_window(window_no: int, barrier: float, inbound: Dict[str, list],
                   prefix: Sequence[Tuple[float, dict]]) -> bool:
        """Advance, route and audit one window; True if any outbox
        carried messages.  Every shard gets the new horizon before any
        reply is awaited, so workers advance in parallel; a drained
        shard still takes part, since a message may yet reach it."""
        for handle in handles:
            handle.begin(barrier, inbound.get(handle.name, []))
        moved = False
        for handle in handles:
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
            barrier, heartbeats, router.pending_count,
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
                   and not router.in_flight):
            window_no += 1
            barrier += sync_window_ns
            inbound = take_inbound(barrier)
            log.record(barrier, inbound)
            if cfg.kill_shard is not None and window_no == cfg.kill_window:
                incidents.record("kill-injected", cfg.kill_shard, window_no,
                                 "chaos hook")
                by_name[cfg.kill_shard].kill()
            moved = run_window(window_no, barrier, inbound, log.windows[:-1])
            moved = moved or any(inbound.values())
            if _wedged(done, idle, router, moved):
                raise FabricWedgedError(done=done, idle=idle,
                                        pending=router.pending_by_shard())
        watchdog.assert_drained(barrier, heartbeats)
        reports = []
        for handle in handles:
            while True:
                try:
                    reports.append(handle.report())
                    break
                except _WorkerGone as failure:
                    respawn(handle, log.windows, failure, window_no)
        return reports
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
                  names: Optional[Sequence[str]] = None) -> ServeReport:
    """Fold per-shard reports into one cluster view.

    ``names`` labels each report's machine in ``machine_path_gbps``
    (default ``shard0``, ``shard1``, ...).  Tenants must be disjoint
    across reports (a :class:`ShardPlan` guarantees it), so every
    per-tenant field merges by plain union.
    """
    if not reports:
        raise ValueError("nothing to merge")
    if names is None:
        names = [f"shard{i}" for i in range(len(reports))]
    tenants: Dict[str, object] = {}
    for report in reports:
        overlap = tenants.keys() & report.tenants.keys()
        if overlap:
            raise ValueError(f"tenant(s) {sorted(overlap)} in two shards")
        tenants.update(report.tenants)
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
                supervisor: Optional[SupervisorConfig] = None,
                controller=None, engine: str = "event",
                adaptive: bool = True,
                testbed: Optional[Testbed] = None) -> ServeReport:
    """Execute a shard plan and return the merged report.

    ``jobs`` — 1 = in-process (the bit-identity reference), >1 = one
    worker process per shard (``None``/0, the default, is the same).
    The fabric is ``plan.topology``, or a uniform
    :class:`~repro.sim.xshard.ShardTopology` over the plan's shards;
    the sync window is its tightest *machine-to-machine* link latency
    — LB links are excluded because the LB only originates
    barrier-clocked control messages, never mid-window traffic
    (:meth:`~repro.sim.xshard.ShardTopology.min_fabric_latency_ns`).

    ``controller`` is an optional cluster scheduler
    (:class:`repro.cluster.ClusterScheduler`): at every closed barrier
    it sees all shard heartbeats and may inject ``ctl`` directives onto
    the fabric.  Its decisions are a pure function of the heartbeat
    sequence, so ``jobs=N`` stays bit-identical to ``jobs=1`` with a
    live controller.  ``engine``, ``adaptive`` and ``testbed`` go to
    every shard's :class:`~repro.sched.serve.ServeSession`
    (``engine="hybrid"`` composes with sharding; exporting tenants stay
    at event level); faults, NIC and fabric are per shard, in the plan.

    ``supervisor`` configures checkpointing, chaos kills and incident
    reporting (:class:`~repro.sim.supervise.SupervisorConfig`); every
    run is supervised with the defaults when it is omitted.  The
    plan's ``cluster_faults`` arm the
    :class:`~repro.faults.cluster.ClusterInjector`; its ``cluster.*``
    counters join the merged report, and the conservation watchdog
    audits every window either way.
    """
    topology = plan.topology or ShardTopology.uniform(
        [s.name for s in plan.shards])
    sync_window_ns = topology.min_fabric_latency_ns()
    injector = None
    if plan.chaotic:
        injector = ClusterInjector(plan.cluster_faults,
                                   [s.name for s in plan.shards], topology)
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
    options = dict(engine=engine, adaptive=adaptive, testbed=testbed)
    # The controller's policy joins the run identity: resuming a
    # checkpoint under a different scheduler config must be refused.
    fingerprint = plan_fingerprint(plan, sync_window_ns, dict(
        options, controller=(controller.fingerprint()
                             if controller is not None else None)))
    resumed = False
    if cfg.resume:
        log = WindowLog.load(cfg.checkpoint_dir,
                             expect_fingerprint=fingerprint)
        resumed = len(log) > 0
    else:
        log = WindowLog(fingerprint, sync_window_ns)
    if cfg.checkpoint_dir:
        log.save(cfg.checkpoint_dir)
    session_args = (options, topology, injector, fault_timeout_ns)
    lockstep = dict(topology=topology,
                    injector=injector, cfg=cfg, log=log,
                    incidents=incidents, resumed=resumed,
                    controller=controller)
    if jobs is None or jobs == 0:
        jobs = len(shards)
    if jobs <= 1 or len(shards) == 1:
        reports = _run_lockstep_inprocess(shards, session_args, **lockstep)
    else:
        reports = _lockstep(
            shards, lambda shard: _WorkerShard(shard, session_args),
            **lockstep)
    if cfg.checkpoint_dir:
        log.finish()
    if cfg.incident_report:
        incidents.save(cfg.incident_report)
    report = merge_reports(reports, names=[shard.name for shard in shards])
    if injector is not None:
        report.counters.update(injector.counters())
    if controller is not None:
        report.counters.update(controller.counters())
    if incidents.incidents:
        report.counters["supervisor.incidents"] = len(incidents.incidents)
        report.counters["supervisor.respawns"] = incidents.respawns
    return report
