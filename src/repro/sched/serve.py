"""``run_serve``: one call from tenant specs to a serving report.

This is the engine behind ``benchmarks/bench_scheduler.py`` and the
crosscheck and validation replicates; ``repro serve`` runs the same
session in lockstep.  It wires the whole stack — cluster, RDMA
context, SLO tracker, runtime, policy, scheduler, optional fault plan
and tracer — runs the simulation to completion, and distils the raw
completion feed into per-tenant and per-path aggregates.

Two modes:

* ``adaptive=True`` (default) — the :class:`PathScheduler` places via
  the advisor, applies the ``P − N`` rate cap, migrates on SLO
  violations and fails over on SoC crashes.
* ``adaptive=False`` — a *static* baseline: tenants are pinned to
  the advisor's initial placement with no caps and no control loop.
  This is the strawman the benchmark compares against.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.report import format_table
from repro.faults.plan import FaultPlan
from repro.net.cluster import SimCluster
from repro.net.topology import Testbed, paper_testbed
from repro.rdma.verbs import RdmaContext
from repro.sched.policy import Decision, PathPolicy, Placement
from repro.sched.runtime import ServingRuntime
from repro.sched.scheduler import PathScheduler
from repro.sched.slo import RawWindow, SloTracker
from repro.stats.kernels import Estimate, batch_means
from repro.sched.tenant import OK, SloSpec, TenantSpec
from repro.telemetry import Telemetry
from repro.trace.tracer import Tracer
from repro.units import GB, KB, MB, fmt_ns, to_gbps
from repro.workloads import OpMix

#: The serving engines: ``event`` is the pure DES, ``hybrid``
#: fast-forwards steady windows analytically.  These are the only
#: values an ``engine`` argument takes anywhere in the package.
ENGINE_CHOICES = ("event", "hybrid")


@dataclass(frozen=True)
class TenantReport:
    """One tenant's end-to-end outcome."""

    name: str
    final_path: str
    completed: int
    rejected: int
    lost: int
    degraded: int
    p50_ns: float
    p99_ns: float
    goodput_gbps: float       # all completed bytes / active span
    slo_goodput_gbps: float   # only bytes delivered within deadline
    slo_attainment: float     # fraction of completions within deadline
    migrations: int


@dataclass
class ServeReport:
    """The full outcome of one serving run."""

    adaptive: bool
    elapsed_ns: float
    tenants: Dict[str, TenantReport]
    decisions: List[Decision]
    path_gbps: Dict[str, float]          # steady-state delivered per path
    counters: Dict[str, float] = field(default_factory=dict)
    tracer: Optional[Tracer] = None
    engine: str = "event"
    hybrid_stats: Optional[Dict[str, int]] = None
    #: Fixed-window archive per tenant (raw material for batch-means
    #: estimates; see :meth:`repro.sched.slo.SloTracker.window_series`).
    windows: Dict[str, Tuple[RawWindow, ...]] = field(default_factory=dict)
    #: Final conservation terms per tenant:
    #: ``(arrivals, completed, rejected, lost, in_flight)``.
    conservation: Dict[str, Tuple[int, int, int, int, int]] = field(
        default_factory=dict)
    #: Each machine's ``path_gbps`` in a merged multi-shard report,
    #: keyed by shard name (empty for a one-machine run): the
    #: utilization invariant checks every machine against its own
    #: fabric.
    machine_path_gbps: Dict[str, Dict[str, float]] = field(
        default_factory=dict)

    def p99(self, tenant: str) -> Estimate:
        """Batch-means estimate of the tenant's per-window p99 (ns)."""
        series = [w.p99_ns for w in self.windows.get(tenant, ())
                  if w.count > 0]
        if not series:
            return Estimate(mean=self.tenants[tenant].p99_ns,
                            half_width=float("inf"), n=1)
        return batch_means(series)

    def worst_p99(self) -> Estimate:
        """The worst tenant's p99 as a mean ± CI over warm windows."""
        if not self.tenants:
            return Estimate(mean=0.0, half_width=0.0, n=0)
        estimates = [self.p99(name) for name in self.tenants]
        return max(estimates, key=lambda e: e.mean)

    @property
    def total_slo_goodput_gbps(self) -> float:
        return sum(t.slo_goodput_gbps for t in self.tenants.values())

    @property
    def lost(self) -> int:
        return sum(t.lost for t in self.tenants.values())

    def table(self) -> str:
        rows = [(t.name, t.final_path, t.completed, t.rejected, t.lost,
                 fmt_ns(t.p50_ns), fmt_ns(t.p99_ns),
                 f"{t.goodput_gbps:.1f}", f"{t.slo_goodput_gbps:.1f}",
                 f"{100 * t.slo_attainment:.1f}%", t.migrations)
                for t in self.tenants.values()]
        mode = "adaptive" if self.adaptive else "static"
        return format_table(
            ["tenant", "path", "done", "rej", "lost", "p50", "p99",
             "gbps", "slo-gbps", "slo-att", "moves"],
            rows, title=f"serve ({mode}, {fmt_ns(self.elapsed_ns)})")


def mixed_tenant_workload(duration_ns: float = 1_500_000.0,
                          seed: int = 0) -> Tuple[TenantSpec, ...]:
    """The benchmark's four-tenant mix (every paper path occupied).

    * ``alpha`` — latency-sensitive 512 B READs (cache-resident working
      set: the advisor's SoC-friendly shape, path ②).
    * ``beta``/``delta`` — two throughput 4 KB WRITE streams (~80 Gbps
      each) over working sets larger than SoC DRAM (host-memory shape,
      path ①).  Together they stand in for the paper's ``N ≈ 200`` of
      network demand on the shared PCIe fabric.
    * ``gamma`` — a bulk host→SoC shipper (path ③) offering ~116 Gbps,
      ~2× the ``P − N`` budget.  Uncapped, its double PCIe1 crossing
      pushes the link past ``P`` and melts every tenant's tail; capped
      at the budget, the fabric stays feasible.

    Each tenant's request count is sized so all streams span roughly
    ``duration_ns`` of simulated time.
    """

    def _n(interval_ns: float) -> int:
        return max(1, int(duration_ns / interval_ns))

    return (
        TenantSpec(name="alpha", payload=512, interval_ns=2_000.0,
                   requests=_n(2_000.0), mix=OpMix(read=1.0, write=0.0),
                   slo=SloSpec(p99_ns=15_000.0),
                   working_set_bytes=4 * MB, workers=4, queue_limit=32,
                   seed=seed),
        TenantSpec(name="beta", payload=4 * KB, interval_ns=410.0,
                   requests=_n(410.0),
                   mix=OpMix(read=0.0, write=1.0),
                   slo=SloSpec(p99_ns=25_000.0),
                   working_set_bytes=32 * GB, workers=16, queue_limit=64,
                   seed=seed + 1),
        TenantSpec(name="delta", payload=4 * KB, interval_ns=410.0,
                   requests=_n(410.0),
                   mix=OpMix(read=0.0, write=1.0),
                   slo=SloSpec(p99_ns=25_000.0),
                   working_set_bytes=32 * GB, workers=16, queue_limit=64,
                   seed=seed + 3),
        TenantSpec(name="gamma", payload=64 * KB, interval_ns=4_500.0,
                   requests=_n(4_500.0),
                   mix=OpMix(read=0.0, write=1.0), bulk=True,
                   slo=SloSpec(p99_ns=120_000.0),
                   working_set_bytes=512 * MB, workers=4, queue_limit=4,
                   seed=seed + 2),
    )


def _static_placement(spec: TenantSpec, policy: PathPolicy) -> Placement:
    """The pinned baseline: a fixed path, no caps, no degradation."""
    placed = policy.place(spec)
    return Placement(path=placed.path, responder=placed.responder,
                     rate_cap_gbps=None, degraded=False,
                     reason="static", advice_refs=placed.advice_refs)


class ServeSession:
    """The serving stack, wired and ready to run.

    :func:`run_serve` drives one to completion in a single call.
    Sharded execution (:mod:`repro.sim.shard`) instead steps sessions
    window by window via :meth:`advance`, keeping shard processes in
    conservative time lockstep.

    ``engine`` selects the execution strategy: ``"event"`` (the default
    pure DES on the binary-heap :class:`~repro.sim.engine.Simulator` —
    bit-identical run to run) or ``"hybrid"``, which installs a
    :class:`~repro.sim.hybrid.HybridController` that fast-forwards
    steady-state stretches through the operational-law recurrence
    (exact completion counts, latencies within the declared
    tolerances — see ``docs/performance.md``).  Per-path bandwidth is
    accounted after a warm-up of two control ticks (``interval_ns``);
    completions before it still count toward per-tenant totals.
    """

    def __init__(self, tenants: Sequence[TenantSpec], adaptive: bool = True,
                 testbed: Optional[Testbed] = None,
                 faults: Optional[FaultPlan] = None, fault_seed: int = 0,
                 interval_ns: float = 20_000.0,
                 window_ns: float = 100_000.0,
                 trace: bool = False, engine: str = "event",
                 channel=None, nic: str = "snic"):
        if engine not in ENGINE_CHOICES:
            raise ValueError(f"unknown serve engine {engine!r}; "
                             "expected 'event' or 'hybrid'")
        if nic not in ("snic", "rnic"):
            raise ValueError(f"unknown nic {nic!r}; "
                             "expected 'snic' or 'rnic'")
        if nic == "rnic" and any(t.bulk for t in tenants):
            raise ValueError("bulk (path-3) tenants need an off-path "
                             "SmartNIC; this machine carries an RNIC")
        tenants = tuple(tenants)
        if not tenants:
            raise ValueError("need at least one tenant")
        self.adaptive = adaptive
        self.engine = engine
        self.interval_ns = interval_ns
        testbed = testbed or paper_testbed()
        n_clients = max(1, sum(1 for t in tenants if not t.bulk))
        self.tenants = tenants
        # "rnic" builds a host-only machine (no SoC node): the policy
        # sees soc_available=False and terminates everything host-ward.
        self.cluster = SimCluster(testbed, n_clients=n_clients, nic=nic)
        self.tracer = Tracer().install(self.cluster) if trace else None
        self.telemetry = Telemetry(self.cluster)
        if faults is not None and not faults.empty:
            self.cluster.install_faults(faults, seed=fault_seed)
        self.ctx = RdmaContext(self.cluster)
        self.tracker = SloTracker(tenants, window_ns=window_ns)
        self.runtime = ServingRuntime(self.cluster, self.ctx, tenants,
                                      self.tracker)
        self.channel = channel
        if channel is not None:
            channel.bind(self)
            self.runtime.xshard = channel
        self.policy = PathPolicy(testbed)
        self._telemetry_start = self.telemetry.snapshot()

        self.decisions: List[Decision] = []
        scheduler = None
        if adaptive:
            scheduler = PathScheduler(self.runtime, self.policy,
                                      self.tracker, interval_ns=interval_ns,
                                      tracer=self.tracer,
                                      machine=(channel.shard
                                               if channel is not None
                                               else ""))
            scheduler.start()
            self.decisions = scheduler.decisions
        else:
            for spec in tenants:
                self.runtime.place(spec, _static_placement(spec, self.policy))

        self.controller = None
        if engine == "hybrid":
            from repro.sim.hybrid import HybridController
            self.controller = HybridController(
                self.runtime, self.tracker, faults=faults,
                tick_ns=interval_ns).install()
            if scheduler is not None:
                scheduler.on_decision = self.controller.on_decision

    @property
    def done(self) -> bool:
        """No more events: every stream served, every process exited."""
        return self.cluster.sim.peek() == float("inf")

    def advance(self, until: float) -> bool:
        """Run up to ``until`` ns of simulated time; True when drained.

        Once drained, further calls are no-ops; :meth:`finalize`
        reports the instant the queue ran dry, not the window boundary.
        """
        if not self.done:
            self.cluster.sim.run(until=until)
        return self.done

    def run_to_completion(self) -> None:
        self.cluster.sim.run()

    def apply_directive(self, message) -> None:
        """Enact one cluster-scheduler ``ctl`` directive.

        ``"serve-on:<machine>"`` points the tenant's requests at a
        remote machine's host relay; ``"serve-local"`` returns them
        home.  Directives arrive through the fabric like any other
        message, so they are window-logged and replay-safe.
        """
        note = message.note or ""
        if note.startswith("serve-on:"):
            self.runtime.remote_serve[message.tenant] = note.split(":", 1)[1]
            self.cluster.bump("sched.directives")
        elif note == "serve-local":
            self.runtime.remote_serve.pop(message.tenant, None)
            self.cluster.bump("sched.directives")
        else:
            raise ValueError(f"unknown ctl directive {note!r}")

    def heartbeat(self) -> dict:
        """Picklable progress digest for the sharded supervisor.

        Per tenant ``(arrivals, completed, rejected, lost, in_flight)``
        — the terms of the conservation identity the watchdog checks
        every window (arrivals = admitted + rejected; in-flight =
        admitted − finished) — plus the bound channel's fabric flow
        counts ``(sent, handed, fired, timeouts)``.

        Two further keys feed the cluster scheduler (the watchdog only
        reads ``"tenants"``/``"fabric"``, so they are additive):

        * ``"windows"`` — per tenant, the latest *closed* SLO window's
          ``(index, count, p99_ns, rejected, violations)`` digest (or
          ``None`` before the first), via the side-effect-free
          :meth:`~repro.sched.slo.SloTracker.closed_window_digest`;
        * ``"load"`` — this machine's ``(completed_total,
          remote_served, acked, rtt_ns_total)`` for load-aware
          placement.
        """
        tenants = {}
        windows = {}
        now = self.cluster.sim.now
        progress = self.runtime.progress()
        for spec in self.tenants:
            admitted, finished = progress[spec.name]
            rejected = self.tracker.rejected[spec.name]
            tenants[spec.name] = (
                admitted + rejected,
                self.tracker.completed[spec.name],
                rejected,
                self.tracker.lost[spec.name],
                admitted - finished,
            )
            windows[spec.name] = self.tracker.closed_window_digest(
                spec.name, now)
        channel = self.channel
        fabric = (channel.flow_counts() if channel is not None
                  else (0, 0, 0, 0))
        load = (sum(self.tracker.completed.values()),
                channel.served_count if channel is not None else 0,
                channel.acked_count if channel is not None else 0,
                channel.rtt_ns_total if channel is not None else 0.0)
        return {"tenants": tenants, "fabric": fabric,
                "windows": windows, "load": load}

    def finalize(self) -> ServeReport:
        sim = self.cluster.sim
        return ServeReport(
            adaptive=self.adaptive,
            elapsed_ns=(sim.now if sim.drained_ns is None
                        else sim.drained_ns),
            tenants=_tenant_reports(self.tenants, self.runtime,
                                    self.tracker, self.decisions),
            decisions=self.decisions,
            path_gbps=_path_gbps(self.runtime, 2 * self.interval_ns),
            counters=dict(self.telemetry.delta(
                self._telemetry_start).deltas),
            tracer=self.tracer,
            engine=self.engine,
            hybrid_stats=(self.controller.stats()
                          if self.controller is not None else None),
            windows={t.name: self.tracker.window_series(t.name)
                     for t in self.tenants},
            conservation=self.heartbeat()["tenants"],
        )


def run_serve(tenants: Sequence[TenantSpec], **kwargs) -> ServeReport:
    """Serve every tenant stream to completion and report.

    ``kwargs`` are :class:`ServeSession`'s options.
    """
    session = ServeSession(tenants, **kwargs)
    session.run_to_completion()
    return session.finalize()


def _tenant_reports(tenants: Sequence[TenantSpec], runtime: ServingRuntime,
                    tracker: SloTracker,
                    decisions: Sequence[Decision]) -> Dict[str, TenantReport]:
    """Per-tenant outcomes, read from the tracker's totals and archive."""
    moves: Dict[str, int] = {}
    for d in decisions:
        if d.kind in ("migrate", "failover"):
            moves[d.tenant] = moves.get(d.tenant, 0) + 1
    reports: Dict[str, TenantReport] = {}
    for spec in tenants:
        name = spec.name
        ok = tracker.ok_latencies(name)
        in_slo = bisect_right(ok, spec.slo.deadline)
        span = ((tracker.last_end[name] - tracker.first_start[name])
                if tracker.completed[name] or tracker.lost[name]
                else 0.0) or 1.0
        good_bytes = spec.payload * len(ok)
        slo_bytes = spec.payload * in_slo
        lease = runtime.lease(name)
        reports[name] = TenantReport(
            name=name,
            final_path=("degraded" if lease.degraded else lease.path.value),
            completed=tracker.completed[name],
            rejected=tracker.rejected[name],
            lost=tracker.lost[name],
            degraded=tracker.degraded[name],
            p50_ns=ok[len(ok) // 2] if ok else 0.0,
            p99_ns=(ok[min(len(ok) - 1, int(0.99 * len(ok)))]
                    if ok else 0.0),
            goodput_gbps=to_gbps(good_bytes / span),
            slo_goodput_gbps=to_gbps(slo_bytes / span),
            slo_attainment=(in_slo / len(ok)) if ok else 0.0,
            migrations=moves.get(name, 0),
        )
    return reports


def _path_gbps(runtime: ServingRuntime,
               warmup_ns: float) -> Dict[str, float]:
    """Steady-state delivered bandwidth per path, from completions.

    The one pass over the completion log, read straight from its
    columns: payloads are looked up by tenant code and accumulators by
    path code, so no record is rebuilt.
    """
    log = runtime.completions
    columns = log.columns()
    payload = {t.name: t.payload for t in runtime.specs}
    payloads = [payload[name] for name in log.tenants]
    # path code -> [latest end_ns, delivered bytes], first-seen order.
    by_path: Dict[int, List] = {}
    for tenant, path, end, flags in zip(columns.tenant, columns.path,
                                        columns.end_ns, columns.flags):
        if flags & OK and end > warmup_ns:
            acc = by_path.get(path)
            if acc is None:
                acc = by_path[path] = [end, 0]
            elif end > acc[0]:
                acc[0] = end
            acc[1] += payloads[tenant]
    return {log.paths[path].value: to_gbps(nbytes / ((latest - warmup_ns)
                                                      or 1.0))
            for path, (latest, nbytes) in by_path.items()}
