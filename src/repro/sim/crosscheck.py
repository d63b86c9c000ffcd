"""Engine cross-checking: prove the hybrid engine against pure DES.

The hybrid engine's contract (docs/performance.md) is tiered:

* **exact** — completed / rejected / lost counts per tenant, and the
  *structure* of the scheduler's decision log (time, tenant, kind,
  paths, reason, generation);
* **toleranced** — p50/p99 latency and goodput per tenant, and the
  ``observed_p99_ns`` attribution field on decisions, each within the
  relative bounds declared here (:data:`LATENCY_TOL` /
  :data:`GOODPUT_TOL`).

:func:`crosscheck` runs one scenario under both engines and grades
every clause of that contract; :func:`crosscheck_suite` sweeps the
standard scenario families (steady adaptive/static runs, SoC crash,
crash + recovery, a packet-loss window, and a mid-window fault
transient exercising the adaptive steadiness envelope).  The CLI exposes it as
``python -m repro crosscheck`` and ``scripts/bench_trajectory.py
--check`` gates on it, so a hybrid change that drifts outside the
declared tolerances fails loudly rather than silently skewing results.

Scenarios are passed as zero-argument *factories* because
:class:`~repro.sched.tenant.TenantSpec` carries live RNG streams —
each engine run must consume a fresh copy or the second run would see
different arrivals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.faults.plan import FaultPlan, PacketLoss, SocCrash
from repro.sched.serve import ServeReport, run_serve

#: Declared relative tolerance on p50/p99 vs pure DES.
LATENCY_TOL = 0.35
#: Declared relative tolerance on goodput vs pure DES.
GOODPUT_TOL = 0.15

#: Fields of ``Decision.as_tuple()`` compared bit-exactly (everything
#: but ``observed_p99_ns``, which is a windowed-telemetry attribution
#: and only required to agree within ``LATENCY_TOL``).
_P99_INDEX = 9


def _rel_err(got: float, want: float) -> float:
    """Relative error with a floor so 0-vs-0 compares clean."""
    scale = max(abs(want), 1e-9)
    return abs(got - want) / scale


@dataclass(frozen=True)
class TenantCheck:
    """Per-tenant verdict: exact counts plus toleranced percentiles."""

    name: str
    counts_ok: bool
    p50_err: float
    p99_err: float
    goodput_err: float

    @property
    def ok(self) -> bool:
        return (self.counts_ok and self.p50_err <= LATENCY_TOL
                and self.p99_err <= LATENCY_TOL
                and self.goodput_err <= GOODPUT_TOL)


@dataclass(frozen=True)
class CrossCheck:
    """The graded contract for one scenario run under both engines."""

    scenario: str
    tenants: Tuple[TenantCheck, ...]
    decisions_ok: bool
    decision_p99_err: float
    des_seconds: float
    hybrid_seconds: float
    hybrid_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        return self.des_seconds / max(self.hybrid_seconds, 1e-9)

    @property
    def ok(self) -> bool:
        return (self.decisions_ok
                and self.decision_p99_err <= LATENCY_TOL
                and all(t.ok for t in self.tenants))

    def failures(self) -> Tuple[str, ...]:
        """Human-readable clause violations (empty when ``ok``)."""
        out = []
        if not self.decisions_ok:
            out.append("decision log structure diverged")
        if self.decision_p99_err > LATENCY_TOL:
            out.append(f"decision observed_p99 drift "
                       f"{self.decision_p99_err:.0%} > "
                       f"{LATENCY_TOL:.0%}")
        for t in self.tenants:
            if not t.counts_ok:
                out.append(f"{t.name}: completion/reject/loss counts differ")
            if t.p50_err > LATENCY_TOL:
                out.append(f"{t.name}: p50 drift {t.p50_err:.0%}")
            if t.p99_err > LATENCY_TOL:
                out.append(f"{t.name}: p99 drift {t.p99_err:.0%}")
            if t.goodput_err > GOODPUT_TOL:
                out.append(f"{t.name}: goodput drift {t.goodput_err:.0%}")
        return tuple(out)


def _check_decisions(des: ServeReport,
                     hybrid: ServeReport) -> Tuple[bool, float]:
    des_rows = [d.as_tuple() for d in des.decisions]
    hyb_rows = [d.as_tuple() for d in hybrid.decisions]
    if len(des_rows) != len(hyb_rows):
        return False, float("inf")
    worst = 0.0
    for want, got in zip(des_rows, hyb_rows):
        if (want[:_P99_INDEX] != got[:_P99_INDEX]
                or want[_P99_INDEX + 1:] != got[_P99_INDEX + 1:]):
            return False, float("inf")
        worst = max(worst, _rel_err(got[_P99_INDEX], want[_P99_INDEX]))
    return True, worst


def crosscheck(scenario: str, factory: Callable[[], Sequence],
               **serve_kwargs) -> CrossCheck:
    """Run ``factory()``'s tenants under both engines and grade them.

    ``serve_kwargs`` go to both :func:`~repro.sched.serve.run_serve`
    calls (``adaptive=``, ``faults=`` ...).  Toleranced clauses are
    graded against :data:`LATENCY_TOL` and :data:`GOODPUT_TOL`.
    """
    t0 = time.perf_counter()
    des = run_serve(factory(), **serve_kwargs)
    des_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    hyb = run_serve(factory(), engine="hybrid", **serve_kwargs)
    hybrid_seconds = time.perf_counter() - t0

    tenants = []
    for name in sorted(des.tenants):
        want, got = des.tenants[name], hyb.tenants[name]
        tenants.append(TenantCheck(
            name=name,
            counts_ok=(want.completed, want.rejected, want.lost)
                      == (got.completed, got.rejected, got.lost),
            p50_err=_rel_err(got.p50_ns, want.p50_ns),
            p99_err=_rel_err(got.p99_ns, want.p99_ns),
            goodput_err=_rel_err(got.goodput_gbps, want.goodput_gbps),
        ))
    decisions_ok, p99_err = _check_decisions(des, hyb)
    return CrossCheck(
        scenario=scenario,
        tenants=tuple(tenants),
        decisions_ok=decisions_ok,
        decision_p99_err=p99_err,
        des_seconds=des_seconds,
        hybrid_seconds=hybrid_seconds,
        hybrid_stats=dict(hyb.hybrid_stats or {}),
    )


# -- CI-overlap agreement (the statistical upgrade of the tolerance gates) ---------


@dataclass(frozen=True)
class AgreementRow:
    """One engine-agreement clause graded by confidence-interval overlap."""

    tenant: str
    metric: str
    des: "Estimate"
    hybrid: "Estimate"
    ok: bool
    detail: str


def ci_agreement(des: ServeReport,
                 hybrid: ServeReport) -> Tuple[AgreementRow, ...]:
    """Grade DES-vs-hybrid agreement with CI-overlap gates.

    The original :func:`crosscheck` grades point estimates against
    point tolerances.  This is the statistical version ``repro
    validate`` uses: each per-tenant metric becomes a warm-up-truncated
    batch-means :class:`~repro.stats.kernels.Estimate` over the run's
    fixed-window archive, and two engines *agree* when the intervals
    overlap (falling back to the :data:`LATENCY_TOL` /
    :data:`GOODPUT_TOL` relative tolerance for degenerate zero-width intervals).  Completion /
    rejection / loss counts stay exact — no interval excuses a count.
    """
    from repro.stats.kernels import Estimate, agreement
    from repro.stats.replicate import report_estimate

    rows = []
    for name in sorted(des.tenants):
        want, got = des.tenants[name], hybrid.tenants[name]
        counts_ok = ((want.completed, want.rejected, want.lost)
                     == (got.completed, got.rejected, got.lost))
        rows.append(AgreementRow(
            tenant=name, metric="counts",
            des=Estimate(mean=float(want.completed), half_width=0.0, n=1),
            hybrid=Estimate(mean=float(got.completed), half_width=0.0, n=1),
            ok=counts_ok,
            detail=(f"completed/rejected/lost exact: "
                    f"{want.completed}/{want.rejected}/{want.lost}"
                    if counts_ok else
                    f"counts differ: {want.completed}/{want.rejected}/"
                    f"{want.lost} vs {got.completed}/{got.rejected}/"
                    f"{got.lost}")))
        for metric, tol in (("p50_ns", LATENCY_TOL),
                            ("p99_ns", LATENCY_TOL),
                            ("goodput_gbps", GOODPUT_TOL)):
            a = report_estimate(des, name, field=metric)
            b = report_estimate(hybrid, name, field=metric)
            ok, detail = agreement(a, b, tolerance=tol)
            rows.append(AgreementRow(tenant=name, metric=metric,
                                     des=a, hybrid=b, ok=ok, detail=detail))
    return tuple(rows)


# -- the standard scenario families ------------------------------------------------


def standard_scenarios(duration_ns: float = 1_500_000.0,
                       seed: int = 0) -> Dict[str, Dict]:
    """Named scenario families covering the hybrid engine's regimes.

    Steady adaptive traffic (where fast-forwarding pays), the static
    baseline (which must never flip — overloaded tenants reject), and
    three fault shapes that force guard windows and splice-backs.
    """
    from repro.sched.serve import mixed_tenant_workload

    def tenants():
        return mixed_tenant_workload(duration_ns=duration_ns, seed=seed)

    third, two_thirds = duration_ns / 3, 2 * duration_ns / 3
    return {
        "adaptive": dict(factory=tenants),
        "static": dict(factory=tenants, adaptive=False),
        "soc-crash": dict(factory=tenants, faults=FaultPlan(
            faults=(SocCrash(at=third),))),
        "crash-recover": dict(factory=tenants, faults=FaultPlan(
            faults=(SocCrash(at=third, recover_at=two_thirds),))),
        "packet-loss": dict(factory=tenants, faults=FaultPlan(
            faults=(PacketLoss("net.server0", 0.02, start=third,
                               end=two_thirds),))),
        # A crash landing just off the middle of a control window — the
        # short-run transient that forces the adaptive guard envelope
        # to re-guard early enough that no analytic in-flight tail
        # straddles the crash instant (ROADMAP 2(a)).
        "fault-transient": dict(factory=tenants, faults=FaultPlan(
            faults=(SocCrash(at=duration_ns * 0.495 + 500.0),))),
    }


def crosscheck_suite(duration_ns: float = 1_500_000.0, seed: int = 0,
                     scenarios: Optional[Sequence[str]] = None,
                     ) -> Tuple[CrossCheck, ...]:
    """Cross-check every standard scenario family (or a named subset)."""
    families = standard_scenarios(duration_ns=duration_ns, seed=seed)
    if scenarios:
        unknown = set(scenarios) - families.keys()
        if unknown:
            raise ValueError(f"unknown scenario(s) {sorted(unknown)}; "
                             f"choose from {sorted(families)}")
        families = {name: families[name] for name in scenarios}
    results = []
    for name, spec in families.items():
        kwargs = dict(spec)
        factory = kwargs.pop("factory")
        results.append(crosscheck(name, factory, **kwargs))
    return tuple(results)


# -- cluster-fault determinism family ----------------------------------------------


@dataclass(frozen=True)
class ClusterCheck:
    """Verdict of the cluster-chaos determinism family.

    Unlike :class:`CrossCheck` this family grades the *sharded
    executor*, not the hybrid engine: each clause compares two whole
    cluster runs (multiprocess vs in-process, chaotic vs pristine,
    killed vs unkilled) that the contract says must agree exactly.
    """

    scenario: str
    clauses: Tuple[Tuple[str, bool, str], ...]
    des_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(ok for _name, ok, _detail in self.clauses)

    def failures(self) -> Tuple[str, ...]:
        return tuple(f"{name}: {detail}"
                     for name, ok, detail in self.clauses if not ok)


def cluster_chaos_scenario(duration_ns: float = 400_000.0, seed: int = 0):
    """The standard 4-machine chaos scenario: ``(plan, chaos_plan)``.

    Four shards, each one client tenant plus one bulk tenant; even
    shards export failover traffic and shard2 ships bulk completions,
    so the fabric carries both kinds.  The chaos plan crashes two
    machines (one recovers), loses a quarter of the fabric, delays
    everything leaving shard2, partitions shard2↔shard3 for a window,
    and reorders deliveries into shard3 — every cluster fault class at
    once, all decided by pure hashes of ``seed``.
    """
    from repro.faults.plan import (FabricDelay, FabricLoss, FabricPartition,
                                   FabricReorder, MachineCrash)
    from repro.sched.tenant import SloSpec, TenantSpec
    from repro.sim.shard import ShardPlan, ShardSpec
    from repro.sim.xshard import CrossTraffic
    from repro.workloads.mix import OpMix

    interval_ns = 4_000.0
    requests = max(20, int(duration_ns / interval_ns / 2))

    def tenant(name: str, tseed: int, bulk: bool) -> TenantSpec:
        mix = (OpMix(read=1.0, write=0.0, send=0.0) if bulk
               else OpMix(read=0.5, write=0.25, send=0.25))
        return TenantSpec(name=name, payload=4096 if bulk else 256,
                          interval_ns=interval_ns, requests=requests,
                          mix=mix, slo=SloSpec(p99_ns=60_000.0),
                          bulk=bulk, seed=tseed)

    shards = []
    for i in range(4):
        kind = "bulk" if i == 2 else "failover"
        exports = ()
        if i % 2 == 0 or i == 3:
            exports = (CrossTraffic(tenant=f"t{i}b",
                                    dst_shard=f"shard{(i + 1) % 4}",
                                    kind=kind),)
        shards.append(ShardSpec(
            name=f"shard{i}",
            tenants=(tenant(f"t{i}a", seed * 100 + 10 + i, bulk=False),
                     tenant(f"t{i}b", seed * 100 + 20 + i, bulk=True)),
            exports=exports))
    plan = ShardPlan(shards=tuple(shards))
    third, two_thirds = duration_ns / 3, 2 * duration_ns / 3
    chaos = FaultPlan(faults=(
        MachineCrash(shard="shard0", at=third * 0.5, recover_at=two_thirds),
        MachineCrash(shard="shard3", at=two_thirds),
        FabricLoss(rate=0.25),
        FabricDelay(extra_ns=30_000.0, src="shard2"),
        FabricPartition(a="shard2", b="shard3", start=third, end=two_thirds),
        FabricReorder(dst="shard3"),
    ), seed=seed + 7)
    return plan, chaos


def _cluster_digest(report: ServeReport, counters: bool = True) -> tuple:
    parts = (
        tuple(sorted((name, t.completed, t.rejected, t.lost, t.p50_ns,
                      t.p99_ns, t.goodput_gbps)
                     for name, t in report.tenants.items())),
        tuple(d.as_tuple() for d in report.decisions),
    )
    if counters:
        parts += (tuple(sorted(report.counters.items())),)
    return parts


def cluster_crosscheck(duration_ns: float = 400_000.0,
                       seed: int = 0) -> ClusterCheck:
    """Grade the cluster-chaos determinism contract (three clauses).

    1. **jobs-identity** — under a plan exercising every cluster fault
       class, ``jobs=4`` (worker processes) is bit-identical to
       ``jobs=1`` (the in-process reference): counts, latencies,
       decision logs and telemetry counters.
    2. **empty-plan-baseline** — an *empty* cluster fault plan, run
       under the default supervisor, is bit-identical to the same plan
       with no cluster machinery at all (chaos is pay-as-you-go).
    3. **kill-respawn** — a supervised run whose worker is SIGKILLed
       mid-window and respawned from the window-log checkpoint lands on
       exactly the counts and decisions of the unkilled run.
    """
    from dataclasses import replace

    from repro.sim.shard import run_sharded
    from repro.sim.supervise import SupervisorConfig

    plan, chaos = cluster_chaos_scenario(duration_ns=duration_ns, seed=seed)
    chaotic = replace(plan, cluster_faults=chaos)
    start = time.perf_counter()
    clauses = []

    ref = run_sharded(chaotic, jobs=1)
    multi = run_sharded(chaotic, jobs=4)
    same = _cluster_digest(ref) == _cluster_digest(multi)
    dropped = int(ref.counters.get("cluster.dropped", 0))
    clauses.append((
        "jobs-identity", same,
        "jobs=4 == jobs=1 under full chaos "
        f"({dropped} fabric drops)" if same else
        "jobs=4 diverged from the in-process reference under chaos"))

    baseline = run_sharded(plan, jobs=1)
    empty = run_sharded(replace(plan, cluster_faults=FaultPlan()),
                        jobs=1, supervisor=SupervisorConfig())
    same = _cluster_digest(baseline) == _cluster_digest(empty)
    clauses.append((
        "empty-plan-baseline", same,
        "empty cluster plan + supervisor == pristine run" if same else
        "an empty cluster plan perturbed the run"))

    killed = run_sharded(chaotic, jobs=4,
                         supervisor=SupervisorConfig(kill_shard="shard2",
                                                     kill_window=3))
    same = (_cluster_digest(multi, counters=False)
            == _cluster_digest(killed, counters=False))
    respawns = int(killed.counters.get("supervisor.respawns", 0))
    clauses.append((
        "kill-respawn", same,
        f"SIGKILL + {respawns} respawn(s) reproduced the unkilled run"
        if same else
        "a respawned worker diverged from the unkilled run"))

    return ClusterCheck(scenario="cluster-fault", clauses=tuple(clauses),
                        des_seconds=time.perf_counter() - start)
