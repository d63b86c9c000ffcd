"""Engine cross-checking: prove the hybrid engine against pure DES.

The hybrid engine's contract (docs/performance.md) is tiered:

* **exact** — completed / rejected / lost counts per tenant, and the
  *structure* of the scheduler's decision log (time, tenant, kind,
  paths, reason, generation);
* **toleranced** — p50/p99 latency and goodput per tenant, and the
  ``observed_p99_ns`` attribution field on decisions, each within the
  relative bounds declared here (:data:`LATENCY_TOL` /
  :data:`GOODPUT_TOL`).

:func:`grade` grades every clause of that contract over one DES and
one hybrid report of the same scenario; :func:`crosscheck` runs both
engines and grades them.  :func:`standard_scenarios` names the serving
families (steady adaptive/static runs, SoC crash, crash + recovery, a
packet-loss window, and a mid-window fault transient exercising the
adaptive steadiness envelope), and :func:`cluster_crosscheck` grades
the sharded executor's determinism.  ``repro validate`` is the one
command that runs them: it grades every seed pair of every serving
family with :func:`grade` and runs ``cluster-fault`` as a family of its
own (docs/validation.md).

A scenario's tenants are one tuple of frozen
:class:`~repro.sched.tenant.TenantSpec` values that both engine runs
serve: each runtime builds its own arrival streams from the specs'
seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

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


def grade(scenario: str, des: ServeReport,
          hybrid: ServeReport) -> CrossCheck:
    """Grade one hybrid report against the DES report of the same run.

    Counts and decision structure must be identical; p50/p99/goodput
    and the decisions' ``observed_p99_ns`` are graded against
    :data:`LATENCY_TOL` and :data:`GOODPUT_TOL`.
    """
    tenants = []
    for name in sorted(des.tenants):
        want, got = des.tenants[name], hybrid.tenants[name]
        tenants.append(TenantCheck(
            name=name,
            counts_ok=(want.completed, want.rejected, want.lost)
                      == (got.completed, got.rejected, got.lost),
            p50_err=_rel_err(got.p50_ns, want.p50_ns),
            p99_err=_rel_err(got.p99_ns, want.p99_ns),
            goodput_err=_rel_err(got.goodput_gbps, want.goodput_gbps),
        ))
    decisions_ok, p99_err = _check_decisions(des, hybrid)
    return CrossCheck(scenario=scenario, tenants=tuple(tenants),
                      decisions_ok=decisions_ok, decision_p99_err=p99_err)


def crosscheck(scenario: str, tenants: Sequence,
               **serve_kwargs) -> CrossCheck:
    """Serve ``tenants`` under both engines and :func:`grade`.

    ``serve_kwargs`` go to both :func:`~repro.sched.serve.run_serve`
    calls (``adaptive=``, ``faults=`` ...).
    """
    des = run_serve(tenants, **serve_kwargs)
    hybrid = run_serve(tenants, engine="hybrid", **serve_kwargs)
    return grade(scenario, des, hybrid)


# -- the standard scenario families ------------------------------------------------


def standard_scenarios(duration_ns: float = 1_500_000.0,
                       seed: int = 0) -> Dict[str, Dict]:
    """Named scenario families covering the hybrid engine's regimes.

    Steady adaptive traffic (where fast-forwarding pays), the static
    baseline (which must never flip — overloaded tenants reject), and
    fault shapes that force guard windows and splice-backs.  Each
    family is the keyword set of one serving run: ``tenants`` (one
    tuple, shared by every family) plus options.  ``duration_ns`` must
    be positive: the fault plans are placed at fractions of it.
    """
    from repro.sched.serve import mixed_tenant_workload

    if not duration_ns > 0:
        raise ValueError(f"duration_ns must be positive: {duration_ns}")

    tenants = mixed_tenant_workload(duration_ns=duration_ns, seed=seed)
    third, two_thirds = duration_ns / 3, 2 * duration_ns / 3
    return {
        "adaptive": dict(tenants=tenants),
        "static": dict(tenants=tenants, adaptive=False),
        "soc-crash": dict(tenants=tenants, faults=FaultPlan(
            faults=(SocCrash(at=third),))),
        "crash-recover": dict(tenants=tenants, faults=FaultPlan(
            faults=(SocCrash(at=third, recover_at=two_thirds),))),
        "packet-loss": dict(tenants=tenants, faults=FaultPlan(
            faults=(PacketLoss("net.server0", 0.02, start=third,
                               end=two_thirds),))),
        # A crash landing just off the middle of a control window — the
        # short-run transient that forces the adaptive guard envelope
        # to re-guard early enough that no analytic in-flight tail
        # straddles the crash instant (ROADMAP 2(a)).
        "fault-transient": dict(tenants=tenants, faults=FaultPlan(
            faults=(SocCrash(at=duration_ns * 0.495 + 500.0),))),
    }


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

    @property
    def ok(self) -> bool:
        return all(ok for _name, ok, _detail in self.clauses)

    def failures(self) -> Tuple[str, ...]:
        return tuple(f"{name}: {detail}"
                     for name, ok, detail in self.clauses if not ok)


def cluster_chaos_scenario(duration_ns: float = 400_000.0, seed: int = 0):
    """The standard 4-machine chaos document, a
    :class:`~repro.api.schema.ClusterScenario`.

    Four machines ``shard0``…``shard3``, each with one pinned client
    tenant and one pinned bulk tenant.  ``t2b`` ships its bulk
    completions from shard2 to shard3, so the fabric carries bulk
    messages and their acks; the machine crashes below lose a dead
    machine's requests at dispatch (``sched.machine_lost``).  The
    chaos plan in ``faults`` crashes two machines (one recovers), loses
    a quarter of the fabric, delays everything leaving shard2,
    partitions shard2↔shard3 for a window, and reorders deliveries into
    shard3 — every cluster fault class at once, all decided by pure
    hashes of ``seed``.  ``scheduler.migrate`` is off, so no cluster
    controller adds traffic.
    """
    from repro.api.schema import (ClusterScenario, ExportDoc, MachineDoc,
                                  SchedulerDoc, TenantDoc)
    from repro.faults.plan import (FabricDelay, FabricLoss, FabricPartition,
                                   FabricReorder, MachineCrash)

    interval_ns = 4_000.0
    requests = max(20, int(duration_ns / interval_ns / 2))
    tenants = []
    for i in range(4):
        tenants.append(TenantDoc(
            name=f"t{i}a", payload=256, interval_ns=interval_ns,
            requests=requests, read_fraction=0.5, send_fraction=0.25,
            slo_p99_ns=60_000.0, seed=seed * 100 + 10 + i,
            machine=f"shard{i}"))
        tenants.append(TenantDoc(
            name=f"t{i}b", payload=4096, interval_ns=interval_ns,
            requests=requests, bulk=True, slo_p99_ns=60_000.0,
            seed=seed * 100 + 20 + i, machine=f"shard{i}",
            export=ExportDoc(to="shard3") if i == 2 else None))
    third, two_thirds = duration_ns / 3, 2 * duration_ns / 3
    chaos = FaultPlan(faults=(
        MachineCrash(shard="shard0", at=third * 0.5, recover_at=two_thirds),
        MachineCrash(shard="shard3", at=two_thirds),
        FabricLoss(rate=0.25),
        FabricDelay(extra_ns=30_000.0, src="shard2"),
        FabricPartition(a="shard2", b="shard3", start=third, end=two_thirds),
        FabricReorder(dst="shard3"),
    ), seed=seed + 7)
    return ClusterScenario(
        name="cluster-fault", duration_ns=duration_ns,
        machines=tuple(MachineDoc(name=f"shard{i}") for i in range(4)),
        tenants=tuple(tenants), scheduler=SchedulerDoc(migrate=False),
        faults=chaos)


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
    """Grade the cluster-chaos determinism contract (three clauses)
    on :func:`cluster_chaos_scenario`, run by
    :func:`~repro.cluster.run_cluster`.

    1. **jobs-identity** — under a plan exercising every cluster fault
       class, ``jobs=4`` (worker processes) is bit-identical to
       ``jobs=1`` (the in-process reference): counts, latencies,
       decision logs and telemetry counters.
    2. **empty-plan-baseline** — an *empty* cluster fault plan, run
       under the default supervisor, is bit-identical to the same
       document with no cluster machinery at all (chaos is
       pay-as-you-go).
    3. **kill-respawn** — a supervised run whose worker is SIGKILLed
       mid-window and respawned from the window-log checkpoint lands on
       exactly the counts and decisions of the unkilled run.
    """
    from dataclasses import replace

    from repro.cluster import run_cluster
    from repro.sim.supervise import SupervisorConfig

    chaotic = cluster_chaos_scenario(duration_ns=duration_ns, seed=seed)
    pristine = replace(chaotic, faults=None)
    clauses = []

    ref = run_cluster(chaotic, jobs=1).serve
    multi = run_cluster(chaotic, jobs=4).serve
    same = _cluster_digest(ref) == _cluster_digest(multi)
    dropped = int(ref.counters.get("cluster.dropped", 0))
    clauses.append((
        "jobs-identity", same,
        "jobs=4 == jobs=1 under full chaos "
        f"({dropped} fabric drops)" if same else
        "jobs=4 diverged from the in-process reference under chaos"))

    baseline = run_cluster(pristine, jobs=1).serve
    empty = run_cluster(replace(chaotic, faults=FaultPlan()), jobs=1,
                        supervisor=SupervisorConfig()).serve
    same = _cluster_digest(baseline) == _cluster_digest(empty)
    clauses.append((
        "empty-plan-baseline", same,
        "empty cluster plan + supervisor == pristine run" if same else
        "an empty cluster plan perturbed the run"))

    killed = run_cluster(chaotic, jobs=4,
                         supervisor=SupervisorConfig(kill_shard="shard2",
                                                     kill_window=3)).serve
    same = (_cluster_digest(multi, counters=False)
            == _cluster_digest(killed, counters=False))
    respawns = int(killed.counters.get("supervisor.respawns", 0))
    clauses.append((
        "kill-respawn", same,
        f"SIGKILL + {respawns} respawn(s) reproduced the unkilled run"
        if same else
        "a respawned worker diverged from the unkilled run"))

    return ClusterCheck(scenario="cluster-fault", clauses=tuple(clauses))
