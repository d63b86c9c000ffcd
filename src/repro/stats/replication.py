"""Cross-seed replication of serving scenarios.

``replicate("adaptive", seeds=5)`` runs the named scenario family once
per seed — serially, or one seed per task on a process pool — and
wraps the reports in a :class:`Replication` that answers
the statistical questions: the cross-seed mean ± CI of any per-tenant
metric, the warm-up-truncated batch-means CI within one run, and the
invariant verdicts over every replicate.

The special family ``"broken-counter"`` is the harness's proof that it
can fail: a normal adaptive run whose completion counter is mutated
mid-run, which must trip the flow-conservation and Little's-law
invariants (see ``tests/stats/test_validate.py``).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

from repro.stats.invariants import InvariantResult, check_report
from repro.stats.kernels import Estimate, batch_means, mean_estimate
from repro.stats.warmup import apply_warmup

__all__ = ["Replication", "replicate", "report_estimate"]

#: Per-tenant report metrics :meth:`Replication.estimate` accepts.
METRICS = ("p50_ns", "p99_ns", "goodput_gbps", "slo_goodput_gbps",
           "slo_attainment", "completed", "rejected", "lost")

#: The saboteur's bump — any non-zero value breaks conservation.
_SABOTAGE_BUMP = 7


def _run_one(family: str, seed: int, duration_ns: float, engine: str):
    from repro.sched.serve import (ServeSession, mixed_tenant_workload,
                                   run_serve)
    from repro.sim.crosscheck import standard_scenarios

    if family == "broken-counter":
        tenants = mixed_tenant_workload(duration_ns=duration_ns, seed=seed)
        session = ServeSession(tenants, adaptive=True, engine=engine)
        session.advance(duration_ns / 2)
        # The injected violation: a completion counter drifts from the
        # event stream.  Flow conservation and Little's law must both
        # catch this; if they ever stop doing so the harness is blind.
        session.tracker.completed["alpha"] += _SABOTAGE_BUMP
        session.run_to_completion()
        return session.finalize()

    families = standard_scenarios(duration_ns=duration_ns, seed=seed)
    if family not in families:
        raise ValueError(f"unknown scenario family {family!r}; choose "
                         f"from {sorted(families) + ['broken-counter']}")
    return run_serve(engine=engine, **families[family])


def report_estimate(report, tenant: str, field: str = "p99_ns") -> Estimate:
    """Within-run batch-means estimate of one tenant's windowed metric.

    Reads the fixed-window archive (``report.windows``), drops the
    MSER-detected initialization transient, and forms a batch-means CI
    over the warm windows.  ``field`` is any :class:`~repro.sched.slo.
    RawWindow` attribute (``p99_ns``, ``p50_ns``, ``goodput_gbps``,
    ``mean_latency_ns``, ...).
    """
    series = [getattr(w, field) for w in report.windows.get(tenant, ())
              if w.count > 0]
    if not series:
        return Estimate(mean=0.0, half_width=float("inf"), n=0)
    warm, _result = apply_warmup(series)
    return batch_means(warm)


@dataclass(frozen=True)
class Replication:
    """N independent replicates of one scenario family."""

    family: str
    duration_ns: float
    engine: str
    seeds: Tuple[int, ...]
    reports: Tuple

    def __post_init__(self):
        if len(self.seeds) != len(self.reports):
            raise ValueError("one report per seed required")

    @property
    def n(self) -> int:
        return len(self.reports)

    def tenant_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self.reports[0].tenants))

    def values(self, tenant: str, metric: str) -> List[float]:
        """The per-seed values of one tenant metric."""
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; choose from "
                             f"{METRICS}")
        return [float(getattr(r.tenants[tenant], metric))
                for r in self.reports]

    def estimate(self, tenant: str, metric: str) -> Estimate:
        """Cross-seed mean ± t-CI of one per-tenant report metric."""
        return mean_estimate(self.values(tenant, metric))

    def total_slo_goodput(self) -> Estimate:
        """Cross-seed CI on the aggregate SLO-goodput headline."""
        return mean_estimate(
            [r.total_slo_goodput_gbps for r in self.reports])

    def within_run(self, tenant: str, field: str = "p99_ns") -> Estimate:
        """Warm-up-truncated batch-means CI inside the first replicate."""
        return report_estimate(self.reports[0], tenant, field=field)

    def invariants(self) -> List[InvariantResult]:
        """The invariant catalog evaluated over every replicate.

        Subjects are qualified with the seed (``alpha@seed1``) so a
        violation names the exact run that produced it.
        """
        out: List[InvariantResult] = []
        for seed, report in zip(self.seeds, self.reports):
            for res in check_report(report):
                out.append(InvariantResult(
                    name=res.name, subject=f"{res.subject}@seed{seed}",
                    ok=res.ok, detail=res.detail))
        return out


def replicate(family: str, seeds: Union[int, Sequence[int]] = 3,
              duration_ns: float = 600_000.0, engine: str = "event",
              jobs: int = 0) -> Replication:
    """Run ``family`` once per seed and wrap the runs for estimation.

    ``seeds`` is either a count (replicates at ``0 .. N - 1``) or an
    explicit sequence.  ``jobs > 1`` runs the replicates on a process
    pool, one seed per task; the reports equal the serial ones.
    """
    if isinstance(seeds, int):
        if seeds < 1:
            raise ValueError(f"need at least one replicate: {seeds}")
        seed_list = tuple(range(seeds))
    else:
        seed_list = tuple(seeds)
        if not seed_list:
            raise ValueError("need at least one replicate seed")

    tasks = [(family, seed, duration_ns, engine) for seed in seed_list]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            reports = tuple(pool.map(_run_one, *zip(*tasks)))
    else:
        reports = tuple(_run_one(*task) for task in tasks)
    return Replication(family=family, duration_ns=duration_ns,
                       engine=engine, seeds=seed_list, reports=reports)
