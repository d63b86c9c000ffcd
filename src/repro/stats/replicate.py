"""Cross-seed replication of serving scenarios, pooled and cached.

``replicate("adaptive", seeds=5)`` runs the named scenario family once
per seed — serially, or one seed per task on a process pool — and
wraps the reports in a :class:`Replication` that answers
the statistical questions: the cross-seed mean ± CI of any per-tenant
metric, the warm-up-truncated batch-means CI within one run, and the
invariant verdicts over every replicate.

Results are memoised in an :class:`~repro.core.cache.LRUCache` keyed
by ``(family, seed, duration, engine)``, so ``repro validate``
re-running a family it already measured (or the same family under a
second metric) is a dictionary lookup.

The special family ``"broken-counter"`` is the harness's proof that it
can fail: a normal adaptive run whose completion counter is mutated
mid-run, which must trip the flow-conservation and Little's-law
invariants (see ``tests/stats/test_validate.py``).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.cache import LRUCache
from repro.stats.invariants import InvariantResult, check_report
from repro.stats.kernels import Estimate, batch_means, mean_estimate
from repro.stats.warmup import apply_warmup

__all__ = ["REPLICATE_CACHE", "Replication", "replicate",
           "replicate_families", "report_estimate"]

REPLICATE_CACHE = LRUCache(maxsize=256, name="replicate")

#: Per-tenant report metrics :meth:`Replication.estimate` accepts.
METRICS = ("p50_ns", "p99_ns", "goodput_gbps", "slo_goodput_gbps",
           "slo_attainment", "completed", "rejected", "lost")

#: The saboteur's bump — any non-zero value breaks conservation.
_SABOTAGE_BUMP = 7


def replicate_families(duration_ns: float = 600_000.0,
                       seed: int = 0) -> Tuple[str, ...]:
    """Every family :func:`replicate` accepts (standard + injected)."""
    from repro.sim.crosscheck import standard_scenarios

    names = tuple(standard_scenarios(duration_ns=duration_ns, seed=seed))
    return names + ("broken-counter",)


def _run_one(family: str, seed: int, duration_ns: float, engine: str,
             testbed=None):
    from repro.sched.serve import (ServeSession, mixed_tenant_workload,
                                   run_serve)
    from repro.sim.crosscheck import standard_scenarios

    if family == "broken-counter":
        tenants = mixed_tenant_workload(duration_ns=duration_ns, seed=seed)
        session = ServeSession(tenants, adaptive=True, engine=engine,
                               testbed=testbed)
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
    kwargs = dict(families[family])
    factory = kwargs.pop("factory")
    return run_serve(factory(), engine=engine, testbed=testbed, **kwargs)


def report_estimate(report, tenant: str, field: str = "p99_ns",
                    confidence: float = 0.95,
                    warmup_batch: int = 5,
                    max_warmup_fraction: float = 0.5) -> Estimate:
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
        return Estimate(mean=0.0, half_width=float("inf"), n=0,
                        confidence=confidence)
    warm, _result = apply_warmup(series, batch=warmup_batch,
                                 max_fraction=max_warmup_fraction)
    return batch_means(warm, confidence=confidence)


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

    def estimate(self, tenant: str, metric: str,
                 confidence: float = 0.95) -> Estimate:
        """Cross-seed mean ± t-CI of one per-tenant report metric."""
        return mean_estimate(self.values(tenant, metric),
                             confidence=confidence)

    def total_slo_goodput(self, confidence: float = 0.95) -> Estimate:
        """Cross-seed CI on the aggregate SLO-goodput headline."""
        return mean_estimate(
            [r.total_slo_goodput_gbps for r in self.reports],
            confidence=confidence)

    def within_run(self, tenant: str, field: str = "p99_ns",
                   confidence: float = 0.95) -> Estimate:
        """Warm-up-truncated batch-means CI inside the first replicate."""
        return report_estimate(self.reports[0], tenant, field=field,
                               confidence=confidence)

    def invariants(self, testbed=None) -> List[InvariantResult]:
        """The invariant catalog evaluated over every replicate.

        Subjects are qualified with the seed (``alpha@seed1``) so a
        violation names the exact run that produced it.
        """
        out: List[InvariantResult] = []
        for seed, report in zip(self.seeds, self.reports):
            for res in check_report(report, testbed=testbed):
                out.append(InvariantResult(
                    name=res.name, subject=f"{res.subject}@seed{seed}",
                    ok=res.ok, detail=res.detail))
        return out


def replicate(family: str, seeds: Union[int, Sequence[int]] = 3,
              duration_ns: float = 600_000.0, engine: str = "event",
              jobs: int = 0, base_seed: int = 0,
              use_cache: bool = True,
              testbed=None) -> Replication:
    """Run ``family`` once per seed and wrap the runs for estimation.

    ``seeds`` is either a count (replicates at ``base_seed ..
    base_seed + N - 1``) or an explicit sequence.  ``jobs > 1`` runs
    uncached replicates on a process pool, one seed per task.
    Replicates are cached under ``(family, seed, duration,
    engine)`` — cross-seed estimates over a family already validated
    cost nothing.
    """
    if isinstance(seeds, int):
        if seeds < 1:
            raise ValueError(f"need at least one replicate: {seeds}")
        seed_list = tuple(range(base_seed, base_seed + seeds))
    else:
        seed_list = tuple(seeds)
        if not seed_list:
            raise ValueError("need at least one replicate seed")

    keys = {seed: ("replicate", family, seed, duration_ns, engine)
            for seed in seed_list}
    reports: Dict[int, object] = {}
    if use_cache and testbed is None:
        for seed, key in keys.items():
            hit = REPLICATE_CACHE.get(key)
            if hit is not None:
                reports[seed] = hit
    missing = [seed for seed in seed_list if seed not in reports]

    if missing and testbed is not None:
        # Custom testbeds bypass the pool + cache (not content-keyed).
        for seed in missing:
            reports[seed] = _run_one(family, seed, duration_ns, engine,
                                     testbed=testbed)
        missing = []

    if missing:
        tasks = [(family, seed, duration_ns, engine) for seed in missing]
        if jobs > 1 and len(tasks) > 1:
            workers = min(jobs, len(tasks))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                fresh = list(pool.map(_run_one, *zip(*tasks)))
        else:
            fresh = [_run_one(*task) for task in tasks]
        for seed, report in zip(missing, fresh):
            reports[seed] = report
            if use_cache:
                REPLICATE_CACHE.put(keys[seed], report)

    return Replication(family=family, duration_ns=duration_ns,
                       engine=engine, seeds=seed_list,
                       reports=tuple(reports[seed] for seed in seed_list))
