"""Online path scheduling: a serving runtime over the DES cluster.

The paper ends in *advice* — four offloading rules plus the §4
bandwidth-partitioning rule — and :mod:`repro.core.advisor` applies it
statically to a workload profile.  This package enacts the same advice
as an online control loop, the way a production multi-tenant deployment
would have to:

* :class:`TenantSpec`/:class:`SloSpec` — an open-loop request stream
  (reusing :mod:`repro.workloads`) plus its latency/goodput targets.
* :class:`CompletionRecord` — one finished request, a ``NamedTuple``.
  ``ServingRuntime.completions`` is a
  :class:`CompletionLog`: typed columns whose items
  read back as ``CompletionRecord`` tuples.
* :class:`ServingRuntime` — admits each tenant's stream into the
  simulated cluster through real QPs, with bounded queues
  (backpressure), per-flow re-binding, and token-bucket admission caps.
* :class:`PathPolicy` — the decision function: initial placement via
  the advisor, Fig 11 partition budgets for concurrent ①/② tenants,
  the ``P − N`` cap for path-③ tenants, SLO-violation migrations and
  host-ward failover when the SoC crashes.
* :class:`PathScheduler` — the control loop: ticks on simulated time,
  reads live telemetry and per-tenant windows, applies the policy, and
  attributes every decision (span annotations + a decision log).
* :func:`run_serve` — the one-call engine behind ``Session.serve``
  and ``benchmarks/bench_scheduler.py`` (``repro serve`` steps its
  session in lockstep instead).
"""

from repro.sched.tenant import (CompletionLog, CompletionRecord, SloSpec,
                                TenantSpec)
from repro.sched.slo import SloTracker, WindowStats
from repro.sched.policy import Decision, PathPolicy
from repro.sched.runtime import PathLease, ServingRuntime
from repro.sched.scheduler import PathScheduler
from repro.sched.serve import (
    ServeReport,
    TenantReport,
    mixed_tenant_workload,
    run_serve,
)

__all__ = [
    "CompletionLog",
    "CompletionRecord",
    "Decision",
    "PathLease",
    "PathPolicy",
    "PathScheduler",
    "ServeReport",
    "ServingRuntime",
    "SloSpec",
    "SloTracker",
    "TenantReport",
    "TenantSpec",
    "WindowStats",
    "mixed_tenant_workload",
    "run_serve",
]
