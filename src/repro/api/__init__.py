"""The stable public surface of :mod:`repro`.

Everything a typical user needs rides on two names:

* :class:`Session` — one facade over the characterization toolkit:
  latency/throughput queries and sweeps, the offload advisor, span
  tracing and the online serving runtime, all sharing one testbed and
  one set of run options.
* :class:`RunOptions` — the sweep knob (``profile``) shared by every
  bench, the CLI and the facade.

Deeper modules (:mod:`repro.core`, :mod:`repro.sched`, :mod:`repro.rdma`)
remain importable for power users, but their layouts may shift between
releases; this package's exports are snapshot-tested
(``tests/test_public_api.py``) and deprecations go through warning
shims first.

Usage::

    from repro.api import Session

    session = Session()
    print(session.latency("snic-1", "read", 64).total_us)
    report = session.serve(mixed_tenant_workload())
"""

from repro.api.schema import ClusterScenario, MachineDoc, SchedulerDoc, TenantDoc
from repro.api.session import Session
from repro.core.options import RunOptions

__all__ = ["ClusterScenario", "MachineDoc", "RunOptions", "SchedulerDoc",
           "Session", "TenantDoc"]
