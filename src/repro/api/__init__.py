"""The declarative scenario schema: :mod:`repro`'s document surface.

:class:`ClusterScenario` describes one rack-scale serving run — its
machines (:class:`MachineDoc`), tenants (:class:`TenantDoc`) and
cluster scheduler (:class:`SchedulerDoc`) — and round-trips through
JSON; a pinned tenant may export traffic to another machine
(:class:`ExportDoc`).  Run one with :func:`repro.cluster.run_cluster` or
``repro serve --cluster <doc.json>``.  The exports are snapshot-tested
(``tests/test_public_api.py``); see docs/api.md.
"""

from repro.api.schema import (ClusterScenario, ExportDoc, MachineDoc,
                              SchedulerDoc, TenantDoc)

__all__ = ["ClusterScenario", "ExportDoc", "MachineDoc", "SchedulerDoc",
           "TenantDoc"]
