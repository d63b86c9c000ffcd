"""``repro.stats``: the statistical rigor layer.

Four pieces, layered so the rest of the toolkit can depend on the
kernels without dragging in the serving stack:

* :mod:`repro.stats.kernels` — :class:`Estimate` (mean ± CI),
  Student-t quantiles, batch-means intervals, order-statistic
  quantiles.  Pure stdlib, no repro imports.
* :mod:`repro.stats.warmup` — MSER initialization-transient
  truncation for window series.
* :mod:`repro.stats.invariants` — the machine-checked catalog: flow
  conservation, Little's law, utilization ≤ capacity, report sanity.
* :mod:`repro.stats.replicate` / :mod:`repro.stats.validate` —
  cross-seed replication (serial or pooled) and the ``repro validate``
  verification report.  Imported lazily (PEP 562) because they reach
  into :mod:`repro.sched` and :mod:`repro.sim`, which themselves use
  the kernels.
"""

from repro.stats.invariants import InvariantResult, check_report, violations
from repro.stats.kernels import (
    Estimate,
    agreement,
    batch_means,
    mean_estimate,
    quantile,
    student_t_cdf,
    student_t_ppf,
)
from repro.stats.warmup import WarmupResult, apply_warmup, mser_truncation

__all__ = [
    "Estimate",
    "InvariantResult",
    "Replication",
    "ValidationRow",
    "VerificationReport",
    "WarmupResult",
    "agreement",
    "apply_warmup",
    "batch_means",
    "check_report",
    "mean_estimate",
    "mser_truncation",
    "quantile",
    "replicate",
    "report_estimate",
    "run_validation",
    "student_t_cdf",
    "student_t_ppf",
    "violations",
]

_LAZY = {
    "Replication": "repro.stats.replicate",
    "replicate": "repro.stats.replicate",
    "report_estimate": "repro.stats.replicate",
    "ValidationRow": "repro.stats.validate",
    "VerificationReport": "repro.stats.validate",
    "run_validation": "repro.stats.validate",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.stats' has no attribute "
                             f"{name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
