"""Vectorized sweep solver: a sweep grid's rate column in closed form.

Every throughput figure (Fig 4 lower, Fig 7, Fig 8, Fig 9, Fig 10b,
the per-path peaks of Fig 11) is a sweep of one-flow bottleneck
questions, and for one flow max-min water-filling ends after its first
round: the flow grows until its first resource saturates.  With weight
``w`` and demand ``d_k`` on resource ``k``, the saturating resource
``b`` is the column with the smallest ``1 / (w d_b)`` and the rate is
``w (1 / (w d_b))``.  A sweep point has weight 1, and division rounds
monotonically, so that rate is exactly ``1 / max_k d_k``, bit for bit
the scalar solver's first-round answer.

:meth:`BatchSolver.solve` takes a :class:`~repro.core.sweeps.SweepGrid`
(one path and verb, one swept column, the other fields broadcast
numbers), evaluates the one demand builder,
:meth:`repro.core.demand.DemandModel.build`, once over the grid's
columns (the float64 payload column picks the numpy namespace,
:class:`repro.arrays.NumpyNamespace`), and returns one rate per point.
It builds no per-point flow, result or utilization dict: bottleneck
names and utilization are the scalar
:class:`~repro.core.throughput.ThroughputSolver`'s answer, which is all
``repro throughput`` and ``repro trace-solve`` print.

:meth:`repro.core.sweeps.SweepRunner.solve_flows` picks this solver
for a grid of two or more points when numpy is importable, and the
scalar solver otherwise: numpy is an *optional* dependency (the
``[fast]`` extra), imported lazily and never required.
``tests/core/test_batch.py`` checks the rate columns against the scalar
solver, and ``tests/core/test_demand_golden.py`` pins the demand model
itself.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from types import SimpleNamespace
from typing import Any, Dict, List

from repro.core.demand import demand_model
from repro.net.topology import Testbed

# ---------------------------------------------------------------------------
# Optional numpy (the [fast] extra) — imported lazily, never required.
# ---------------------------------------------------------------------------

_NUMPY: Any = None
_NUMPY_CHECKED = False


def _load_numpy():
    """The numpy module, or ``None`` when it is not installed."""
    global _NUMPY, _NUMPY_CHECKED
    if not _NUMPY_CHECKED:
        try:
            import numpy
            _NUMPY = numpy
        except ImportError:
            _NUMPY = None
        _NUMPY_CHECKED = True
    return _NUMPY


def _reset_numpy_cache() -> None:
    """Forget the cached import probe (test hook for the no-numpy path)."""
    global _NUMPY, _NUMPY_CHECKED
    _NUMPY = None
    _NUMPY_CHECKED = False


def numpy_available() -> bool:
    """True when the batch solver can run in this interpreter."""
    return _load_numpy() is not None


def require_numpy():
    np = _load_numpy()
    if np is None:
        raise ValueError(
            "the batch solver needs numpy (pip install 'repro[fast]'); "
            "SweepRunner.solve_flows falls back to the scalar solver on "
            "its own")
    return np


# ---------------------------------------------------------------------------
# Engine telemetry
# ---------------------------------------------------------------------------


class EngineStats:
    """Per-backend point counts and solve wall-time, for telemetry.

    Counters are keyed ``engine.<backend>.*`` with backend ``scalar``
    (the reference solver) or ``vector`` (this module).
    """

    def __init__(self):
        self.points: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}
        self.batches: Dict[str, int] = {}

    def record(self, backend: str, points: int, seconds: float) -> None:
        self.points[backend] = self.points.get(backend, 0) + points
        self.seconds[backend] = self.seconds.get(backend, 0.0) + seconds
        self.batches[backend] = self.batches.get(backend, 0) + 1

    def clear(self) -> None:
        self.points.clear()
        self.seconds.clear()
        self.batches.clear()

    def counters(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for backend in sorted(self.points):
            prefix = f"engine.{backend}"
            out[f"{prefix}.points"] = self.points[backend]
            out[f"{prefix}.batches"] = self.batches[backend]
            out[f"{prefix}.solve_s"] = round(self.seconds[backend], 6)
        return out


#: Shared per-process engine accounting, surfaced by repro.telemetry.
ENGINE_STATS = EngineStats()


# ---------------------------------------------------------------------------
# The batch solver
# ---------------------------------------------------------------------------


class BatchSolver:
    """Solve a sweep grid's points in closed form, one rate each.

    Every point is solved cold: a sweep grid rarely repeats a point,
    so the scalar solver's memo is not consulted here.
    """

    def solve(self, testbed: Testbed, grid, timings=None) -> List[float]:
        """The peak rate (requests/ns) of each point of ``grid``, in order."""
        np = require_numpy()
        n = len(grid)
        if not n:
            return []

        def stage(name):
            return timings.stage(name) if timings is not None \
                else nullcontext()

        start = time.perf_counter()
        with stage("demand_assembly"):
            fields = grid.fields()
            fields[grid.swept] = np.array(fields[grid.swept],
                                          dtype=np.float64)
            if grid.swept != "payload":
                # The payload's type picks the demand namespace, so it
                # is a column even when another field is swept.
                fields["payload"] = np.full(n, fields["payload"],
                                            dtype=np.float64)
            terms = demand_model(testbed).build(
                grid.path, grid.op, 0, False,
                SimpleNamespace(rate_cap=None, **fields))
        with stage("solve"):
            peak = np.zeros(n)
            for demand in terms.values():
                np.maximum(peak, demand, out=peak)
            if not peak.all():
                flow = grid.flows()[int(np.argmin(peak))]
                raise ValueError(f"flow {flow.name!r} has no demand; "
                                 "cannot bound its rate")
            rates = (1.0 / peak).tolist()
        ENGINE_STATS.record("vector", n, time.perf_counter() - start)
        return rates
