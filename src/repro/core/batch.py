"""Vectorized sweep solver: one-flow points in closed form over numpy.

Every throughput figure (Fig 4 lower, Fig 8, Fig 9, the per-path peaks
of Fig 11) is a sweep of one-flow bottleneck questions, and for one
flow max-min water-filling ends after its first round: the flow grows
until its first resource saturates.  With weight ``w`` and demand
``d_k`` on resource ``k``, the saturating resource ``b`` is the first
column with the smallest ``1 / (w d)``; the rate is ``w (1 / (w d_b))``
and resource ``k`` ends at utilization ``(1 / (w d_b)) (w d_k)``.
:class:`BatchSolver` evaluates exactly those expressions, the ones the
reference water-filling's first round evaluates, and both break exact
ties by the demand builder's key order, so its rates, bottleneck names
and utilization dicts (key order included) equal the scalar solver's
bit for bit.

Points are grouped by ``(path, opcode, rate cap present)``, everything
that selects a branch (and so a fixed resource-key set) in the one
demand builder, :meth:`repro.core.demand.DemandModel.build`.  Each
group's demand columns come from that builder evaluated on the group's
payload / requester / range / doorbell arrays, which select the numpy
namespace (:class:`repro.arrays.NumpyNamespace`), and are stacked into
one 2-D ``(points x resources)`` matrix in the builder's key order.
That order alone fixes the tie-break and the key order of every
utilization dict, so a point's answer does not depend on what else
shares its batch.

A point with several flows needs the general iterative water-filling;
:meth:`~repro.core.throughput.Scenario.solve_batch` sends any batch
holding one to the scalar reference solver
(:class:`~repro.core.throughput.ThroughputSolver`), which is also the
path without numpy: numpy is an *optional* dependency (the ``[fast]``
extra), imported lazily and never required.  ``tests/core/test_batch.py``
checks the closed form against the scalar solver, and
``tests/core/test_demand_golden.py`` pins the demand model itself.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from itertools import compress
from typing import Any, Dict, List, Sequence, Tuple

from repro.core.demand import demand_model
from repro.core.paths import CommPath, Opcode
from repro.core.throughput import Flow, SolverResult
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
            "Scenario.solve_batch and sweeps fall back to the scalar "
            "solver on their own")
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
# Flow groups
# ---------------------------------------------------------------------------

#: Group signature: everything that selects a branch (and therefore a
#: fixed resource-key set) in the demand builder for a lone flow.
_GroupSig = Tuple[CommPath, Opcode, bool]


class _FlowColumns:
    """A group's flow fields as float64 arrays, under ``Flow``'s names."""

    __slots__ = ("payload", "requesters", "range_bytes", "doorbell_batch",
                 "rate_cap")

    def __init__(self, np, flows: Sequence[Flow], has_cap: bool):
        def column(values):
            return np.array(values, dtype=np.float64)

        self.payload = column([f.payload for f in flows])
        self.requesters = column([f.requesters for f in flows])
        self.range_bytes = column([f.range_bytes for f in flows])
        self.doorbell_batch = column([f.doorbell_batch for f in flows])
        self.rate_cap = (column([f.rate_cap for f in flows]) if has_cap
                         else None)


# ---------------------------------------------------------------------------
# The batch solver
# ---------------------------------------------------------------------------


class BatchSolver:
    """Solve many one-flow points in closed form, grouped by shape.

    Every point is solved cold: a sweep grid rarely repeats a point,
    so the scalar solver's memo is not consulted here.
    """

    def solve(self, testbed: Testbed, flow_sets: Sequence,
              timings=None) -> List[SolverResult]:
        """One :class:`SolverResult` per entry of ``flow_sets``, in order.

        Each entry is a sequence holding exactly one :class:`Flow`.
        """
        np = require_numpy()
        flows: List[Flow] = []
        for flow_set in flow_sets:
            if len(flow_set) != 1:
                raise ValueError(
                    f"the batch solver takes one flow per point, got "
                    f"{len(flow_set)}; Scenario.solve_batch sends "
                    "multi-flow points to the scalar solver")
            flows.append(flow_set[0])
        if not flows:
            return []

        def stage(name):
            return timings.stage(name) if timings is not None \
                else nullcontext()

        start = time.perf_counter()
        with stage("demand_assembly"):
            groups: Dict[_GroupSig, List[int]] = {}
            for i, flow in enumerate(flows):
                sig = (flow.path, flow.op, flow.rate_cap is not None)
                groups.setdefault(sig, []).append(i)
            model = demand_model(testbed)
            built = []
            for (path, op, has_cap), members in groups.items():
                group = [flows[i] for i in members]
                cols = model.build(path, op, 0, False,
                                   _FlowColumns(np, group, has_cap))
                names = list(cols)
                demand = np.empty((len(group), len(names)))
                for j, name in enumerate(names):
                    demand[:, j] = cols[name]
                built.append((members, group, names, demand))
        results: List[Any] = [None] * len(flows)
        with stage("solve"):
            for members, group, names, demand in built:
                for i, result in zip(members, _closed_form(
                        np, group, names, demand)):
                    results[i] = result
        ENGINE_STATS.record("vector", len(flows),
                            time.perf_counter() - start)
        return results


def _closed_form(np, flows: List[Flow], names: List[str],
                 demand) -> List[SolverResult]:
    """Solve one group: ``demand[p, k]`` is flow ``p``'s ns per request
    on resource ``names[k]``, columns in the demand builder's order."""
    touched = demand > 0.0
    bounded = touched.any(axis=1)
    if not bounded.all():
        flow = flows[int(np.argmin(bounded))]
        raise ValueError(f"flow {flow.name!r} has no demand; "
                         "cannot bound its rate")
    weights = np.array([flow.weight for flow in flows])
    load = weights[:, None] * demand
    with np.errstate(divide="ignore"):  # an unused resource: 1/0 = inf
        delta = 1.0 / load
    best = np.argmin(delta, axis=1)
    step = delta.min(axis=1)
    usage = step[:, None] * load
    # Bulk ndarray -> Python conversions, then plain-Python rows.
    rates = (weights * step).tolist()
    bottlenecks = [names[b] for b in best.tolist()]
    return [SolverResult(flows=[flow], rates=[rate], bottlenecks=[bottleneck],
                         utilization=dict(compress(zip(names, row), mask)))
            for flow, rate, bottleneck, row, mask in zip(
                flows, rates, bottlenecks, usage.tolist(), touched.tolist())]
