"""Vectorized batch solver: numpy demand tensors + array water-filling.

Every figure artifact is a *sweep* over the operational-law solver, and
the methodology is matrix arithmetic over per-resource demand vectors —
exactly the shape numpy was built for.  This module solves an entire
sweep grid at once:

1. **Demand tensor assembly.**  Points are grouped by *shape* — (path,
   opcode, flow slot, duplex flag, admission-cap presence) — and each
   group's demand columns come from the one demand builder,
   :meth:`repro.core.demand.DemandModel.build`, evaluated on the group's
   payload / requester / range / doorbell arrays, which select the numpy
   namespace (:class:`repro.arrays.NumpyNamespace`).  The scalar
   solver evaluates the same builder on one flow's numbers, so there is
   no second copy of the model here; a new device's demand terms go in
   :mod:`repro.core.demand` and reach both solvers.  A
   :class:`ResourceRegistry` assigns every resource key a stable column
   index, replacing per-point string-keyed dicts with one dense
   ``(points x flows x resources)`` tensor.

2. **Array water-filling.**  Max-min fair-share growth runs across all
   points simultaneously: per-point saturating resources fall out of an
   ``argmin`` over headroom/load rows, flows touching them freeze via
   boolean masks, and the loop ends when every point has frozen (at
   most ``max flows per point`` iterations, regardless of grid size).

The scalar solver remains the reference water-filling and the automatic
fallback: numpy is an *optional* dependency (the ``[fast]`` extra),
imported lazily and never required.  A tensor row equals the scalar
demand dict bit for bit; where the scalar solver breaks delta ties by
hash order and the batch solver by column order, solved rates still
agree (tied resources saturate together).  ``tests/core/test_batch.py``
checks both by hypothesis, and ``tests/core/test_demand_golden.py``
pins the demand model itself.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.core.demand import demand_model
from repro.core.paths import CommPath, Opcode
from repro.core.throughput import Flow, Scenario, SolverResult
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
# Resource registry and the demand tensor
# ---------------------------------------------------------------------------


class ResourceRegistry:
    """Stable resource-key -> column-index mapping for one tensor.

    Indices are assigned in first-seen order, so the same grid always
    produces the same layout; unseen keys simply extend the registry.
    This is the substrate later what-if grids reuse: a column index is
    meaningful across every point of a batch.
    """

    def __init__(self):
        self.index: Dict[str, int] = {}
        self.names: List[str] = []

    def __len__(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        idx = self.index.get(name)
        if idx is None:
            idx = len(self.names)
            self.index[name] = idx
            self.names.append(name)
        return idx


@dataclass
class DemandTensor:
    """A whole sweep grid as dense arrays.

    ``demand[p, f, r]`` is flow ``f``-of-point-``p``'s service demand on
    resource ``r`` (ns per request); absent resources are 0, which the
    water-filling treats identically to a missing dict key.  ``valid``
    masks real flow slots (points may have fewer flows than the widest
    point in the batch).
    """

    demand: Any                  # float64 (points, flows, resources)
    weights: Any                 # float64 (points, flows)
    valid: Any                   # bool    (points, flows)
    registry: ResourceRegistry
    scenarios: List[Scenario] = field(default_factory=list)

    @property
    def resources(self) -> List[str]:
        return self.registry.names


# ---------------------------------------------------------------------------
# Flow groups
# ---------------------------------------------------------------------------

#: Group signature: everything that selects a branch (and therefore a
#: fixed resource-key set) in the demand builder.
_GroupSig = Tuple[CommPath, Opcode, int, bool, bool]


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
# Tensor assembly
# ---------------------------------------------------------------------------


def assemble_demand_tensor(testbed: Testbed,
                           scenarios: Sequence[Scenario]) -> DemandTensor:
    """Build the dense ``(points x flows x resources)`` demand tensor.

    Flows are grouped by shape signature so each group's demand columns
    are produced by a handful of array expressions instead of
    ``len(group)`` scalar dict builds.
    """
    np = require_numpy()
    scenarios = list(scenarios)
    groups: Dict[_GroupSig, List[Tuple[int, Flow]]] = {}
    for p_idx, scenario in enumerate(scenarios):
        duplex = scenario._network_duplex_loaded()
        for s_idx, flow in enumerate(scenario.flows):
            sig = (flow.path, flow.op, s_idx, duplex,
                   flow.rate_cap is not None)
            groups.setdefault(sig, []).append((p_idx, flow))

    model = demand_model(testbed)
    registry = ResourceRegistry()
    built = []
    for sig, members in groups.items():
        path, op, slot, duplex, has_cap = sig
        flows = _FlowColumns(np, [flow for _p, flow in members], has_cap)
        cols = model.build(path, op, slot, duplex, flows)
        for name in cols:
            registry.index_of(name)
        built.append((sig, members, cols))

    n_points = len(scenarios)
    max_flows = max(len(s.flows) for s in scenarios)
    demand = np.zeros((n_points, max_flows, len(registry)), dtype=np.float64)
    weights = np.zeros((n_points, max_flows), dtype=np.float64)
    valid = np.zeros((n_points, max_flows), dtype=bool)
    for sig, members, cols in built:
        slot = sig[2]
        points = np.fromiter((p for p, _f in members), dtype=np.intp,
                             count=len(members))
        for name, arr in cols.items():
            demand[points, slot, registry.index[name]] = arr
        weights[points, slot] = [flow.weight for _p, flow in members]
        valid[points, slot] = True
    return DemandTensor(demand=demand, weights=weights, valid=valid,
                        registry=registry, scenarios=scenarios)


# ---------------------------------------------------------------------------
# Array water-filling
# ---------------------------------------------------------------------------


def waterfill(tensor: DemandTensor):
    """Max-min water-filling over every point of the tensor at once.

    Returns ``(rates, bottlenecks, usage)`` arrays of shapes
    ``(points, flows)``, ``(points, flows)`` (column index, -1 = none)
    and ``(points, resources)``.  The grow-freeze iteration runs at most
    ``max flows per point`` times: every round each unfinished point
    saturates one resource (argmin over headroom/load) and freezes the
    flows that touch it.
    """
    np = require_numpy()
    demand, weights, valid = tensor.demand, tensor.weights, tensor.valid
    n_points, n_flows, _n_res = demand.shape
    rates = np.zeros((n_points, n_flows))
    usage = np.zeros(demand.shape[::2])
    bottlenecks = np.full((n_points, n_flows), -1, dtype=np.intp)
    active = valid.copy()
    alive = active.any(axis=1)
    rows = np.arange(n_points)
    for _ in range(n_flows + 1):
        if not alive.any():
            return rates, bottlenecks, usage
        grown_weight = np.where(active, weights, 0.0)
        load = np.einsum("pf,pfr->pr", grown_weight, demand)
        headroom = np.maximum(0.0, 1.0 - usage)
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = np.where(load > 0.0, headroom / load, np.inf)
        best = np.argmin(delta, axis=1)
        best_delta = delta[rows, best]
        # A point with no loadable resource mirrors the scalar ``break``.
        grow = alive & np.isfinite(best_delta)
        step = np.where(grow, best_delta, 0.0)
        rates += grown_weight * step[:, None]
        usage += step[:, None] * load
        best_demand = demand[rows, :, best]
        freeze = active & (best_demand > 0.0) & grow[:, None]
        bottlenecks = np.where(freeze, best[:, None], bottlenecks)
        active &= ~freeze
        alive = grow & active.any(axis=1)
    raise RuntimeError("water-filling failed to converge")  # pragma: no cover


# ---------------------------------------------------------------------------
# The batch solver
# ---------------------------------------------------------------------------


class BatchSolver:
    """Solve many scenarios as one demand tensor.

    Every point is solved cold: a sweep grid rarely repeats a point,
    so the scalar solver's memo is not consulted here.
    """

    def solve(self, testbed: Testbed, flow_sets: Sequence,
              timings=None) -> List[SolverResult]:
        np = require_numpy()
        from contextlib import nullcontext

        scenarios = [flows if isinstance(flows, Scenario)
                     else Scenario(testbed, list(flows))
                     for flows in flow_sets]
        if not scenarios:
            return []

        def stage(name):
            return timings.stage(name) if timings is not None \
                else nullcontext()

        start = time.perf_counter()
        with stage("demand_assembly"):
            tensor = assemble_demand_tensor(testbed, scenarios)
        self._check_bounded(np, tensor)
        with stage("solve"):
            rates, bottlenecks, usage = waterfill(tensor)
        names = tensor.resources
        # Bulk ndarray -> Python conversions: one pass over the whole
        # grid instead of per-point numpy calls (the per-point loop
        # dominated cold wall-time on wide sweeps).  Points in one
        # sweep share a handful of touched-resource patterns, so the
        # (getter, name-tuple) selector per pattern is built once.
        touched = (tensor.demand > 0).any(axis=1)
        packed = np.packbits(touched, axis=1)
        row_width = packed.shape[1]
        packed_bytes = packed.tobytes()
        selectors: Dict[bytes, Tuple[Any, Tuple[str, ...]]] = {}

        def selector_for(j: int) -> Tuple[Any, Tuple[str, ...]]:
            cols = np.nonzero(touched[j])[0].tolist()
            if not cols:  # unreachable: _check_bounded guards demand
                return (lambda row: (), ())  # pragma: no cover
            if len(cols) == 1:
                getter = operator.itemgetter(cols[0])
                return (lambda row, g=getter: (g(row),), (names[cols[0]],))
            return (operator.itemgetter(*cols),
                    tuple(names[c] for c in cols))

        rates_rows = rates.tolist()
        # Resolve bottleneck indices to names in one fancy-index pass;
        # the -1 "unfrozen" sentinel picks the trailing "" entry.
        name_lookup = np.array(names + [""], dtype=object)
        bneck_rows = name_lookup[bottlenecks].tolist()
        usage_rows = usage.tolist()
        width = rates.shape[1]
        results = []
        for j, scenario in enumerate(scenarios):
            n = len(scenario.flows)
            pattern = packed_bytes[j * row_width:(j + 1) * row_width]
            selector = selectors.get(pattern)
            if selector is None:
                selector = selectors[pattern] = selector_for(j)
            getter, touched_names = selector
            results.append(SolverResult(
                flows=list(scenario.flows),
                rates=rates_rows[j] if n == width else rates_rows[j][:n],
                bottlenecks=(bneck_rows[j] if n == width
                             else bneck_rows[j][:n]),
                utilization=dict(zip(touched_names,
                                     getter(usage_rows[j])))))
        ENGINE_STATS.record("vector", len(scenarios),
                            time.perf_counter() - start)
        return results

    @staticmethod
    def _check_bounded(np, tensor: DemandTensor) -> None:
        """Mirror the scalar guard: every flow must demand something."""
        bounded = (tensor.demand > 0).any(axis=2)
        bad = tensor.valid & ~bounded
        if bad.any():
            point, slot = (int(x) for x in np.argwhere(bad)[0])
            flow = tensor.scenarios[point].flows[slot]
            raise ValueError(f"flow {flow.name!r} has no demand; "
                             "cannot bound its rate")
