"""The sweep engine: evaluate many model points fast, in-process.

Every figure reproduction is a dense parameter sweep — payload, address
range, doorbell batch or requester count against the latency model or
the throughput solver.  A throughput sweep is a :class:`SweepGrid`: one
path and verb, one swept column, the other flow fields broadcast.
:class:`SweepRunner` is the shared backend, and it picks the solver
backend itself:

* with numpy installed (the ``[fast]`` extra) and at least two points,
  the grid goes to the numpy batch solver (:mod:`repro.core.batch`):
  one demand-builder call over the grid's columns, solved in closed
  form into one rate per point;
* otherwise (one point, or no numpy) each point becomes a
  :class:`~repro.core.throughput.Flow` solved in order by the scalar
  reference solver, whose one-scenario memo
  (:data:`repro.core.throughput.RESULT_CACHE`) answers a point this
  process has already solved on the same testbed.

Both backends return bit-identical rates in identical order, so the
choice only affects wall-time.

Pass a :class:`StageTimings` to collect a per-stage wall-time breakdown
(grid build / demand assembly / solve / aggregate) — the ``sweep
--profile`` measurement hook.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from contextlib import contextmanager, nullcontext
from itertools import repeat
from numbers import Number
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.batch import ENGINE_STATS, BatchSolver, numpy_available
from repro.core.latency import LatencyBreakdown, LatencyModel
from repro.core.paths import CommPath, Opcode
from repro.core.throughput import (
    Flow,
    Scenario,
    ThroughputSolver,
    check_point,
)
from repro.net.topology import Testbed

#: A latency sweep point: (path, op, payload, range_bytes).
LatencyPoint = Tuple[CommPath, Opcode, int, float]


class StageTimings:
    """Accumulated wall-time per named sweep stage.

    Stages nest per call site, not per hierarchy: each ``stage(name)``
    context adds its elapsed time to ``name``'s bucket, so repeated
    sweeps through the same runner accumulate.
    """

    def __init__(self):
        self.seconds: "OrderedDict[str, float]" = OrderedDict()
        self.calls: Dict[str, int] = {}

    def add(self, name: str, seconds: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.calls[name] = self.calls.get(name, 0) + 1

    @contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.add(name, time.perf_counter() - start)

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    def report(self) -> str:
        """A fixed-width per-stage table for ``sweep --profile``."""
        lines = [f"{'stage':<18} {'ms':>10} {'calls':>7} {'share':>7}"]
        total = self.total
        for name, seconds in self.seconds.items():
            share = f"{seconds / total:6.1%}" if total > 0 else "     -"
            lines.append(f"{name:<18} {seconds * 1e3:>10.3f} "
                         f"{self.calls[name]:>7} {share:>7}")
        lines.append(f"{'total':<18} {total * 1e3:>10.3f}")
        return "\n".join(lines)


#: The flow fields a sweep grid can vary, in :class:`Flow`'s order.
GRID_FIELDS = ("payload", "requesters", "range_bytes", "doorbell_batch")


class SweepGrid:
    """A throughput sweep: one-flow points on one path and verb.

    Exactly one of ``payload``, ``requesters``, ``range_bytes`` and
    ``doorbell_batch`` is a sequence, the swept column; the other three
    are numbers broadcast over it (defaults as :class:`Flow`'s).  Every
    point passes :func:`~repro.core.throughput.check_point`, the rule
    set :class:`Flow` applies, when the grid is built.
    """

    __slots__ = ("path", "op", "swept") + GRID_FIELDS

    def __init__(self, path: CommPath, op: Opcode, payload,
                 requesters=Flow.requesters, range_bytes=Flow.range_bytes,
                 doorbell_batch=Flow.doorbell_batch):
        self.path = path
        self.op = op
        fields = {"payload": payload, "requesters": requesters,
                  "range_bytes": range_bytes,
                  "doorbell_batch": doorbell_batch}
        swept = [name for name, value in fields.items()
                 if not isinstance(value, Number)]
        if len(swept) != 1:
            raise ValueError(
                "a sweep grid sweeps exactly one of "
                f"{', '.join(GRID_FIELDS)}; got {', '.join(swept) or 'none'}")
        self.swept = swept[0]
        fields[self.swept] = list(fields[self.swept])
        for name, value in fields.items():
            setattr(self, name, value)
        for point in self.points():
            check_point(*point)

    def __len__(self) -> int:
        return len(getattr(self, self.swept))

    def fields(self) -> Dict[str, object]:
        """The four fields by name: the swept list and three numbers."""
        return {name: getattr(self, name) for name in GRID_FIELDS}

    def points(self) -> Iterator[tuple]:
        """Each point's ``(payload, requesters, range_bytes,
        doorbell_batch)``, in order."""
        return zip(*(value if name == self.swept else repeat(value)
                     for name, value in self.fields().items()))

    def flows(self) -> List[Flow]:
        """One :class:`Flow` per point, in order."""
        return [Flow(self.path, self.op, *point) for point in self.points()]


class SweepRunner:
    """Evaluates sweep points in-process, vectorized when it pays.

    A sweep grid of at least two points runs in closed form on numpy
    when numpy is importable, and point by point through the scalar
    reference solver otherwise (see the module docstring); latency
    points are always evaluated in order.
    """

    def __init__(self, testbed: Testbed,
                 timings: Optional[StageTimings] = None):
        self.testbed = testbed
        self.timings = timings
        self.solver = ThroughputSolver()
        self._latency_model = LatencyModel(testbed)

    def stage(self, name: str):
        """A timing context for ``name`` (no-op without timings)."""
        if self.timings is None:
            return nullcontext()
        return self.timings.stage(name)

    def solve_flows(self, grid: SweepGrid) -> List[float]:
        """The peak rate (requests/ns) of each point of ``grid``."""
        if len(grid) >= 2 and numpy_available():
            return BatchSolver().solve(self.testbed, grid,
                                       timings=self.timings)
        start = time.perf_counter()
        with self.stage("solve"):
            rates = [self.solver.solve(Scenario(self.testbed, [flow]))
                     .rates[0] for flow in grid.flows()]
        ENGINE_STATS.record("scalar", len(rates),
                            time.perf_counter() - start)
        return rates

    def latencies(self, points: Sequence[LatencyPoint]
                  ) -> List[LatencyBreakdown]:
        """Latency breakdowns for (path, op, payload, range) points."""
        model = self._latency_model
        with self.stage("solve"):
            return [model.latency(path, op, payload, range_bytes)
                    for path, op, payload, range_bytes in points]
