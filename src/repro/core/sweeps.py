"""The sweep engine: evaluate many model points fast, in-process.

Every figure reproduction is a dense parameter sweep — payload, address
range, doorbell batch or requester count against the latency model or
the throughput solver.  :class:`SweepRunner` is the shared backend, and
it picks the solver backend itself:

* with numpy installed (the ``[fast]`` extra) and at least two
  one-flow points, the whole point list goes to the numpy batch solver
  (:mod:`repro.core.batch`): one demand matrix per (path, op, cap)
  group, solved in closed form;
* otherwise (one point, a multi-flow point, or no numpy) each point is
  solved in order by the scalar reference solver, whose one-scenario
  memo (:data:`repro.core.throughput.RESULT_CACHE`) answers a point
  this process has already solved on the same testbed.

Both backends return bit-identical results in identical order, so the
choice only affects wall-time.

Pass a :class:`StageTimings` to collect a per-stage wall-time breakdown
(grid build / demand assembly / solve / aggregate) — the ``sweep
--profile`` measurement hook.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.latency import LatencyBreakdown, LatencyModel
from repro.core.paths import CommPath, Opcode
from repro.core.throughput import Flow, Scenario, SolverResult, ThroughputSolver
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


class SweepRunner:
    """Evaluates sweep points in-process, vectorized when it pays.

    A solver sweep of at least two one-flow points runs in closed form
    on numpy when numpy is importable, and point by point through the
    scalar reference solver otherwise (see the module docstring);
    latency points are always evaluated in order.
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

    def solve_flows(self, flows: Sequence[Flow]) -> List[SolverResult]:
        """One single-flow scenario per entry, in order."""
        return self.solve_scenarios([flow] for flow in flows)

    def solve_scenarios(self, flow_sets: Sequence) -> List[SolverResult]:
        """One scenario per entry; batched when every entry has one flow."""
        return Scenario.solve_batch(self.testbed, list(flow_sets),
                                    timings=self.timings)

    def latencies(self, points: Sequence[LatencyPoint]
                  ) -> List[LatencyBreakdown]:
        """Latency breakdowns for (path, op, payload, range) points."""
        model = self._latency_model
        with self.stage("solve"):
            return [model.latency(path, op, payload, range_bytes)
                    for path, op, payload, range_bytes in points]
