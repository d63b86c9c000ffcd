"""Peak-throughput solver: operational laws over per-request demand vectors.

For every flow (a path + verb + payload + requester set) we compute how
long each hardware resource is busy per request — its *service demand*
in ns.  A resource ``r`` with per-request demand ``u_fr`` serving flows
at rates ``X_f`` (requests/ns) obeys ``sum_f X_f * u_fr <= 1``.  Peak
throughput is found by max-min water-filling: all flows grow together
until a resource saturates, flows using it freeze, the rest keep
growing.  This is the same arithmetic the paper uses in its bottleneck
analyses (§3.3 Advice #3, §4), generalized to all resources at once.

Resources modelled per server NIC:

* per-direction network goodput (wire bytes),
* per-direction PCIe1/PCIe0 wire bytes,
* NIC verb pools — READ: host / SoC / combined; WRITE: the same trio
  (the §4 reserved-core effect),
* NIC DMA transaction issue (host- and SoC-target rates),
* NIC DMA TLP processing, with head-of-line collapse for oversized
  requests with a non-posted small-MTU leg,
* outstanding-transaction windows (read slots / posted-write buffers) —
  the §3.1 "NIC cores stall longer" mechanism,
* endpoint memory subsystems (DDIO vs single-channel DRAM),
* requester posting capacity (clients / host / SoC, with doorbell
  batching) and responder echo CPUs for SEND.

The demand vectors come from one builder,
:meth:`repro.core.demand.DemandModel.build`, evaluated under two array
namespaces (:mod:`repro.arrays`): here on one flow's Python numbers,
and in :mod:`repro.core.batch` on numpy arrays over a group of
same-shaped one-flow points.  A new device's demand terms go in
:mod:`repro.core.demand` once and reach both solvers.  This module
keeps the flow and scenario types, the per-point water-filling
(:class:`ThroughputSolver`) and its one-scenario memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.cache import LRUCache
from repro.core.demand import demand_model
from repro.core.paths import CommPath, Opcode
from repro.net.topology import Testbed
from repro.units import GB, to_gbps

# A direction carrying at least this much payload per request counts as
# "data-loaded" for the full-duplex derating of §3.1/Fig 5.
_DATA_DIRECTION_THRESHOLD = 1024

#: :meth:`ThroughputSolver.solve`'s memo, keyed by ``(testbed, flows)``:
#: the testbed object (a frozen dataclass whose NICs compare by
#: identity, so two separately built testbeds never share an entry)
#: and the tuple of frozen flows.  A hit is the very ``SolverResult``
#: the cold solve returned; treat it as read-only.
RESULT_CACHE = LRUCache(maxsize=1 << 13, name="solver")


@dataclass(frozen=True)
class Flow:
    """One stream of identical RDMA requests on a communication path.

    ``requesters`` counts client *machines* for paths ① and ②, and
    requester *threads* for the intra-machine path ③.  ``range_bytes``
    is the responder-side address range the requests spread over (the
    paper's default is a 10 GB region, §3).
    """

    path: CommPath
    op: Opcode
    payload: int
    requesters: int = 11
    range_bytes: float = 10 * GB
    doorbell_batch: int = 1
    weight: float = 1.0
    rate_cap: Optional[float] = None  # requests/ns; admission-control cap
    label: str = ""

    def __post_init__(self):
        if self.payload < 0:
            raise ValueError(f"negative payload: {self.payload}")
        if self.rate_cap is not None and self.rate_cap <= 0:
            raise ValueError(f"rate cap must be positive: {self.rate_cap}")
        if self.requesters < 1:
            raise ValueError(f"need >= 1 requester: {self.requesters}")
        if self.range_bytes < max(1, self.payload):
            raise ValueError("address range smaller than one payload")
        if self.doorbell_batch < 1:
            raise ValueError(f"bad doorbell batch: {self.doorbell_batch}")
        if self.weight <= 0:
            raise ValueError(f"weight must be positive: {self.weight}")

    @property
    def name(self) -> str:
        return self.label or (
            f"{self.path.label} {self.op.value} {self.payload}B")


class Scenario:
    """A set of flows sharing one testbed's resources.

    Demand vectors are built lazily, so a memo hit never touches them.
    """

    def __init__(self, testbed: Testbed, flows: Sequence[Flow]):
        if not flows:
            raise ValueError("scenario needs at least one flow")
        self.testbed = testbed
        self.flows = list(flows)
        self._demands: Optional[List[Dict[str, float]]] = None

    @property
    def demands(self) -> List[Dict[str, float]]:
        if self._demands is None:
            self._demands = self._build_all()
        return self._demands

    @classmethod
    def solve_batch(cls, testbed: Testbed, flow_sets: Sequence,
                    timings=None) -> List["SolverResult"]:
        """Solve many scenarios at once, one :class:`SolverResult` each.

        ``flow_sets`` is a sequence of flow lists.  When numpy is
        importable, there are at least two of them and each holds one
        flow, they are solved in closed form by the numpy batch solver
        (:mod:`repro.core.batch`); otherwise, and for any batch holding
        a multi-flow point, each goes through the per-point reference
        solver.  Both backends give bit-identical one-flow results, so
        the choice only affects wall-time.
        """
        from repro.core import batch

        if (len(flow_sets) >= 2
                and all(len(flows) == 1 for flows in flow_sets)
                and batch.numpy_available()):
            return batch.BatchSolver().solve(testbed, flow_sets,
                                             timings=timings)
        import time as _time
        from contextlib import nullcontext
        solver = ThroughputSolver()
        scenarios = [cls(testbed, list(flows)) for flows in flow_sets]
        start = _time.perf_counter()
        with (timings.stage("solve") if timings is not None
              else nullcontext()):
            results = [solver.solve(s) for s in scenarios]
        batch.ENGINE_STATS.record("scalar", len(scenarios),
                                  _time.perf_counter() - start)
        return results

    # -- demand construction ------------------------------------------------------

    def _build_all(self) -> List[Dict[str, float]]:
        duplex = self._network_duplex_loaded()
        model = demand_model(self.testbed)
        return [model.build(flow.path, flow.op, idx, duplex, flow)
                for idx, flow in enumerate(self.flows)]

    def _network_duplex_loaded(self) -> bool:
        """True when client-path data flows load both network directions."""
        loaded_c2s = loaded_s2c = False
        for flow in self.flows:
            if not flow.path.uses_network:
                continue
            if flow.payload < _DATA_DIRECTION_THRESHOLD:
                continue
            if flow.op is Opcode.READ:
                loaded_s2c = True
            else:
                loaded_c2s = True
        return loaded_c2s and loaded_s2c


@dataclass
class SolverResult:
    """Per-flow peak rates and the resources that pinned them."""

    flows: List[Flow]
    rates: List[float]                      # requests/ns
    bottlenecks: List[str]                  # resource key per flow
    utilization: Dict[str, float] = field(default_factory=dict)

    def rate_of(self, index: int) -> float:
        """Peak request rate of flow ``index``, requests/ns."""
        return self.rates[index]

    def mrps_of(self, index: int) -> float:
        """Peak request rate, millions of requests per second."""
        return self.rates[index] * 1e3

    def goodput_of(self, index: int) -> float:
        """Payload bandwidth of flow ``index``, bytes/ns."""
        return self.rates[index] * self.flows[index].payload

    def gbps_of(self, index: int) -> float:
        """Payload bandwidth of flow ``index`` in Gbps."""
        return to_gbps(self.goodput_of(index))

    @property
    def total_rate(self) -> float:
        return sum(self.rates)

    @property
    def total_mrps(self) -> float:
        return self.total_rate * 1e3

    @property
    def total_goodput(self) -> float:
        return sum(self.goodput_of(i) for i in range(len(self.flows)))

    @property
    def total_gbps(self) -> float:
        return to_gbps(self.total_goodput)


class ThroughputSolver:
    """Max-min water-filling over a scenario's demand vectors.

    ``solve`` consults :data:`RESULT_CACHE`: one-scenario questions
    repeat (bin-packing asks the same Fig-11 question per tenant and
    machine), and a hit skips demand construction entirely.
    """

    def __init__(self, tolerance: float = 1e-12):
        self.tolerance = tolerance

    def solve(self, scenario: Scenario) -> SolverResult:
        key = (scenario.testbed, tuple(scenario.flows))
        result = RESULT_CACHE.get(key)
        if result is None:
            result = self._solve_cold(scenario)
            RESULT_CACHE.put(key, result)
        return result

    def _solve_cold(self, scenario: Scenario) -> SolverResult:
        flows = scenario.flows
        demands = scenario.demands
        n = len(flows)
        for i, demand in enumerate(demands):
            if not demand:
                raise ValueError(f"flow {flows[i].name!r} has no demand; "
                                 "cannot bound its rate")
        rates = [0.0] * n
        bottlenecks = [""] * n
        usage: Dict[str, float] = {}
        active = set(range(n))

        while active:
            best_delta = math.inf
            best_resource = None
            # First-seen key order: ties break the same way in every
            # process (a set would break them in string-hash order).
            keys = list(dict.fromkeys(k for i in sorted(active)
                                      for k in demands[i]))
            for key in keys:
                load = sum(flows[i].weight * demands[i].get(key, 0.0)
                           for i in active)
                if load <= 0:
                    continue
                headroom = 1.0 - usage.get(key, 0.0)
                delta = max(0.0, headroom) / load
                if delta < best_delta:
                    best_delta = delta
                    best_resource = key
            if best_resource is None:
                break
            # Grow every active flow by its weighted share.
            for i in active:
                rates[i] += flows[i].weight * best_delta
            for key in keys:
                usage[key] = usage.get(key, 0.0) + best_delta * sum(
                    flows[i].weight * demands[i].get(key, 0.0)
                    for i in active)
            # Freeze flows touching the saturated resource.
            frozen = {i for i in active
                      if demands[i].get(best_resource, 0.0) > 0}
            for i in frozen:
                bottlenecks[i] = best_resource
            active -= frozen

        return SolverResult(flows=list(flows), rates=rates,
                            bottlenecks=bottlenecks, utilization=usage)

    def peak(self, testbed: Testbed, flow: Flow) -> SolverResult:
        """Convenience: solve a single-flow scenario."""
        return self.solve(Scenario(testbed, [flow]))

