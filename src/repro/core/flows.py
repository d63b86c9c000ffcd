"""Concurrent communication-path analysis (Fig 5 and §4).

Answers the paper's combination questions: which direction pairings
multiplex on the full-duplex links (READ+WRITE reaching ~2x a single
direction on paths ① and ②, but not on ③), how concurrently using the
host and SoC endpoints unlocks reserved NIC cores, and how much path-③
bandwidth fits beside saturated inter-machine traffic (the
``B③ <= P - N`` rule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.paths import CommPath, Opcode
from repro.core.throughput import Flow, Scenario, SolverResult, ThroughputSolver
from repro.net.topology import Testbed
from repro.units import KB, gbps, to_gbps


@dataclass(frozen=True)
class FlowPattern:
    """A named combination of concurrent flows."""

    name: str
    flows: Sequence[Flow]

    def __post_init__(self):
        if not self.flows:
            raise ValueError("pattern needs at least one flow")


class ConcurrencyAnalyzer:
    """Runs flow combinations through the throughput solver.

    Every combination goes through the scalar water-filling solver
    (and its memo); :meth:`combine_all` only batches a set of one-flow
    combinations.
    """

    def __init__(self, testbed: Testbed,
                 solver: Optional[ThroughputSolver] = None):
        self.testbed = testbed
        self.solver = solver or ThroughputSolver()

    def combine(self, flows: Sequence[Flow]) -> SolverResult:
        """Solve an arbitrary combination of flows."""
        return self.solver.solve(Scenario(self.testbed, flows))

    def combine_all(self, named: Dict[str, Sequence[Flow]]
                    ) -> Dict[str, SolverResult]:
        """Solve several named combinations through ``Scenario.solve_batch``.

        A set holding any multi-flow combination (every Fig-5 and §4
        query here) is solved combination by combination on the scalar
        solver; only all-one-flow sets of two or more go to the numpy
        closed form.  Both give bit-identical numbers.
        """
        results = Scenario.solve_batch(self.testbed, list(named.values()))
        return dict(zip(named.keys(), results))

    # -- Fig 5: direction combinations per path ------------------------------------

    def direction_combinations(self, path: CommPath, payload: int = 4 * KB,
                               requesters: int = 12) -> Dict[str, SolverResult]:
        """The Fig 5(b) bars for one path: READ, WRITE, READ+WRITE.

        Each combination dedicates ``requesters`` machines (or threads,
        for path ③) per flow, mirroring the paper's two-requester setup.
        """
        def flow(op: Opcode) -> Flow:
            return Flow(path=path, op=op, payload=payload,
                        requesters=requesters)

        return self.combine_all({
            "READ": [flow(Opcode.READ)],
            "WRITE": [flow(Opcode.WRITE)],
            "READ+WRITE": [flow(Opcode.READ), flow(Opcode.WRITE)],
        })

    # -- §4: concurrent endpoints (①+②) --------------------------------------------

    def concurrent_endpoints(self, op: Opcode, payload: int = 0,
                             requesters_each: int = 6) -> Dict[str, SolverResult]:
        """Path ① and path ② alone versus concurrently (the Fig 11 setup)."""
        flow1 = Flow(path=CommPath.SNIC1, op=op,
                     payload=payload, requesters=requesters_each)
        flow2 = Flow(path=CommPath.SNIC2, op=op,
                     payload=payload, requesters=requesters_each)
        return self.combine_all({
            "SNIC1 alone": [flow1],
            "SNIC2 alone": [flow2],
            "SNIC1+2": [flow1, flow2],
        })

    def concurrent_endpoint_budgets(self, op: Opcode, payload: int = 0,
                                    requesters_each: int = 6
                                    ) -> Dict[CommPath, float]:
        """Per-path Mrps budgets when ① and ② run concurrently.

        This is the Fig 11 partition: host- and SoC-terminated traffic
        share one NIC-core pool, so the concurrent aggregate (~210 Mrps
        on the paper's testbed) sits a few percent above the best single
        path — far below the 352 Mrps sum of the solo peaks.  A planner
        that books each path at its solo peak double-counts the shared
        cores; these budgets are what each path actually gets.
        """
        flow1 = Flow(path=CommPath.SNIC1, op=op, payload=payload,
                     requesters=requesters_each)
        flow2 = Flow(path=CommPath.SNIC2, op=op, payload=payload,
                     requesters=requesters_each)
        result = self.combine([flow1, flow2])
        return {CommPath.SNIC1: result.mrps_of(0),
                CommPath.SNIC2: result.mrps_of(1)}

    # -- §4: inter- + intra-machine (①+③) --------------------------------------------

    def path3_interference(self, op: Opcode, payload: int = 64,
                           client_machines: int = 5,
                           host_threads: int = 24) -> Dict[str, SolverResult]:
        """Path ① alone versus path ① with concurrent H2S traffic."""
        # The NIC arbitrates in favour of inter-machine traffic; the
        # intra-machine flow grows at a fraction of the rate (calibrated
        # against the 7-15 % READ interference of S4).
        inter = Flow(path=CommPath.SNIC1, op=op, payload=payload,
                     requesters=client_machines)
        intra = Flow(path=CommPath.SNIC3_H2S, op=op, payload=payload,
                     requesters=host_threads, weight=0.2)
        return self.combine_all({
            "SNIC1 alone": [inter],
            "SNIC1 + SNIC3(H2S)": [inter, intra],
        })

    # -- §4: the bandwidth partitioning rule -----------------------------------------

    def path3_budget_gbps(self) -> float:
        """The nominal spare budget for path ③: ``P - N`` Gbps (§4).

        ``P`` is the internal PCIe per-direction limit, ``N`` the network
        limit; on the paper's testbed 256 - 200 = 56 Gbps.
        """
        spec = self.testbed.snic.spec
        pcie = to_gbps(spec.pcie_bandwidth)
        network = to_gbps(spec.cores.network_bandwidth)
        return max(0.0, pcie - network)

    def aggregate_with_budgeted_path3(self, path3_gbps: Optional[float] = None,
                                      payload: int = 4 * KB) -> SolverResult:
        """§4's 456 Gbps experiment: ① READ + ① WRITE saturating the NIC
        in both directions, plus path ③ admission-limited to its budget.
        """
        if path3_gbps is None:
            path3_gbps = self.path3_budget_gbps()
        if path3_gbps < 0:
            raise ValueError(f"negative budget: {path3_gbps}")
        flows: List[Flow] = [
            Flow(path=CommPath.SNIC1, op=Opcode.READ, payload=payload,
                 requesters=10),
            Flow(path=CommPath.SNIC1, op=Opcode.WRITE, payload=payload,
                 requesters=10),
        ]
        if path3_gbps > 0:
            cap = gbps(path3_gbps) / payload  # requests/ns
            flows.append(Flow(path=CommPath.SNIC3_H2S, op=Opcode.WRITE,
                              payload=payload, requesters=24,
                              rate_cap=cap))
        return self.combine(flows)
