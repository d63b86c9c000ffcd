"""Measurement harnesses: parameter sweeps over the models and the DES.

These drive the same experiments the paper runs: latency per payload and
path (Fig 4 upper), peak throughput per payload (Fig 4 lower), address-
range sweeps (Fig 7), payload sweeps into the collapse region (Fig 8/9),
doorbell-batch sweeps (Fig 10b) and requester scaling (Fig 11).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.latency import LatencyModel
from repro.core.packets import PacketCountModel
from repro.core.paths import CommPath, Opcode
from repro.core.report import format_table
from repro.core.sweeps import SweepRunner
from repro.core.throughput import Flow, Scenario, SolverResult, ThroughputSolver
from repro.net.topology import Testbed
from repro.nic.core import Endpoint
from repro.sim import Simulator
from repro.stats.kernels import Estimate, mean_estimate
from repro.units import GB, fmt_size, to_gbps


@dataclass(frozen=True)
class Measurement:
    """One measured point."""

    name: str
    value: float
    unit: str

    def __str__(self) -> str:
        return f"{self.name}: {self.value:g} {self.unit}"


@dataclass
class Sweep:
    """A parameter sweep: (x, measurement) points plus formatting."""

    parameter: str
    unit: str
    points: List[Tuple[float, Measurement]]

    def xs(self) -> List[float]:
        return [x for x, _m in self.points]

    def values(self) -> List[float]:
        return [m.value for _x, m in self.points]

    def value_at(self, x: float) -> float:
        for px, measurement in self.points:
            if px == x:
                return measurement.value
        # Range/ratio sweeps carry computed floats; exact equality on
        # the x-coordinate would raise spurious KeyErrors.
        for px, measurement in self.points:
            if math.isclose(px, x, rel_tol=1e-9, abs_tol=1e-12):
                return measurement.value
        raise KeyError(f"no point at {self.parameter}={x}")

    def table(self, title: str = "") -> str:
        unit = self.points[0][1].unit if self.points else ""
        rows = [(fmt_size(x) if self.unit == "bytes" else x, m.value)
                for x, m in self.points]
        return format_table([self.parameter, unit], rows, title=title)


class LatencyBench:
    """Model-based latency sweeps with DES cross-validation."""

    def __init__(self, testbed: Testbed, runner: Optional[SweepRunner] = None):
        self.testbed = testbed
        self.model = LatencyModel(testbed)
        self.runner = runner if runner is not None else SweepRunner(testbed)

    def payload_sweep(self, path: CommPath, op: Opcode,
                      payloads: Sequence[int]) -> Sweep:
        """End-to-end latency (us) versus payload."""
        with self.runner.stage("grid_build"):
            grid = [(path, op, payload, 10 * GB) for payload in payloads]
        breakdowns = self.runner.latencies(grid)
        with self.runner.stage("aggregate"):
            points = [
                (payload, Measurement(
                    f"{path.label} {op.value}", breakdown.total_us, "us"))
                for payload, breakdown in zip(payloads, breakdowns)]
        return Sweep("payload", "bytes", points)

    def simulate_dma_latency(self, path: CommPath, op: Opcode,
                             payload: int) -> float:
        """DES-measured responder-side DMA time (ns) for cross-checks.

        Replays the Fig 3 execution flow on the instantiated fabric and
        reports how long the DMA engine is occupied.
        """
        sim = Simulator()
        snic = self.testbed.snic.__class__(self.testbed.snic.spec)
        snic.instantiate(sim)
        endpoint = path.ends.responder
        if path.intra_machine:
            route = snic.route_host_to_soc()
            mps = snic.mps_for(Endpoint.SOC)
        else:
            route = snic.route_to(endpoint)
            mps = snic.mps_for(endpoint)
        if op is Opcode.READ:
            done = snic.dma.dma_read(route, payload, mps)
        else:
            done = snic.dma.dma_write(route, payload, mps)
        sim.run()
        assert done.processed
        return sim.now

    def dma_model_agreement(self, path: CommPath, op: Opcode,
                            payloads: Sequence[int]) -> Estimate:
        """DES-vs-model DMA disagreement across payloads, as mean ± CI.

        For each payload the DES replays the responder's DMA on the
        instantiated fabric (:meth:`simulate_dma_latency`) and is
        compared against the closed-form model's ``responder_dma``
        segment.  Both are deterministic per point, so the statistical
        statement is across the payload grid: the mean relative error
        with a Student-t interval — what ``repro validate`` gates the
        Fig-4 cross-check on, instead of a single-payload point.
        """
        errors = []
        for payload in payloads:
            des_ns = self.simulate_dma_latency(path, op, payload)
            breakdown = self.model.latency(path, op, payload, 10 * GB)
            model_ns = breakdown.as_dict().get("responder_dma", 0.0)
            errors.append(abs(des_ns - model_ns) / max(model_ns, 1e-9))
        return mean_estimate(errors)


class ThroughputBench:
    """Solver-based peak-throughput sweeps.

    All sweeps evaluate their points through a :class:`SweepRunner`,
    which solves a whole sweep in closed form on numpy when numpy is
    installed and point by point otherwise.
    """

    def __init__(self, testbed: Testbed, runner: Optional[SweepRunner] = None):
        self.testbed = testbed
        self.runner = runner if runner is not None else SweepRunner(testbed)
        self.solver = self.runner.solver
        self.packets = PacketCountModel(testbed.snic.spec)

    def _peak(self, flow: Flow) -> SolverResult:
        return self.solver.solve(Scenario(self.testbed, [flow]))

    def _peaks(self, flows: Sequence[Flow]) -> List[SolverResult]:
        return self.runner.solve_flows(flows)

    def payload_sweep(self, path: CommPath, op: Opcode,
                      payloads: Sequence[int], requesters: int = 11,
                      metric: str = "mrps") -> Sweep:
        """Peak throughput versus payload (Fig 4 lower / Fig 8a / 9a).

        ``metric`` is ``"mrps"`` (requests) or ``"gbps"`` (payload
        bandwidth).
        """
        if metric == "mrps":
            unit, value_of = "Mreqs/s", SolverResult.mrps_of
        elif metric == "gbps":
            unit, value_of = "Gbps", SolverResult.gbps_of
        else:
            raise ValueError(f"unknown metric: {metric!r}")
        with self.runner.stage("grid_build"):
            grid = [Flow(path=path, op=op, payload=payload,
                         requesters=requesters) for payload in payloads]
        results = self._peaks(grid)
        with self.runner.stage("aggregate"):
            label = f"{path.label} {op.value}"
            points = [(payload, Measurement(label, value_of(result, 0), unit))
                      for payload, result in zip(payloads, results)]
        return Sweep("payload", "bytes", points)

    def pps_sweep(self, path: CommPath, op: Opcode,
                  payloads: Sequence[int], requesters: int = 11,
                  scope: str = "nic") -> Sweep:
        """PCIe packet throughput versus payload (Fig 8b / 9b).

        ``scope="nic"`` counts TLPs on the NIC's own PCIe port (the
        Fig 8b metric); ``scope="fabric"`` counts every TLP crossing
        PCIe1 and PCIe0 (the hardware-counter view of Fig 9b).
        """
        if scope not in ("nic", "fabric"):
            raise ValueError(f"unknown scope: {scope!r}")
        with self.runner.stage("grid_build"):
            grid = [Flow(path=path, op=op, payload=payload,
                         requesters=requesters) for payload in payloads]
        results = self._peaks(grid)
        with self.runner.stage("aggregate"):
            points = []
            for payload, result in zip(payloads, results):
                counts = self.packets.counts(path, op, payload)
                if scope == "nic":
                    tlps = (counts.pcie0_total if path is CommPath.RNIC1
                            else counts.pcie1_total)
                else:
                    tlps = counts.total
                mpps = result.rate_of(0) * tlps * 1e3
                points.append((payload, Measurement(
                    f"{path.label} {op.value} PCIe pps", mpps, "Mpps")))
        return Sweep("payload", "bytes", points)

    def range_sweep(self, path: CommPath, op: Opcode, payload: int,
                    ranges: Sequence[float], requesters: int = 11) -> Sweep:
        """Peak request rate versus responder address range (Fig 7)."""
        with self.runner.stage("grid_build"):
            grid = [Flow(path=path, op=op, payload=payload,
                         requesters=requesters, range_bytes=range_bytes)
                    for range_bytes in ranges]
        results = self._peaks(grid)
        with self.runner.stage("aggregate"):
            points = [
                (range_bytes, Measurement(
                    f"{path.label} {op.value}", result.mrps_of(0),
                    "Mreqs/s"))
                for range_bytes, result in zip(ranges, results)]
        return Sweep("range", "bytes", points)

    def requester_sweep(self, path: CommPath, op: Opcode, payload: int,
                        machine_counts: Sequence[int]) -> Sweep:
        """Peak rate versus number of requester machines (Fig 11)."""
        with self.runner.stage("grid_build"):
            grid = [Flow(path=path, op=op, payload=payload,
                         requesters=machines)
                    for machines in machine_counts]
        results = self._peaks(grid)
        with self.runner.stage("aggregate"):
            points = [
                (machines, Measurement(
                    f"{path.label} {op.value}", result.mrps_of(0),
                    "Mreqs/s"))
                for machines, result in zip(machine_counts, results)]
        return Sweep("machines", "count", points)

    def doorbell_sweep(self, path: CommPath, op: Opcode, payload: int,
                       batches: Sequence[int], requesters: int = 24) -> Sweep:
        """Throughput versus doorbell batch size (Fig 10b)."""
        with self.runner.stage("grid_build"):
            grid = [Flow(path=path, op=op, payload=payload,
                         requesters=requesters, doorbell_batch=batch)
                    for batch in batches]
        results = self._peaks(grid)
        with self.runner.stage("aggregate"):
            points = [
                (batch, Measurement(
                    f"{path.label} {op.value} DB={batch}",
                    result.mrps_of(0), "Mreqs/s"))
                for batch, result in zip(batches, results)]
        return Sweep("batch", "count", points)
