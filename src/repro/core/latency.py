"""End-to-end latency composition for each path and verb (Fig 4 upper).

A request's latency is the sum of explicit segments — posting, requester
NIC, network, responder NIC pipeline, the DMA at the responder (where
the SmartNIC "performance tax" lives), the return trip and completion
handling.  The same segments drive both the closed-form model here and
the discrete-event traces, so the two can be cross-checked.

The Fig 3 asymmetry is structural: a READ's DMA is non-posted, so it
waits out the fabric twice (0.6 us extra on Bluefield), while a WRITE's
posted DMA only adds one traversal (0.4 us with the posted-buffer
hand-off; §3.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.paths import CommPath, Opcode
from repro.net.topology import Testbed
from repro.nic.core import Endpoint
from repro.units import GB

# Requester-side completion handling: CQE DMA write + CQ polling.
_COMPLETION_NS = 250.0
# Posted-write hand-off before the responder NIC acks (the 0.1 us that
# makes the paper's WRITE delta 0.4 us rather than one bare traversal).
_POSTED_HANDOFF_NS = 100.0


@dataclass(frozen=True)
class LatencyBreakdown:
    """A latency total plus its named segments (ns each)."""

    segments: Tuple[Tuple[str, float], ...]

    @property
    def total(self) -> float:
        return sum(value for _name, value in self.segments)

    @property
    def total_us(self) -> float:
        return self.total / 1000.0

    def segment(self, name: str) -> float:
        for seg_name, value in self.segments:
            if seg_name == name:
                return value
        raise KeyError(f"no segment named {name!r}")

    def as_dict(self) -> Dict[str, float]:
        return dict(self.segments)


class LatencyModel:
    """Closed-form end-to-end latency for a testbed."""

    def __init__(self, testbed: Testbed):
        self.testbed = testbed

    # -- public API -----------------------------------------------------------------

    def latency(self, path: CommPath, op: Opcode, payload: int,
                range_bytes: float = 10 * GB) -> LatencyBreakdown:
        """Unloaded end-to-end latency of one request."""
        if payload < 0:
            raise ValueError(f"negative payload: {payload}")
        if path.intra_machine:
            return self._path3_latency(path, op, payload, range_bytes)
        return self._client_latency(path, op, payload, range_bytes)

    def posting_latency(self, path: CommPath) -> float:
        """Requester posting latency (Fig 10a), ns."""
        testbed = self.testbed
        if path is CommPath.SNIC3_S2H:
            return testbed.snic.soc.cpu.posting_latency()
        if path is CommPath.SNIC3_H2S:
            return testbed.host_cpu.posting_latency()
        return testbed.client_cpu.posting_latency()

    # -- composition pieces ---------------------------------------------------------

    def _network_one_way(self, payload: int, server_cores) -> float:
        fabric = self.testbed.fabric
        bandwidth = min(fabric.port_bandwidth
                        * self.testbed.client_nic.cores.ports,
                        server_cores.network_bandwidth)
        serialization = payload / bandwidth
        return fabric.one_way_latency() + serialization

    def _responder_dma(self, path: CommPath, op: Opcode, payload: int,
                       range_bytes: float) -> float:
        """Time the responder NIC spends moving payload to/from memory."""
        testbed = self.testbed
        if path is CommPath.RNIC1:
            crossing = testbed.rnic.spec.host_link_latency
            memory = testbed.rnic.host_memory
            bandwidth = testbed.rnic.spec.host_link.bandwidth
        else:
            endpoint = path.ends.responder
            crossing = testbed.snic.crossing_latency(endpoint)
            memory = testbed.snic.memory_of(endpoint)
            bandwidth = testbed.snic.spec.pcie_bandwidth
        serialization = payload / bandwidth
        mem_ns = memory.dma_access_latency(op.memory_op, range_bytes)
        if op is Opcode.READ:
            # Non-posted: request over, completions back (Fig 3).
            return 2 * crossing + mem_ns + serialization
        # Posted: one traversal plus the buffer hand-off.
        return crossing + mem_ns + serialization + _POSTED_HANDOFF_NS

    def _echo_service(self, path: CommPath) -> float:
        """Responder CPU time for a two-sided message."""
        if path.ends.responder is Endpoint.SOC:
            cpu = self.testbed.snic.soc.cpu
        else:
            cpu = self.testbed.host_cpu
        return cpu.two_sided_latency_ns

    # -- per-shape builders -----------------------------------------------------------

    def _client_latency(self, path: CommPath, op: Opcode, payload: int,
                        range_bytes: float) -> LatencyBreakdown:
        testbed = self.testbed
        cores = (testbed.rnic.spec.cores if path is CommPath.RNIC1
                 else testbed.snic.spec.cores)
        pipeline = cores.pipeline_ns
        segments: List[Tuple[str, float]] = [
            ("post", testbed.client_cpu.posting_latency()),
            ("requester_nic", pipeline),
        ]
        out_payload = payload if op is not Opcode.READ else 0
        back_payload = payload if op is Opcode.READ else 0
        segments.append(("network_out",
                         self._network_one_way(out_payload, cores)))
        segments.append(("responder_nic", pipeline))
        if op is Opcode.SEND:
            # Payload lands in a receive buffer; delivery overlaps with
            # the CPU wake-up, so only half the posted-write time shows
            # up end to end (the paper's "not significant" SEND tax).
            segments.append(("responder_dma",
                             0.5 * self._responder_dma(path, op, payload,
                                                       range_bytes)))
            segments.append(("echo_cpu", self._echo_service(path)))
        else:
            segments.append(("responder_dma",
                             self._responder_dma(path, op, payload,
                                                 range_bytes)))
        segments.append(("network_back",
                         self._network_one_way(back_payload, cores)))
        segments.append(("completion", _COMPLETION_NS))
        return LatencyBreakdown(tuple(segments))

    def _path3_latency(self, path: CommPath, op: Opcode, payload: int,
                       range_bytes: float) -> LatencyBreakdown:
        testbed = self.testbed
        snic = testbed.snic
        pipeline = snic.spec.cores.pipeline_ns
        h2s = path is CommPath.SNIC3_H2S
        requester_end = Endpoint.HOST if h2s else Endpoint.SOC
        responder_end = path.ends.responder

        # The doorbell crosses the internal fabric, but MMIO writes are
        # posted, so only part of the traversal is latency-visible.
        doorbell_cross = 0.5 * snic.crossing_latency(requester_end)
        segments: List[Tuple[str, float]] = [
            ("post", self.posting_latency(path) + doorbell_cross),
            ("nic_pipeline", pipeline),
        ]
        if op is Opcode.READ:
            source, sink = responder_end, requester_end
        else:
            source, sink = requester_end, responder_end
        fetch = (2 * snic.crossing_latency(source)
                 + snic.memory_of(source).dma_access_latency(
                     "read", range_bytes)
                 + payload / snic.spec.pcie_bandwidth)
        deliver = (snic.crossing_latency(sink)
                   + snic.memory_of(sink).dma_access_latency(
                       "write", range_bytes)
                   + payload / snic.spec.pcie_bandwidth
                   + _POSTED_HANDOFF_NS)
        segments.append(("fetch_dma", fetch))
        segments.append(("deliver_dma", deliver))
        if op is Opcode.SEND:
            segments.append(("echo_cpu", self._echo_service(path)))
        # CQE travels back to the requester's memory.
        segments.append(("completion",
                         snic.crossing_latency(requester_end)
                         + _COMPLETION_NS))
        return LatencyBreakdown(tuple(segments))
