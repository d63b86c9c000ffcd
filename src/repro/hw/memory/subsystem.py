"""The combined memory subsystem seen by a NIC's DMA engine.

Routes each DMA access to the LLC (when DDIO applies) or to DRAM, and
answers capacity/latency queries for the throughput solver and the DES
latency engine (Fig 6 of the paper: the two access paths).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.arrays import namespace_of
from repro.hw.memory.cache import LLCConfig
from repro.hw.memory.dram import DRAMConfig, DRAMModel


@dataclass(frozen=True)
class MemorySubsystem:
    """One endpoint's memory hierarchy as a DMA target.

    ``ddio`` decides whether inbound DMA may hit the LLC at all; the
    SoC's Cortex-A72 has an LLC but no DDIO-equivalent wired to the NIC,
    so its ``llc`` is bypassed for DMA.
    """

    dram: DRAMConfig
    llc: Optional[LLCConfig] = None
    ddio: bool = False
    name: str = ""

    def __post_init__(self):
        if self.ddio and self.llc is None:
            raise ValueError("DDIO requires an LLC configuration")

    @property
    def model(self) -> DRAMModel:
        return DRAMModel(self.dram)

    def _served_by_llc(self, range_bytes: float) -> bool:
        return (self.ddio and self.llc is not None
                and range_bytes <= self.llc.ddio_capacity)

    def dma_request_capacity(self, op: str, payload: int,
                             range_bytes: float) -> float:
        """Sustainable DMA requests/ns for this access pattern.

        With DDIO and a range that fits the DDIO ways, the LLC absorbs
        the traffic; otherwise DRAM's range-dependent concurrency rules.
        """
        dram = self.model.request_capacity(op, payload, range_bytes)
        if not self.ddio:
            return dram
        return namespace_of(range_bytes).where(
            range_bytes <= self.llc.ddio_capacity,
            self.llc.request_capacity(op, payload), dram)

    def dma_bandwidth(self, op: str, range_bytes: float) -> float:
        """Byte bandwidth available to DMA for this pattern, bytes/ns."""
        if self._served_by_llc(range_bytes):
            return self.llc.bandwidth
        if op not in ("read", "write"):
            raise ValueError(f"unknown op: {op!r}")
        model = self.model
        return model.bandwidth(op, model.banks_engaged(range_bytes))

    def dma_access_latency(self, op: str, range_bytes: float) -> float:
        """Mean latency (ns) of one DMA access for the DES engine."""
        dram = self.model.access_latency(op)
        if not self.ddio:
            return dram
        return namespace_of(range_bytes).where(
            range_bytes <= self.llc.ddio_capacity, self.llc.hit_latency, dram)

    def span_attrs(self, op: str, nbytes: int) -> dict:
        """Attribution attributes for a trace span touching this subsystem.

        Identifies which of Fig 6's two access paths (LLC via DDIO, or
        DRAM) served the access, so latency reports can split memory
        annotations by destination.
        """
        range_bytes = float(max(nbytes, 1))
        served = "llc" if self._served_by_llc(range_bytes) else "dram"
        return {
            "subsystem": self.name,
            "served_by": served,
            "access_ns": self.dma_access_latency(op, range_bytes),
        }
