"""Last-level cache model with Data Direct I/O (DDIO).

DDIO (Intel) lets the NIC's DMA engine read and write the LLC directly
instead of DRAM.  Only a slice of the LLC (two ways by default on Intel
parts) is available to inbound DMA writes, but that slice easily covers
the narrow, skewed ranges that would otherwise thrash a single DRAM
bank.  The ARM SoC on Bluefield-2 lacks the feature (§3.2, Advice #1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arrays import bandwidth_capped
from repro.units import mrps, MB


@dataclass(frozen=True)
class LLCConfig:
    """LLC geometry and DMA-visible service rates.

    * ``size`` — total LLC bytes.
    * ``ddio_way_fraction`` — fraction of the LLC that inbound DMA may
      allocate into (Intel default: 2 of 11-20 ways; ~0.15).
    * ``dma_read_rate`` / ``dma_write_rate`` — requests/ns the cache can
      absorb from the DMA engine; far above anything the NIC can issue,
      so with DDIO the memory side never bottlenecks small requests.
    * ``bandwidth`` — bytes/ns from the cache to the DMA engine.
    """

    size: int = 18 * MB
    ddio_way_fraction: float = 0.15
    dma_read_rate: float = mrps(400.0)
    dma_write_rate: float = mrps(400.0)
    bandwidth: float = 80.0  # bytes/ns
    hit_latency: float = 20.0  # ns

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError(f"LLC size must be positive: {self.size}")
        if not 0 < self.ddio_way_fraction <= 1:
            raise ValueError("DDIO way fraction must be in (0, 1]")

    @property
    def ddio_capacity(self) -> float:
        """Bytes of LLC available to inbound DMA allocations."""
        return self.size * self.ddio_way_fraction

    def request_capacity(self, op: str, payload: int) -> float:
        """Sustainable DMA requests/ns against the cache."""
        if op == "read":
            rate = self.dma_read_rate
        elif op == "write":
            rate = self.dma_write_rate
        else:
            raise ValueError(f"unknown LLC op: {op!r}")
        return bandwidth_capped(rate, self.bandwidth, payload)
