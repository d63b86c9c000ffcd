"""The NIC processing cores: verb pipeline, partitioning, HOL blocking.

Two capacity models live here:

* **Verb-op capacity** — how many RDMA work requests per second the NIC
  cores retire.  §4's 0 B microbenchmark shows the pool is mostly shared
  between the host and SoC endpoints with small reserved slices, so
  using both paths concurrently buys 4–13 % (READ) and nothing (WRITE).
  The rates are :class:`~repro.nic.specs.NICCoreSpec` fields
  (``verb_rate_*``) that the throughput solver reads
  (:mod:`repro.core.demand`); this module counts verb slots per request.
* **PCIe DMA pps capacity** — how many TLPs per second the DMA engine
  sustains.  Requests larger than the head-of-line threshold that
  involve a *non-posted* (read) DMA leg collapse this capacity to
  ``hol_pps`` (§3.2 Advice #2, §3.3 Advice #3): the engine stalls
  waiting for storms of small completions.
"""

from __future__ import annotations

import math
from enum import Enum
from repro.nic.specs import NICCoreSpec


class Endpoint(Enum):
    """DMA targets reachable behind the NIC cores."""

    HOST = "host"
    SOC = "soc"


class NICCores:
    """Capacity queries against one NIC's processing cores."""

    def __init__(self, spec: NICCoreSpec):
        self.spec = spec

    # -- verb-op capacity -------------------------------------------------------

    def verb_ops_per_request(self, payload: int) -> int:
        """Network packets (and hence verb pipeline slots) per request."""
        if payload < 0:
            raise ValueError(f"negative payload: {payload}")
        return max(1, math.ceil(payload / self.spec.network_mtu))

    # -- DMA engine capacity -------------------------------------------------------

    def dma_pps_capacity(self, payload: int, nonposted_leg: bool,
                         s2h: bool = False) -> float:
        """TLPs/ns the DMA engine sustains for requests of ``payload``.

        Head-of-line collapse applies when the request exceeds the
        threshold *and* the flow contains a non-posted DMA read leg.
        S2H flows hit PCIe1 first and collapse at a smaller threshold
        (§3.3: "S2H collapses earlier than H2S").
        """
        if payload < 0:
            raise ValueError(f"negative payload: {payload}")
        threshold = (self.spec.hol_threshold_s2h if s2h
                     else self.spec.hol_threshold)
        if nonposted_leg and payload > threshold:
            return self.spec.hol_pps
        return self.spec.pcie_pps

    def hol_collapsed(self, payload: int, nonposted_leg: bool,
                      s2h: bool = False) -> bool:
        """True when this request shape triggers head-of-line blocking."""
        return (self.dma_pps_capacity(payload, nonposted_leg, s2h)
                < self.spec.pcie_pps)
