"""The off-path SmartNIC device, Fig 2(c).

Wiring (matching Bluefield-2, §2.3):

* NIC cores (a full ConnectX-6) sit behind **PCIe1**.
* The host hangs behind **PCIe0**.
* The SoC attaches *directly to the switch* ("not via PCIe", §2.3); its
  traversal costs a switch hop but no extra serialized link.

The negotiated TLP payload size ("PCIe MTU") is a property of the final
endpoint: 512 B when DMA targets host memory, 128 B when it targets SoC
memory (Table 3) — regardless of which links the TLPs cross.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, TYPE_CHECKING

from repro.hw.memory import MemorySubsystem
from repro.hw.pcie.dma import (DmaEngine, Hop, LinkHop, SwitchHop,
                               reverse_route)
from repro.hw.pcie.link import PCIeLink
from repro.hw.pcie.switch import PCIeSwitch
from repro.nic.core import Endpoint, NICCores
from repro.nic.soc import SoC
from repro.nic.specs import SmartNICSpec, HOST_MEMORY

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class SmartNIC:
    """An off-path SmartNIC with its internal fabric."""

    def __init__(self, spec: SmartNICSpec,
                 host_memory: MemorySubsystem = HOST_MEMORY):
        self.spec = spec
        self.cores = NICCores(spec.cores)
        self.host_memory = host_memory
        self.soc = SoC(cpu=spec.soc_cpu, memory=spec.soc_memory,
                       dram_bytes=spec.soc_dram_bytes,
                       doorbell=spec.soc_doorbell)
        # DES members, populated by instantiate():
        self.sim: Optional["Simulator"] = None
        self.pcie1: Optional[PCIeLink] = None
        self.pcie0: Optional[PCIeLink] = None
        self.switch: Optional[PCIeSwitch] = None
        self.dma: Optional[DmaEngine] = None
        # Routes are immutable hop tuples, built once per fabric:
        # endpoint -> (route there, route back), and the path-3 route.
        self._routes: Dict[Endpoint, Tuple[Tuple[Hop, ...],
                                           Tuple[Hop, ...]]] = {}
        self._host_to_soc: Tuple[Hop, ...] = ()

    # -- analytic properties -------------------------------------------------------

    def mps_for(self, endpoint: Endpoint) -> int:
        """Negotiated TLP payload size when DMA targets ``endpoint``."""
        if endpoint is Endpoint.HOST:
            return min(self.spec.host_mps, self.spec.pcie0.mps)
        return self.spec.soc_mps

    def memory_of(self, endpoint: Endpoint) -> MemorySubsystem:
        """The memory subsystem behind ``endpoint``."""
        if endpoint is Endpoint.HOST:
            return self.host_memory
        return self.soc.memory

    def pcie_crossings_to(self, endpoint: Endpoint) -> int:
        """One-way PCIe link traversals from NIC cores to ``endpoint``.

        Host: PCIe1 + PCIe0 = 2.  SoC: PCIe1 only = 1 (the SoC hangs
        off the switch directly), which is why path 2 READ latency is
        "up to 14 %" below path 1 (§3.2).
        """
        return 2 if endpoint is Endpoint.HOST else 1

    def crossing_latency(self, endpoint: Endpoint) -> float:
        """One-way fabric latency (ns) from NIC cores to ``endpoint``."""
        links = self.pcie_crossings_to(endpoint)
        return links * self.spec.link_latency_ns + self.spec.switch_hop_ns

    def doorbell_latency(self, endpoint: Endpoint) -> float:
        """MMIO doorbell cost (ns) from ``endpoint`` to the NIC cores.

        Doorbells are posted writes: only half a fabric traversal is
        latency-visible to the issuing CPU (the other half overlaps with
        the NIC fetching the WQE).  This is the span the tracer labels
        ``doorbell_mmio`` on path ③.
        """
        return 0.5 * self.crossing_latency(endpoint)

    # -- DES wiring ---------------------------------------------------------------------

    def instantiate(self, sim: "Simulator") -> "SmartNIC":
        """Build the simulated internal fabric (links + switch)."""
        self.sim = sim
        self.pcie1 = PCIeLink(sim, self.spec.pcie1,
                              latency=self.spec.link_latency_ns,
                              name=f"{self.spec.name}.pcie1")
        self.pcie0 = PCIeLink(sim, self.spec.pcie0,
                              latency=self.spec.link_latency_ns,
                              name=f"{self.spec.name}.pcie0")
        self.switch = PCIeSwitch(sim, hop_latency=self.spec.switch_hop_ns,
                                 name=f"{self.spec.name}.switch")
        for port in ("nic", "host", "soc"):
            self.switch.add_port(port)
        self.dma = DmaEngine(sim, self.spec.cores.max_read_request)
        # ``forward=True`` on PCIe1 means NIC -> switch; on PCIe0 it
        # means switch -> host.
        to_host = (LinkHop(self.pcie1, forward=True),
                   SwitchHop(self.switch, "nic", "host"),
                   LinkHop(self.pcie0, forward=True))
        to_soc = (LinkHop(self.pcie1, forward=True),
                  SwitchHop(self.switch, "nic", "soc"))
        self._routes = {Endpoint.HOST: (to_host, reverse_route(to_host)),
                        Endpoint.SOC: (to_soc, reverse_route(to_soc))}
        self._host_to_soc = (LinkHop(self.pcie0, forward=False),
                             SwitchHop(self.switch, "host", "nic"),
                             LinkHop(self.pcie1, forward=False),
                             LinkHop(self.pcie1, forward=True),
                             SwitchHop(self.switch, "nic", "soc"))
        return self

    def _require_fabric(self) -> None:
        if self.switch is None:
            raise RuntimeError("instantiate(sim) must be called first")

    def route_to(self, endpoint: Endpoint) -> Tuple[Hop, ...]:
        """Hop route from the NIC cores to ``endpoint``'s memory."""
        self._require_fabric()
        return self._routes[endpoint][0]

    def route_from(self, endpoint: Endpoint) -> Tuple[Hop, ...]:
        """:meth:`route_to` reversed: the way read completions return."""
        self._require_fabric()
        return self._routes[endpoint][1]

    def route_host_to_soc(self) -> Tuple[Hop, ...]:
        """The full path-3 data route: host memory -> NIC -> SoC memory.

        Crosses PCIe1 twice (in and out, §3.3) — the hidden bottleneck.
        """
        self._require_fabric()
        return self._host_to_soc
