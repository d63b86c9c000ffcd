"""A plain RDMA NIC (ConnectX-style), Fig 2(a)."""

from __future__ import annotations

from typing import Optional, Tuple, TYPE_CHECKING

from repro.hw.memory import MemorySubsystem
from repro.hw.pcie.dma import DmaEngine, Hop, LinkHop, reverse_route
from repro.hw.pcie.link import PCIeLink
from repro.nic.core import NICCores
from repro.nic.specs import RNICSpec, HOST_MEMORY

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class RNIC:
    """An RDMA NIC plugged directly into its host.

    The DMA path to host memory crosses exactly one PCIe link — the
    baseline against which the SmartNIC's "performance tax" (§3.1) is
    measured.
    """

    def __init__(self, spec: RNICSpec, host_memory: MemorySubsystem = HOST_MEMORY):
        self.spec = spec
        self.cores = NICCores(spec.cores)
        self.host_memory = host_memory
        # DES members, populated by instantiate():
        self.sim: Optional["Simulator"] = None
        self.host_link: Optional[PCIeLink] = None
        self.dma: Optional[DmaEngine] = None
        self._to_host: Tuple[Hop, ...] = ()
        self._from_host: Tuple[Hop, ...] = ()

    @property
    def host_mps(self) -> int:
        """Negotiated TLP payload size toward the host."""
        return min(self.spec.host_mps, self.spec.host_link.mps)

    def pcie_crossings_to_host(self) -> int:
        """Physical link traversals between NIC cores and host memory."""
        return 1

    # -- DES wiring ------------------------------------------------------------------

    def instantiate(self, sim: "Simulator") -> "RNIC":
        """Build the simulated PCIe fabric for this NIC."""
        self.sim = sim
        self.host_link = PCIeLink(sim, self.spec.host_link,
                                  latency=self.spec.host_link_latency,
                                  name=f"{self.spec.name}.pcie0")
        self.dma = DmaEngine(sim, self.spec.cores.max_read_request)
        self._to_host = (LinkHop(self.host_link, forward=True),)
        self._from_host = reverse_route(self._to_host)
        return self

    def _require_fabric(self) -> None:
        if self.host_link is None:
            raise RuntimeError("instantiate(sim) must be called first")

    def route_to_host(self) -> Tuple[Hop, ...]:
        """Hop route from the NIC cores to host memory."""
        self._require_fabric()
        return self._to_host

    def route_from_host(self) -> Tuple[Hop, ...]:
        """:meth:`route_to_host` reversed: the way read completions return."""
        self._require_fabric()
        return self._from_host
