"""PCIe substrate: TLPs, links, switch, DMA, MMIO.

The key facts the paper's analysis rests on, all modelled here:

* A PCIe *memory write* is **posted** — no completion travels back
  (Fig 3: WRITE omits the completion).
* A PCIe *memory read* is **non-posted** — a small request TLP goes out
  and the data returns as completion TLPs, so a READ crosses the link
  twice.
* Payloads are segmented into TLPs no larger than the negotiated
  **Maximum Payload Size** (called "PCIe MTU" in the paper, Table 3):
  512 B toward the host, 128 B toward the wimpy SoC endpoint.
* Every switch hop adds 150-200 ns one way (§3.1).
"""

from repro.hw.pcie.tlp import (
    TLP_HEADER_BYTES,
    TLP_READ_REQUEST_BYTES,
    TlpKind,
    Tlp,
    segment_count,
    segment_sizes,
    wire_bytes,
)
from repro.hw.pcie.config import PCIeGen, PCIeLinkSpec, PCIE_GEN3, PCIE_GEN4, PCIE_GEN5
from repro.hw.pcie.link import PCIeLink
from repro.hw.pcie.switch import PCIeSwitch, SwitchPort
from repro.hw.pcie.mmio import MMIOModel
from repro.hw.pcie.dma import DmaEngine

__all__ = [
    "TLP_HEADER_BYTES",
    "TLP_READ_REQUEST_BYTES",
    "TlpKind",
    "Tlp",
    "segment_count",
    "segment_sizes",
    "wire_bytes",
    "PCIeGen",
    "PCIeLinkSpec",
    "PCIE_GEN3",
    "PCIE_GEN4",
    "PCIE_GEN5",
    "PCIeLink",
    "PCIeSwitch",
    "SwitchPort",
    "MMIOModel",
    "DmaEngine",
]
