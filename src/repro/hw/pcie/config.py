"""PCIe generation / link-width specs.

The paper quotes nominal signalling bandwidth ("PCIe 4.0 x16
(256 Gbps)"), so we follow the same convention: per-lane rates are the
post-encoding data rates (gen3 8 GT/s w/ 128b/130b ~ 8 Gbps usable,
gen4 16 Gbps, gen5 32 Gbps).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.units import gbps


class PCIeGen(Enum):
    """PCIe generation with per-lane usable Gbps."""

    GEN3 = 8.0
    GEN4 = 16.0
    GEN5 = 32.0

    @property
    def gbps_per_lane(self) -> float:
        return self.value


@dataclass(frozen=True)
class PCIeLinkSpec:
    """A physical PCIe link configuration.

    ``mps`` is the endpoint's advertised maximum payload size in bytes
    ("PCIe MTU" in the paper, Table 3); the effective value on a link is
    the minimum of both partners'.
    """

    gen: PCIeGen
    lanes: int
    mps: int = 512
    name: str = ""

    def __post_init__(self):
        if self.lanes not in (1, 2, 4, 8, 16, 32):
            raise ValueError(f"invalid lane count: {self.lanes}")
        if self.mps not in (128, 256, 512, 1024, 2048, 4096):
            raise ValueError(f"invalid MPS: {self.mps}")

    @property
    def raw_gbps(self) -> float:
        """Nominal bandwidth in Gbps, per direction."""
        return self.gen.gbps_per_lane * self.lanes

    @property
    def bandwidth(self) -> float:
        """Nominal bandwidth in bytes/ns, per direction."""
        return gbps(self.raw_gbps)

    def effective_bandwidth(self, tlp_payload: int) -> float:
        """Data bandwidth (bytes/ns) once TLP headers are paid.

        ``tlp_payload`` is the data bytes carried per TLP (usually the
        negotiated MPS).  A 128 B MPS only reaches ~84 % of nominal; a
        512 B MPS reaches ~96 % — the root of the SoC-path ceiling.
        """
        from repro.hw.pcie.tlp import TLP_HEADER_BYTES

        if tlp_payload <= 0:
            raise ValueError(f"TLP payload must be positive: {tlp_payload}")
        efficiency = tlp_payload / (tlp_payload + TLP_HEADER_BYTES)
        return self.bandwidth * efficiency


# Common testbed configurations (Table 2).
PCIE_GEN3 = PCIeLinkSpec(PCIeGen.GEN3, 16, name="pcie3-x16")
PCIE_GEN4 = PCIeLinkSpec(PCIeGen.GEN4, 16, name="pcie4-x16")
PCIE_GEN5 = PCIeLinkSpec(PCIeGen.GEN5, 16, name="pcie5-x16")
