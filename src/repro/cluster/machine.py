"""Machine descriptions for the simulated rack.

A rack mixes machines that carry the paper's off-path SmartNIC
(``"snic"`` — SoC endpoints, all three comm paths, path-③ bulk
offload) with machines that carry a plain RNIC (``"rnic"`` — host-only
termination, no SoC, no bulk path).  Placement must therefore reason
about *per-device* budgets, not just per-path ones: an RNIC machine
can absorb client tenants on path ① but can never host a bulk shipper
or offer path ② relief.
"""

from __future__ import annotations

from dataclasses import dataclass

_NICS = ("snic", "rnic")


@dataclass(frozen=True)
class MachineSpec:
    """One rack machine: a name and the NIC device it carries."""

    name: str
    nic: str = "snic"

    def __post_init__(self):
        if not self.name:
            raise ValueError("machine needs a name")
        if self.nic not in _NICS:
            raise ValueError(f"machine {self.name!r}: unknown nic "
                             f"{self.nic!r}; expected one of {_NICS}")

    @property
    def soc(self) -> bool:
        """Whether the machine has schedulable SoC endpoints."""
        return self.nic == "snic"

