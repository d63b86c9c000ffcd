"""A catalog of SmartNIC spec sheets.

§5 argues the study generalizes: every off-path SmartNIC extends an
RNIC with a SoC behind a PCIe switch, so the models apply with different
constants.  This module ships the known parts (Bluefield-2/3 and a
Broadcom Stingray PS225 sketch); a custom device is a
``dataclasses.replace`` of one of them (``replace(BLUEFIELD2,
soc_mps=512)``) run through the same framework.
"""

from __future__ import annotations

from typing import Dict

from repro.hw.cpu import CPUSpec
from repro.hw.memory import DRAMConfig, MemorySubsystem
from repro.nic.specs import (
    BLUEFIELD2,
    BLUEFIELD3,
    NICCoreSpec,
    SmartNICSpec,
)
from repro.units import GB, mpps, mrps

# Broadcom Stingray PS225 (its product brief): a NetXtreme 100 Gbps RNIC
# plus 8x Cortex-A72 @ 3.0 GHz and one DDR4 channel.  Rates scale from
# Bluefield-2's calibration by the 100/200 Gbps network ratio.
_STINGRAY_CPU = CPUSpec(
    name="stingray-a72",
    sockets=1,
    cores_per_socket=8,
    ghz=3.0,
    wqe_prep_ns=185.0,
    mmio_visible_ns=480.0,
    sustained_post_ns=260.0,
    two_sided_per_core=mrps(4.1),
    two_sided_latency_ns=950.0,
)

_STINGRAY_MEMORY = MemorySubsystem(
    dram=DRAMConfig(name="stingray-ddr4", channels=1, peak_bandwidth=21.76,
                    write_bandwidth_factor=0.92),
    llc=None,
    ddio=False,
    name="stingray-soc",
)

STINGRAY_PS225 = SmartNICSpec(
    name="stingray-ps225",
    cores=NICCoreSpec(
        name="netxtreme-cores", ports=2, port_gbps=50.0,
        verb_rate_host_only=mpps(98.0),
        verb_rate_soc_only=mpps(78.0),
        verb_rate_concurrent=mpps(105.0),
        verb_rate_write_host=mpps(98.0),
        verb_rate_write_soc=mpps(85.0),
        verb_rate_write_concurrent=mpps(100.0),
        pcie_pps=mpps(165.0),
        dma_ops_host=mpps(150.0),
        dma_ops_soc=mpps(175.0),
        read_slots=130,
        write_buffers=101,
    ),
    soc_cpu=_STINGRAY_CPU,
    soc_memory=_STINGRAY_MEMORY,
    soc_dram_bytes=8 * GB,
)

CATALOG: Dict[str, SmartNICSpec] = {
    "bluefield-2": BLUEFIELD2,
    "bluefield-3": BLUEFIELD3,
    "stingray-ps225": STINGRAY_PS225,
}


def lookup(name: str) -> SmartNICSpec:
    """A catalog spec by name."""
    try:
        return CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(CATALOG))
        raise KeyError(f"unknown SmartNIC {name!r}; catalog has: {known}")
