"""Device spec sheets and calibration constants.

Everything the models need to reproduce the paper's numbers lives here,
in one place.  Constants the paper states directly cite their section;
constants the paper only implies are marked ``calibrated:`` with the
measurement they were fitted to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.arrays import namespace_of
from repro.hw.cpu import (
    ARM_CORTEX_A72,
    CLIENT_XEON_E5_2650,
    CPUSpec,
    HOST_XEON_GOLD_5317,
)
from repro.hw.memory import DRAMConfig, LLCConfig, MemorySubsystem
from repro.hw.pcie.config import PCIE_GEN3, PCIE_GEN4, PCIE_GEN5, PCIeLinkSpec
from repro.units import GB, MB, gbps, mpps


# ---------------------------------------------------------------------------
# Memory subsystems of the three endpoint kinds (Tables 1 and 2).
# ---------------------------------------------------------------------------

# SRV host: 8 channels of DDR4-2933 (~23.4 GB/s each), DDIO enabled.
HOST_MEMORY = MemorySubsystem(
    dram=DRAMConfig(name="host-ddr4-2933", channels=8, peak_bandwidth=23.4),
    llc=LLCConfig(),
    ddio=True,
    name="host",
)

# Bluefield-2 SoC: few DDR4 channels, no DDIO (S3.2 Advice #1).  Table 1
# says "1x 16 GB of DDR4-1600"; Fig 8 shows ~190 Gbps (23.8 GB/s) of READ
# service from SoC memory, which a 12.8 GB/s channel cannot supply, so
# the table figure must be the 1600 MHz clock (3200 MT/s).  We model two
# 3200 MT/s channels at ~85 % efficiency — calibrated so Fig 7's 512 B
# peaks (85 M READ / 77.9 M WRITE reqs/s) and Fig 5's path-2 duplex
# behaviour both land; documented substitution in DESIGN.md.
SOC_MEMORY = MemorySubsystem(
    dram=DRAMConfig(name="soc-ddr4-3200", channels=2, peak_bandwidth=21.76,
                    write_bandwidth_factor=0.92),
    llc=None,
    ddio=False,
    name="soc",
)

# CLI machines: 6 channels of DDR4-1600 (never a bottleneck as clients).
CLIENT_MEMORY = MemorySubsystem(
    dram=DRAMConfig(name="cli-ddr4-1600", channels=6, peak_bandwidth=12.8),
    llc=LLCConfig(),
    ddio=True,
    name="client",
)


# ---------------------------------------------------------------------------
# Doorbell batching cost model (S3.3 Advice #4, Fig 10b).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoorbellCosts:
    """Per-requester posting costs with and without doorbell batching.

    Without batching every request pays ``per_request`` (a pipelined
    MMIO-dominated cost).  With batching, a batch of N costs
    ``batch_fixed + N * per_wqe``: one MMIO plus a NIC DMA fetch of the
    WQE list, whose per-entry cost depends on how fast the NIC can read
    the *requester's* memory — cheap for SoC memory, expensive for host
    memory (which is why DB can hurt at the host side).
    """

    per_request: float   # ns, non-batched pipelined posting cost per core
    batch_fixed: float   # ns, MMIO + DMA-fetch setup per batch
    per_wqe: float       # ns, marginal cost per batched WQE

    def __post_init__(self):
        if min(self.per_request, self.batch_fixed, self.per_wqe) <= 0:
            raise ValueError("doorbell costs must be positive")

    def batched_cost_per_request(self, batch: int) -> float:
        """Amortized per-request cost (ns) at the given batch size."""
        if namespace_of(batch).any(batch < 1):
            raise ValueError(f"batch size must be >= 1: {batch}")
        return self.batch_fixed / batch + self.per_wqe

    def speedup(self, batch: int) -> float:
        """Throughput multiplier of DB at this batch size (<1 = regression)."""
        return self.per_request / self.batched_cost_per_request(batch)


# calibrated: fitted to Fig 10b — DB at the SoC side improves 2.7x at
# batch 16 up to 4.6x at batch 80 (NIC reads SoC memory quickly).
SOC_SIDE_DOORBELL = DoorbellCosts(
    per_request=276.0, batch_fixed=844.0, per_wqe=49.5)

# calibrated: fitted to Fig 10b — DB at the host side *loses* 9 %/7 %/6 %
# at batches 16/32/48 (NIC DMA-reads of host WQEs are slow, S3.1).
HOST_SIDE_DOORBELL = DoorbellCosts(
    per_request=468.0, batch_fixed=384.0, per_wqe=490.0)

# calibrated: client posting to its local NIC; DB brings the paper's
# quoted 2-30 % improvement for RNIC1/SNIC1.
CLIENT_SIDE_DOORBELL = DoorbellCosts(
    per_request=615.0, batch_fixed=900.0, per_wqe=500.0)


# ---------------------------------------------------------------------------
# NIC processing cores.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NICCoreSpec:
    """The RDMA processing pipeline shared by RNIC and SmartNIC.

    Verb-rate partitioning models the S4 observation that a few NIC
    cores are reserved per endpoint while most are shared: path 1 alone
    peaks at ``verb_rate_host_only``, path 2 alone at
    ``verb_rate_soc_only``, and using both concurrently unlocks
    ``verb_rate_concurrent`` (4-13 % above either).
    """

    name: str
    ports: int = 2
    port_gbps: float = 100.0
    # Verb-op capacities for small READs (0 B microbenchmark of S4):
    verb_rate_host_only: float = mpps(195.0)   # S2.1: ">195 Mpps"
    verb_rate_soc_only: float = mpps(157.0)    # calibrated: 352 - 195 = 157 (S4)
    verb_rate_concurrent: float = mpps(210.0)  # calibrated: +4-13 % over alone
    # WRITE processing shows almost no reserved-core effect ("for WRITE,
    # all results are almost the same", S4):
    verb_rate_write_host: float = mpps(195.0)
    verb_rate_write_soc: float = mpps(170.0)   # calibrated: S3.2 "portion of cores"
    verb_rate_write_concurrent: float = mpps(200.0)
    # PCIe DMA engine limits:
    pcie_pps: float = mpps(330.0)              # calibrated: Fig 9b ~320 Mpps
    dma_ops_host: float = mpps(300.0)          # calibrated: RNIC1 small-READ peak
    dma_ops_soc: float = mpps(350.0)           # calibrated: S3.2 "SNIC2 READ even
                                               # observably higher than RNIC1"
    hol_threshold: int = 9 * MB                # S3.2 Advice #2: collapse >9 MB
    hol_threshold_s2h: int = 2 * MB            # calibrated: "S2H collapses earlier"
    hol_pps: float = mpps(120.0)               # Fig 8b: <120 Mpps when collapsed
    # Outstanding-transaction windows (the stall mechanism of S3.1):
    read_slots: int = 130                      # calibrated: SNIC1 READ -19-26 %
    write_buffers: int = 101                   # calibrated: SNIC1 WRITE -15-22 %
    nic_base_ns: float = 200.0                 # per-request pipeline occupancy
    send_derate_snic: float = 0.85             # calibrated: SNIC1 SEND drop (S3.1)
    max_read_request: int = 4096
    # Network framing:
    network_mtu: int = 4096
    net_header_bytes: int = 36                 # LRH+BTH+CRCs per packet
    link_efficiency: float = 0.955             # calibrated: ~190/200 Gbps goodput
    duplex_derate: float = 0.958               # calibrated: READ+WRITE = 364 Gbps
    pipeline_ns: float = 250.0                 # per-request NIC pipeline latency

    def __post_init__(self):
        if self.ports < 1 or self.port_gbps <= 0:
            raise ValueError("invalid port configuration")
        if not 0 < self.link_efficiency <= 1 or not 0 < self.duplex_derate <= 1:
            raise ValueError("efficiencies must be in (0, 1]")

    @property
    def network_bandwidth(self) -> float:
        """Per-direction raw network bandwidth, bytes/ns."""
        return gbps(self.ports * self.port_gbps)

    def network_goodput(self, payload: int) -> float:
        """Achievable single-direction data bandwidth at this payload."""
        if payload <= 0:
            raise ValueError(f"payload must be positive: {payload}")
        per_packet = min(payload, self.network_mtu)
        efficiency = per_packet / (per_packet + self.net_header_bytes)
        return self.network_bandwidth * self.link_efficiency * efficiency


# ---------------------------------------------------------------------------
# Whole devices.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RNICSpec:
    """A plain RDMA NIC plugged straight into the host's PCIe slot."""

    name: str
    cores: NICCoreSpec
    host_link: PCIeLinkSpec = PCIE_GEN4
    host_mps: int = 512
    host_link_latency: float = 125.0  # ns, one traversal  # calibrated


@dataclass(frozen=True)
class SmartNICSpec:
    """An off-path SmartNIC: RNIC cores + SoC + internal PCIe switch."""

    name: str
    cores: NICCoreSpec
    soc_cpu: CPUSpec = ARM_CORTEX_A72
    soc_memory: MemorySubsystem = SOC_MEMORY
    soc_dram_bytes: int = 16 * GB
    pcie1: PCIeLinkSpec = PCIE_GEN4           # NIC cores <-> switch (Table 1)
    pcie0: PCIeLinkSpec = PCIE_GEN4           # switch <-> host
    host_mps: int = 512                        # Table 3
    soc_mps: int = 128                         # Table 3
    switch_hop_ns: float = 175.0               # S3.1: 150-200 ns one way
    link_latency_ns: float = 125.0             # per PCIe link traversal  # calibrated
    switch_derate: float = 0.95                # calibrated: S3 peak 204 Gbps
    soc_doorbell: DoorbellCosts = SOC_SIDE_DOORBELL
    host_doorbell: DoorbellCosts = HOST_SIDE_DOORBELL

    @property
    def pcie_bandwidth(self) -> float:
        """Per-direction nominal internal PCIe bandwidth, bytes/ns."""
        return min(self.pcie1.bandwidth, self.pcie0.bandwidth)


# The devices on the testbed (Table 2) and the Bluefield-3 sketch (S5).

CONNECTX6 = RNICSpec(
    name="connectx-6",
    cores=NICCoreSpec(name="cx6-cores", ports=2, port_gbps=100.0),
)

CONNECTX4 = RNICSpec(
    name="connectx-4",
    cores=NICCoreSpec(name="cx4-cores", ports=1, port_gbps=100.0,
                      verb_rate_host_only=mpps(150.0),
                      verb_rate_concurrent=mpps(150.0),
                      verb_rate_write_host=mpps(150.0),
                      verb_rate_write_concurrent=mpps(150.0)),
    host_link=PCIE_GEN3,
)

BLUEFIELD2 = SmartNICSpec(
    name="bluefield-2",
    cores=NICCoreSpec(name="cx6-cores", ports=2, port_gbps=100.0),
)

# S5: Bluefield-3 keeps the architecture, upgrades NIC (400 Gbps
# ConnectX-7), PCIe 5.0 and SoC cores; our models apply unchanged.
BLUEFIELD3 = SmartNICSpec(
    name="bluefield-3",
    cores=NICCoreSpec(name="cx7-cores", ports=2, port_gbps=200.0,
                      verb_rate_host_only=mpps(390.0),
                      verb_rate_soc_only=mpps(314.0),
                      verb_rate_concurrent=mpps(420.0),
                      verb_rate_write_host=mpps(390.0),
                      verb_rate_write_soc=mpps(340.0),
                      verb_rate_write_concurrent=mpps(400.0),
                      pcie_pps=mpps(660.0),
                      dma_ops_host=mpps(600.0),
                      dma_ops_soc=mpps(700.0)),
    pcie1=PCIE_GEN5,
    pcie0=PCIE_GEN5,
)

# The machines of Table 2, for convenience of the cluster builder.
HOST_CPU = HOST_XEON_GOLD_5317
CLIENT_CPU = CLIENT_XEON_E5_2650
