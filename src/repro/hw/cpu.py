"""CPU models for the three processor types on the testbed (Table 2).

What matters to the paper is not general-purpose IPC but three
network-facing capabilities:

* how fast cores *post* work requests to a NIC (WQE preparation plus the
  MMIO doorbell — §3.3, Fig 10a),
* how fast cores *serve* two-sided messages (the echo responder of the
  Fig 4 SEND/RECV rows), and
* how many cores there are (the SoC's eight A72 cores are the reason
  SEND/RECV "drops by up to 64 %" on path ②).

Per-core rates are calibration constants (marked ``calibrated:``) chosen
so the aggregate numbers land on the paper's measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import gib_per_s, mrps

#: Host-relay copy throughput, GiB/s: a request the host serves in the
#: SoC's stead (degraded locally, or relayed from another machine) is
#: a memcpy through host DRAM instead of a DMA hop to SoC memory.
RELAY_GIBPS = 16.0


@dataclass(frozen=True)
class CPUSpec:
    """One processor complex (all sockets of a machine, or the SoC)."""

    name: str
    sockets: int
    cores_per_socket: int
    ghz: float
    wqe_prep_ns: float        # building one WQE in memory
    mmio_visible_ns: float    # one observable doorbell write to the local NIC
    sustained_post_ns: float  # pipelined per-request posting cost, per core
    two_sided_per_core: float # UD echo msgs/ns per core (rx + tx + app)
    two_sided_latency_ns: float = 400.0  # unloaded service latency of one msg

    def __post_init__(self):
        if self.sockets < 1 or self.cores_per_socket < 1:
            raise ValueError("sockets and cores must be >= 1")
        if min(self.wqe_prep_ns, self.mmio_visible_ns,
               self.sustained_post_ns) <= 0:
            raise ValueError("per-op costs must be positive")
        if self.two_sided_per_core <= 0:
            raise ValueError("two-sided rate must be positive")
        if self.two_sided_latency_ns <= 0:
            raise ValueError("two-sided latency must be positive")

    @property
    def total_cores(self) -> int:
        return self.sockets * self.cores_per_socket

    def posting_latency(self) -> float:
        """Unpipelined latency (ns) of posting one request (Fig 10a)."""
        return self.wqe_prep_ns + self.mmio_visible_ns

    def issue_capacity(self, threads: int = None) -> float:
        """Sustained one-sided posting rate (reqs/ns) with ``threads`` cores.

        Posting pipelines across the store buffer, so the sustained
        per-request cost is below the unpipelined posting latency.
        """
        threads = self._clamp_threads(threads)
        return threads / self.sustained_post_ns

    def echo_capacity(self, threads: int = None) -> float:
        """Two-sided echo service rate (msgs/ns) with ``threads`` cores."""
        threads = self._clamp_threads(threads)
        return threads * self.two_sided_per_core

    def _clamp_threads(self, threads: int = None) -> int:
        if threads is None:
            return self.total_cores
        if threads < 1:
            raise ValueError(f"thread count must be >= 1: {threads}")
        return min(threads, self.total_cores)


def relay_service_ns(cpu: CPUSpec, nbytes: int) -> float:
    """Host-relay service time (ns) of one request: ``cpu``'s two-sided
    dispatch plus a copy of ``nbytes`` (at least one) at
    :data:`RELAY_GIBPS`."""
    return cpu.two_sided_latency_ns + max(1, nbytes) / gib_per_s(RELAY_GIBPS)


# Table 2 SRV host CPU: 2x Intel Xeon Gold 5317 (12 cores, 3.6 GHz).
HOST_XEON_GOLD_5317 = CPUSpec(
    name="xeon-gold-5317",
    sockets=2,
    cores_per_socket=12,
    ghz=3.6,
    wqe_prep_ns=80.0,          # calibrated
    mmio_visible_ns=350.0,     # calibrated: host -> NIC behind PCIe0+switch
    sustained_post_ns=468.0,   # calibrated: 24 threads -> 51.2 M reqs/s (S3 H2S)
    two_sided_per_core=mrps(3.625),  # calibrated: 24 cores -> 87 Mpps (S2.1)
    two_sided_latency_ns=300.0,      # calibrated
)

# Table 2 CLI client CPU: 2x Intel Xeon E5-2650 v4 (12 cores, 2.2 GHz).
CLIENT_XEON_E5_2650 = CPUSpec(
    name="xeon-e5-2650v4",
    sockets=2,
    cores_per_socket=12,
    ghz=2.2,
    wqe_prep_ns=120.0,         # calibrated
    mmio_visible_ns=250.0,     # calibrated: local NIC, one PCIe traversal
    sustained_post_ns=615.0,   # calibrated: 24 threads -> ~39 M reqs/s, so
                               # five client machines saturate 195 Mpps (S4)
    two_sided_per_core=mrps(3.0),
    two_sided_latency_ns=350.0,      # calibrated
)

# Bluefield-2 SoC: ARM Cortex-A72, 8 cores, 2.75 GHz (Table 1).
ARM_CORTEX_A72 = CPUSpec(
    name="arm-cortex-a72",
    sockets=1,
    cores_per_socket=8,
    ghz=2.75,
    wqe_prep_ns=200.0,         # calibrated: wimpy core builds WQEs slowly
    mmio_visible_ns=500.0,     # calibrated: uncached store cost on A72
    sustained_post_ns=276.0,   # calibrated: 8 cores -> 29 M reqs/s (S3 S2H)
    two_sided_per_core=mrps(3.9),  # calibrated: 8 cores -> ~31 M msgs/s,
                                   # the "up to 64 % drop" of S3.2
    two_sided_latency_ns=1000.0,   # calibrated: SNIC2 SEND latency +21-30 %
)
