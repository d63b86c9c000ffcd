"""DRAM model: channel/bank geometry and range-dependent concurrency.

The key behaviour (§3.2, Fig 7): DRAM needs *many banks in flight* to
sustain its peak request rate.  When the accessed address range shrinks,
fewer banks are covered, bank conflicts serialize accesses, and the
sustainable request rate collapses toward the single-bank rate — about
1/tRC for writes, faster for reads thanks to row-buffer hits and the
read/write asymmetry of DRAM (Hassan et al., HPCA'17, cited by the
paper).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arrays import bandwidth_capped, namespace_of
from repro.units import mrps


@dataclass(frozen=True)
class DRAMConfig:
    """Geometry and rates of one memory subsystem's DRAM.

    * ``channels`` — independent memory channels (host: 8, SoC: 1).
    * ``banks_per_channel`` — DDR4 has 16 banks (4 groups x 4).
    * ``bank_stripe`` — consecutive bytes mapped to one bank before the
      interleaving moves to the next (page-sized striping).
    * ``peak_bandwidth`` — per-channel read bandwidth, bytes/ns.
    * ``write_bandwidth_factor`` — write bandwidth relative to read.
    * ``bank_read_rate`` / ``bank_write_rate`` — sustainable requests/ns
      against a *single* bank.  Writes pay the full row cycle (tRC
      ~44 ns); row-buffer-friendly reads are about twice as fast.
    """

    name: str
    channels: int
    banks_per_channel: int = 16
    bank_stripe: int = 4096
    peak_bandwidth: float = 25.6          # bytes/ns = GB/s (DDR4-3200)
    write_bandwidth_factor: float = 0.78
    bank_read_rate: float = mrps(50.0)    # calibrated: Fig 7 READ floor
    bank_write_rate: float = mrps(22.7)   # calibrated: Fig 7 WRITE floor (1/tRC)

    def __post_init__(self):
        if self.channels < 1 or self.banks_per_channel < 1:
            raise ValueError("channels and banks must be >= 1")
        if self.bank_stripe <= 0:
            raise ValueError(f"bank stripe must be positive: {self.bank_stripe}")
        if not 0 < self.write_bandwidth_factor <= 1:
            raise ValueError("write bandwidth factor must be in (0, 1]")

    @property
    def total_banks(self) -> int:
        return self.channels * self.banks_per_channel

    @property
    def read_bandwidth(self) -> float:
        """Aggregate read bandwidth across channels, bytes/ns."""
        return self.peak_bandwidth * self.channels

    @property
    def write_bandwidth(self) -> float:
        """Aggregate write bandwidth across channels, bytes/ns."""
        return self.read_bandwidth * self.write_bandwidth_factor


class DRAMModel:
    """Capacity queries against a :class:`DRAMConfig`."""

    def __init__(self, config: DRAMConfig):
        self.config = config

    def banks_engaged(self, range_bytes: float) -> int:
        """How many banks a uniformly accessed range of bytes covers."""
        xp = namespace_of(range_bytes)
        if xp.any(range_bytes <= 0):
            raise ValueError(f"range must be positive: {range_bytes}")
        covered = xp.ceil(range_bytes / self.config.bank_stripe)
        return xp.maximum(1, xp.minimum(self.config.total_banks, covered))

    def request_capacity(self, op: str, payload: int, range_bytes: float) -> float:
        """Sustainable requests/ns for accesses of ``payload`` bytes
        uniformly spread over ``range_bytes``.

        Two ceilings apply: bank-level parallelism (requests) and channel
        bandwidth (bytes).  Zero-byte payloads only see the bank ceiling.
        """
        banks = self.banks_engaged(range_bytes)
        if op == "read":
            rate = banks * self.config.bank_read_rate
        elif op == "write":
            rate = banks * self.config.bank_write_rate
        else:
            raise ValueError(f"unknown DRAM op: {op!r}")
        return bandwidth_capped(rate, self.bandwidth(op, banks), payload)

    def bandwidth(self, op: str, banks: int) -> float:
        """Channel bandwidth (bytes/ns) for ``op`` over ``banks`` banks."""
        # Stripes rotate across channels first (round-robin at bank_stripe
        # granularity), so a range covering B banks touches min(channels, B)
        # channels.
        config = self.config
        channels = namespace_of(banks).minimum(config.channels, banks)
        read = config.peak_bandwidth * channels
        return read if op == "read" else read * config.write_bandwidth_factor

    def access_latency(self, op: str) -> float:
        """Mean single-access latency (ns) for the DES latency model."""
        if op == "read":
            return 50.0  # row-buffer-hit-heavy read
        if op == "write":
            return 15.0  # posted into the write queue; row cycle is hidden
        raise ValueError(f"unknown DRAM op: {op!r}")
