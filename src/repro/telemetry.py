"""Hardware-counter telemetry for the simulated cluster.

The paper's PCIe analysis leans on Bluefield's performance-monitoring
counters (its ref [29]); this module is their simulated equivalent:
point-in-time snapshots of every link's TLP/byte counters, deltas
between snapshots, and rate reports — so experiments can be instrumented
the way the authors instrumented the real device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.report import format_table
from repro.net.cluster import SimCluster
from repro.units import to_gbps


@dataclass(frozen=True)
class CounterSnapshot:
    """All counters at one simulated instant."""

    timestamp: float
    counters: Dict[str, float]

    def __sub__(self, earlier: "CounterSnapshot") -> "CounterDelta":
        """Movement from ``earlier`` to this snapshot.

        Handles asymmetric key sets — a counter absent from one side
        reads as 0.0 there (counters appear mid-run, e.g. the first
        retransmit creates ``rdma.retransmits``) — and keeps the delta
        keys sorted regardless of which side contributed them.
        """
        if earlier.timestamp > self.timestamp:
            raise ValueError(
                f"snapshot order reversed: earlier taken at "
                f"{earlier.timestamp} ns, later at {self.timestamp} ns")
        keys = sorted(set(self.counters) | set(earlier.counters))
        deltas = {key: (self.counters.get(key, 0.0)
                        - earlier.counters.get(key, 0.0))
                  for key in keys}
        return CounterDelta(elapsed_ns=self.timestamp - earlier.timestamp,
                            deltas=deltas)


@dataclass(frozen=True)
class CounterDelta:
    """Counter movement over a window."""

    elapsed_ns: float
    deltas: Dict[str, float]

    def rate(self, key: str) -> float:
        """Events (or bytes) per ns for one counter."""
        if self.elapsed_ns <= 0:
            return 0.0
        return self.deltas.get(key, 0.0) / self.elapsed_ns

    def mpps(self, key: str) -> float:
        """A TLP counter's rate in millions of packets per second."""
        return self.rate(key) * 1e3

    def gbps(self, key: str) -> float:
        """A byte counter's rate in Gbps."""
        return to_gbps(self.rate(key))


class Telemetry:
    """Reads the cluster's counters like a monitoring agent would."""

    def __init__(self, cluster: SimCluster):
        self.cluster = cluster

    def snapshot(self) -> CounterSnapshot:
        """Capture every link counter at the current simulated time."""
        counters: Dict[str, float] = {}
        snic = self.cluster.snic
        if snic is not None:
            for name, link in (("pcie1", snic.pcie1), ("pcie0", snic.pcie0)):
                counters[f"{name}.tlps_to_nic"] = link.tlps_fwd
                counters[f"{name}.tlps_to_endpoint"] = link.tlps_rev
                counters[f"{name}.bytes"] = link.total_data_bytes
                counters[f"{name}.tlps"] = link.total_tlps
        else:
            link = self.cluster.rnic.host_link
            counters["hostlink.tlps"] = link.total_tlps
            counters["hostlink.bytes"] = link.total_data_bytes
        server = self.cluster.server_channel
        counters["net.server.tx_bytes"] = server.fwd.bytes_sent
        counters["net.server.rx_bytes"] = server.rev.bytes_sent
        for node in self.cluster.clients():
            channel = self.cluster.channel(node)
            counters[f"net.{node.name}.tx_bytes"] = channel.fwd.bytes_sent
            counters[f"net.{node.name}.rx_bytes"] = channel.rev.bytes_sent
        counters["nic.pipeline_in_use"] = self.cluster.nic_pipeline.in_use
        counters["nic.pipeline_queued"] = (
            self.cluster.nic_pipeline.queue_length)
        # Reliability/fault counters (faults.injected, rdma.retransmits,
        # rdma.rnr_naks, qp.recoveries, ...) — absent on fault-free runs.
        counters.update(self.cluster.stats)
        return CounterSnapshot(timestamp=self.cluster.sim.now,
                               counters=dict(sorted(counters.items())))

    def delta(self, since: CounterSnapshot) -> CounterDelta:
        """Counter movement from ``since`` to the current instant.

        The one-liner behind windowed monitoring (the path scheduler's
        per-tick bandwidth accounting): snapshot once, then call
        ``delta(start)`` whenever a window closes.
        """
        return self.snapshot() - since

    def report(self, start: CounterSnapshot,
               end: CounterSnapshot) -> str:
        """A formatted rate table over a window (Mpps for TLPs, Gbps
        for bytes, raw deltas otherwise)."""
        delta = end - start
        rows = []
        for key in sorted(delta.deltas):
            moved = delta.deltas[key]
            if moved == 0:
                continue
            if key.endswith("bytes"):
                value = f"{delta.gbps(key):.2f} Gbps"
            elif "tlps" in key:
                value = f"{delta.mpps(key):.2f} Mpps"
            else:
                value = f"{moved:g}"
            rows.append([key, f"{moved:g}", value])
        window_us = delta.elapsed_ns / 1000
        return format_table(["counter", "delta", "rate"], rows,
                            title=f"counters over {window_us:.1f} us")


# ---------------------------------------------------------------------------
# Model-evaluation performance counters (the solver memo and backends)
# ---------------------------------------------------------------------------


def perf_report() -> str:
    """Formatted tables of the solver memo and per-backend solve stats.

    The second table accounts for which solver backend (scalar or
    vector) solved how many points in how much wall-time.
    """
    from repro.core.batch import ENGINE_STATS
    from repro.core.throughput import RESULT_CACHE

    cache = RESULT_CACHE
    total = cache.hits + cache.misses
    out = format_table(
        ["memo", "hits", "misses", "entries", "hit rate"],
        [[cache.name, f"{cache.hits:g}", f"{cache.misses:g}",
          f"{len(cache):g}", f"{cache.hit_rate:.0%}" if total else "-"]],
        title="solver memo")
    if ENGINE_STATS.points:
        backend_rows = []
        for backend in sorted(ENGINE_STATS.points):
            points = ENGINE_STATS.points[backend]
            seconds = ENGINE_STATS.seconds[backend]
            rate = f"{points / seconds:,.0f}" if seconds > 0 else "-"
            backend_rows.append([backend, f"{points:g}",
                                 f"{ENGINE_STATS.batches[backend]:g}",
                                 f"{seconds * 1e3:.2f}", rate])
        out += "\n\n" + format_table(
            ["backend", "points", "batches", "solve ms", "points/s"],
            backend_rows, title="solver backends")
    return out
