"""A replicated key-value store across two SmartNIC servers.

The capstone scenario for the paper's advice, combining every path:

* **puts** land in the primary store on server 0's host (path ①-style
  service),
* a **shipper** offloaded to server 0's SoC pulls committed entries
  from host memory over path ③ — budgeted at ``P − N`` per the §4 rule —
  and forwards them to the peer SoC over the fabric,
* an **applier** on server 1's SoC installs entries into a replica
  store living in SoC memory, from which clients read via single-RPC
  offloaded gets (Fig 1(b)).

The replication lag it reports is the end-to-end cost of the pipeline
the advice shapes.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.apps.kvstore import KVServer
from repro.apps.logship import TokenBucket
from repro.rdma.qp import QPState, QPType
from repro.rdma.verbs import RdmaContext
from repro.sim.monitor import Histogram
from repro.sim.resources import Store
from repro.units import MB, gbps

_ENTRY = struct.Struct("<IIQ")  # key length, value length, put timestamp


class ReplicationLogFullError(Exception):
    """A single entry is larger than the whole replication log."""


@dataclass
class ReplicationStats:
    puts: int = 0
    shipped: int = 0
    applied: int = 0
    backpressured: int = 0   # puts parked while the log was full
    failovers: int = 0       # shipper path-3 -> host-relay switches
    lag: Histogram = field(default_factory=Histogram)
    degraded_lag: Histogram = field(default_factory=Histogram)

    @property
    def pending(self) -> int:
        return self.puts - self.applied


class ReplicatedKV:
    """Primary on server 0's host, replica on server 1's SoC."""

    def __init__(self, ctx: RdmaContext, log_bytes: int = 4 * MB,
                 budget_gbps: Optional[float] = 56.0,
                 n_buckets: int = 4096):
        cluster = ctx.cluster
        if "soc1" not in cluster.nodes:
            raise ValueError("replicated KV needs a two-server cluster "
                             "(SimCluster(..., n_servers=2))")
        self.ctx = ctx
        self.sim = cluster.sim
        self.primary = KVServer(ctx, "host", n_buckets=n_buckets)
        self.replica = KVServer(ctx, "soc1", n_buckets=n_buckets)
        self.stats = ReplicationStats()

        # The replication log in host memory, pulled by the shipper.
        self.log = ctx.reg_mr("host", log_bytes)
        self._log_head = 0
        self._pending: Store = Store(self.sim)
        self._unshipped_bytes = 0
        # Puts parked while the log is full of unshipped entries; the
        # shipper drains them as space frees (backpressure, not errors).
        self._backlog = deque()

        # Shipper: server 0's SoC pulls entries over path 3 (budgeted)
        # and relays them to the peer SoC over the fabric.
        self._staging = ctx.reg_mr("soc", 64 << 10)
        self._path3_qp, _ = ctx.connect_rc("soc", "host")
        self._relay_qp, self._applier_qp = ctx.connect_rc("soc", "soc1")
        self._applier_mr = ctx.reg_mr("soc1", 64 << 10)
        # Which QP the shipper posts replica-side receives on; swapped
        # by a failover together with _relay_qp.
        self._rx_qp = self._applier_qp
        self.degraded = False
        self._bucket = (None if budget_gbps is None
                        else TokenBucket(gbps(budget_gbps), burst=8 << 10))
        self.sim.process(self._shipper())
        self.sim.process(self._applier())

    # -- primary-side operations ----------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        """Apply a put on the primary and queue it for replication.

        When the log would wrap into unshipped entries the put is
        parked in a backlog (backpressure) and committed by the shipper
        once space frees; only an entry larger than the whole log is an
        error.
        """
        entry_len = _ENTRY.size + len(key) + len(value)
        if entry_len > self.log.length:
            raise ReplicationLogFullError(
                f"entry of {entry_len} B exceeds the {self.log.length} B log")
        self.stats.puts += 1
        if self._backlog or (self._log_head + entry_len > self.log.length
                             and self._unshipped_bytes > 0):
            self._backlog.append((key, value, self.sim.now))
            self.stats.backpressured += 1
            return
        self._commit(key, value, self.sim.now)

    def _commit(self, key: bytes, value: bytes, at: float) -> None:
        """Write a put into the log and hand it to the shipper."""
        entry = _ENTRY.pack(len(key), len(value), int(at)) + key + value
        if self._log_head + len(entry) > self.log.length:
            self._log_head = 0
        self.primary.put(key, value)
        offset = self._log_head
        self.log.write_local(offset, entry)
        self._log_head += len(entry)
        self._unshipped_bytes += len(entry)
        self._pending.offer((offset, len(entry), at))

    def _drain_backlog(self) -> None:
        """Commit parked puts into the (now fully shipped) log."""
        self._log_head = 0
        while self._backlog:
            key, value, at = self._backlog[0]
            entry_len = _ENTRY.size + len(key) + len(value)
            if self._log_head + entry_len > self.log.length:
                break  # the rest waits for the next drain
            self._backlog.popleft()
            self._commit(key, value, at)

    # -- failover ----------------------------------------------------------------------

    def _fail_over(self) -> None:
        """Swap the shipper's relay from the dead SoC to the host.

        Degraded mode: the host CPU reads its own log (path ①-style
        service instead of the offloaded path ③) and relays to the peer
        SoC from the host NIC.  The replacement receive QP shares the
        applier's CQ, so the applier keeps draining without restarting.
        """
        if self.degraded:
            return
        self.degraded = True
        self.stats.failovers += 1
        self.ctx.cluster.bump("replicated_kv.failovers")
        host_qp = self.ctx.create_qp("host", QPType.RC)
        rx_qp = self.ctx.create_qp("soc1", QPType.RC,
                                   recv_cq=self._applier_qp.recv_cq)
        host_qp.connect(rx_qp)
        self._relay_qp = host_qp
        self._rx_qp = rx_qp

    def _host_read_ns(self, length: int) -> float:
        """Path ①-style host service for one entry in degraded mode."""
        host = self.ctx.cluster.node("host")
        return host.cpu.two_sided_latency_ns + length / gbps(100.0)

    # -- pipeline processes -------------------------------------------------------------

    def _shipper(self) -> Generator:
        wr = 0
        while True:
            offset, length, _put_at = yield self._pending.get()
            if self._bucket is not None and not self.degraded:
                delay = self._bucket.delay_for(length, self.sim.now)
                if delay > 0:
                    yield self.sim.timeout(delay)
            wr += 1
            if not self.degraded:
                # Path 3: pull the entry from host memory into staging.
                yield self._path3_qp.post_read(wr, self._staging, self.log,
                                               length, local_offset=0,
                                               remote_offset=offset)
                if self._path3_qp.state is QPState.ERROR:
                    # The SoC died under us (or retries exhausted).
                    self._fail_over()
            if self.degraded:
                # Host-side read of its own log: CPU service, no PCIe 3.
                yield self.sim.timeout(self._host_read_ns(length))
                payload = self.log.read_local(offset, length)
            else:
                payload = self._staging.read_local(0, length)
            self._unshipped_bytes -= length
            self.stats.shipped += 1
            if self._unshipped_bytes == 0 and self._backlog:
                self._drain_backlog()
            # Fabric: relay to the peer SoC.
            self._rx_qp.post_recv(wr, self._applier_mr)
            yield self._relay_qp.post_send(wr, payload, signaled=False)
            if self._relay_qp.state is QPState.ERROR:
                # Crashed between read and relay: switch and resend.
                self._fail_over()
                self._rx_qp.post_recv(wr, self._applier_mr)
                yield self._relay_qp.post_send(wr, payload, signaled=False)

    def _applier(self) -> Generator:
        recv_cq = self._applier_qp.recv_cq
        while True:
            completion = yield recv_cq.wait()
            raw = self._applier_mr.read_local(0, completion.byte_len)
            key_len, value_len, put_at = _ENTRY.unpack(raw[:_ENTRY.size])
            body = raw[_ENTRY.size:]
            key = body[:key_len]
            value = body[key_len:key_len + value_len]
            self.replica.put(key, value)
            self.stats.applied += 1
            self.stats.lag.record(self.sim.now - put_at)
            if self.degraded:
                self.stats.degraded_lag.record(self.sim.now - put_at)

    # -- convenience --------------------------------------------------------------------

    def wait_replicated(self) -> Generator:
        """A process generator that returns once the replica caught up."""
        while self.stats.pending > 0:
            yield self.sim.timeout(1000.0)
        return self.stats
