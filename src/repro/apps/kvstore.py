"""A distributed in-memory key-value store (the Fig 1 motivation).

The server lays its state out in one registered region so one-sided
clients can navigate it remotely:

* a linear-probing hash index of fixed 64 B buckets (key fingerprint,
  value offset, value length), followed by
* a bump-allocated value log.

Two client strategies reproduce Fig 1:

* :class:`OneSidedKVClient` — *(a)*: a ``get`` costs one READ for the
  bucket (one more per bucket it probes past) and a second READ for the
  value: **network amplification**.
* :class:`OffloadedKVClient` — *(b)*: the store lives in SoC memory and
  a SoC-side handler answers a single RPC per ``get``; one round trip.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Dict, Generator, Optional

from repro.rdma.cq import Completion
from repro.rdma.mr import MemoryRegion
from repro.rdma.qp import QPType
from repro.rdma.verbs import RdmaContext
from repro.sim.events import AnyOf
from repro.sim.monitor import Histogram

# Bucket layout: 8 B key fingerprint | 4 B value offset | 4 B value
# length | 48 B padding (one cache line per bucket).
_BUCKET = struct.Struct("<QII")
BUCKET_BYTES = 64
_FP_EMPTY = 0


def _fingerprint(key: bytes) -> int:
    """A 64-bit non-zero key fingerprint, the same in every process."""
    fp = int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(),
                        "little")
    return fp or 1


class KVStoreFullError(Exception):
    """The value log or index ran out of space."""


class KVTimeoutError(Exception):
    """An offloaded get exhausted its retries without a reply."""


class KVServer:
    """The server-side store living inside one registered region."""

    def __init__(self, ctx: RdmaContext, node_name: str,
                 n_buckets: int = 1024, log_bytes: int = 1 << 20):
        if n_buckets < 1 or n_buckets & (n_buckets - 1):
            raise ValueError(f"n_buckets must be a power of two: {n_buckets}")
        self.ctx = ctx
        self.node_name = node_name
        self.n_buckets = n_buckets
        self.index_bytes = n_buckets * BUCKET_BYTES
        self.mr: MemoryRegion = ctx.reg_mr(node_name,
                                           self.index_bytes + log_bytes)
        self._log_head = self.index_bytes
        self._keys: Dict[bytes, int] = {}   # key -> bucket id (server-side)

    # -- layout helpers ------------------------------------------------------------

    def bucket_offset(self, bucket_id: int) -> int:
        return bucket_id * BUCKET_BYTES

    def bucket_of(self, key: bytes) -> int:
        """The key's home bucket (see :meth:`probe`)."""
        return _fingerprint(key) & (self.n_buckets - 1)

    def probe(self, key: bytes):
        """The buckets a lookup of ``key`` visits: its home bucket, then
        the next ones in turn (linear probing), each bucket once."""
        home = self.bucket_of(key)
        mask = self.n_buckets - 1
        return ((home + i) & mask for i in range(self.n_buckets))

    def _header(self, bucket_id: int):
        """A bucket's ``(fingerprint, value offset, value length)``."""
        return _BUCKET.unpack(self.mr.read_local(
            self.bucket_offset(bucket_id), _BUCKET.size))

    # -- server-side operations ------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or update a key (executed by the server's CPU).

        A new key takes the first empty bucket :meth:`probe` reaches,
        so keys sharing a home bucket never overwrite each other.
        """
        if not key:
            raise ValueError("empty key")
        bucket = self._keys.get(key)
        if bucket is None:
            bucket = next((b for b in self.probe(key)
                           if self._header(b)[0] == _FP_EMPTY), None)
            if bucket is None:
                raise KVStoreFullError("index full")
        if self._log_head + len(value) > self.mr.length:
            raise KVStoreFullError("value log exhausted")
        offset = self._log_head
        self.mr.write_local(offset, value)
        self._log_head += len(value)
        header = _BUCKET.pack(_fingerprint(key), offset, len(value))
        self.mr.write_local(self.bucket_offset(bucket), header)
        self._keys[key] = bucket

    def get_local(self, key: bytes) -> Optional[bytes]:
        """Server-side lookup (used by the SoC handler)."""
        wanted = _fingerprint(key)
        for bucket in self.probe(key):
            fp, offset, length = self._header(bucket)
            if fp == wanted:
                return self.mr.read_local(offset, length)
            if fp == _FP_EMPTY:
                break
        return None

    def __len__(self) -> int:
        return len(self._keys)


@dataclass
class GetStats:
    """Client-side accounting of get traffic."""

    gets: int = 0
    misses: int = 0
    network_round_trips: int = 0
    timeouts: int = 0
    latency: Histogram = field(default_factory=Histogram)

    @property
    def round_trips_per_get(self) -> float:
        return self.network_round_trips / self.gets if self.gets else 0.0

    @property
    def timeout_rate(self) -> float:
        """Timed-out reply waits as a fraction of all reply waits."""
        waits = self.gets + self.timeouts
        return self.timeouts / waits if waits else 0.0


class OneSidedKVClient:
    """Fig 1(a): gets via one-sided READs — index READ, then value READ.

    **Scheduler-managed mode**: pass ``lease=`` (a
    :class:`~repro.sched.runtime.PathLease`, duck-typed — anything with
    ``responder`` and ``generation``) plus ``replicas=`` mapping node
    names to :class:`KVServer` replicas.  Each ``get`` resolves the
    server from the lease's current responder and transparently
    reconnects its RC flow when the scheduler bumps the lease
    generation (a migration or failover).  Without a lease the client
    is the original fixed-server implementation.
    """

    def __init__(self, ctx: RdmaContext, client_name: str,
                 server: Optional[KVServer] = None, lease=None,
                 replicas: Optional[Dict[str, KVServer]] = None):
        if (lease is None) == (server is None):
            raise ValueError("pass either server= or lease=+replicas=")
        if lease is not None and not replicas:
            raise ValueError("scheduler-managed mode needs replicas=")
        self.ctx = ctx
        self.client_name = client_name
        self.lease = lease
        self.replicas = replicas or {}
        if lease is None:
            self.server = server
        else:
            self.server = self._replica()
        self.qp, _ = ctx.connect_rc(client_name, self.server.node_name)
        self._generation = getattr(lease, "generation", 0)
        self.scratch = ctx.reg_mr(client_name, 1 << 16)
        self.stats = GetStats()
        self.reconnects = 0
        self._wr = 0

    def _replica(self) -> KVServer:
        try:
            return self.replicas[self.lease.responder]
        except KeyError:
            raise ValueError(
                f"no replica on {self.lease.responder!r}; have "
                f"{sorted(self.replicas)}") from None

    def _refresh(self) -> None:
        """Follow the lease: reconnect if the scheduler moved the flow."""
        if self.lease is None or self.lease.generation == self._generation:
            return
        self.server = self._replica()
        self.qp, _ = self.ctx.connect_rc(self.client_name,
                                         self.server.node_name)
        self._generation = self.lease.generation
        self.reconnects += 1

    def get(self, key: bytes) -> Generator:
        """A process generator: yields until the value is local.

        Returns the value bytes (or ``None`` on miss).  Run it with
        ``cluster.sim.process(client.get(key))``.
        """
        self._refresh()
        sim = self.qp.sim
        start = sim.now
        wanted = _fingerprint(key)
        for bucket in self.server.probe(key):
            # One READ per bucket header: the home bucket, plus one
            # more round trip per bucket the key was probed past.
            self._wr += 1
            yield self.qp.post_read(
                self._wr, self.scratch, self.server.mr, _BUCKET.size,
                local_offset=0,
                remote_offset=self.server.bucket_offset(bucket))
            fp, offset, length = _BUCKET.unpack(
                self.scratch.read_local(0, _BUCKET.size))
            self.stats.network_round_trips += 1
            if fp == wanted or fp == _FP_EMPTY:
                break
        self.stats.gets += 1
        if fp != wanted:
            self.stats.misses += 1
            self.stats.latency.record(sim.now - start)
            return None
        # Last round trip: READ the value.
        self._wr += 1
        yield self.qp.post_read(
            self._wr, self.scratch, self.server.mr, length,
            local_offset=64, remote_offset=offset)
        self.stats.network_round_trips += 1
        self.stats.latency.record(sim.now - start)
        return self.scratch.read_local(64, length)


class OffloadedKVClient:
    """Fig 1(b): gets via a single RPC to a SoC-side handler.

    The handler looks the key up locally in SoC memory and replies with
    the value — one network round trip, no amplification.
    """

    SERVICE_OVERHEAD_NS = 300.0  # SoC handler: parse + hash + reply post

    def __init__(self, ctx: RdmaContext, client_name: str, server: KVServer,
                 timeout_ns: Optional[float] = None, max_retries: int = 0):
        if ctx.cluster.node(server.node_name).kind != "soc":
            raise ValueError("offloaded store must live in SoC memory")
        if timeout_ns is not None and timeout_ns <= 0:
            raise ValueError(f"timeout must be positive: {timeout_ns}")
        self.ctx = ctx
        self.server = server
        self.qp = ctx.create_qp(client_name, QPType.UD)
        self.server_qp = ctx.create_qp(server.node_name, QPType.UD)
        self.recv_mr = ctx.reg_mr(client_name, 1 << 16)
        self.server_recv_mr = ctx.reg_mr(server.node_name, 1 << 16)
        self.stats = GetStats()
        self.timeout_ns = timeout_ns
        self.max_retries = max_retries
        # With retries armed, requests/replies carry a 4 B sequence id
        # so straggler replies to timed-out attempts can be discarded.
        self._reliable = timeout_ns is not None
        self._wr = 0
        self._start_handler()

    def _start_handler(self) -> None:
        sim = self.qp.sim

        def handler():
            while True:
                completion = yield self.server_qp.recv_cq.wait()
                request = self.server_recv_mr.read_local(0, completion.byte_len)
                src = self.ctx.cluster.qp_by_qpn(
                    self.server_qp.inbound_sources.popleft())
                seq, key = (request[:4], request[4:]) if self._reliable \
                    else (b"", request)
                # Local lookup on the SoC cores.
                yield sim.timeout(self.SERVICE_OVERHEAD_NS)
                value = self.server.get_local(key)
                reply = seq + (b"\x00" if value is None else b"\x01" + value)
                self.server_qp.post_recv(0, self.server_recv_mr)
                yield self.server_qp.post_send(0, reply, dest=src,
                                               signaled=False)

        self.server_qp.post_recv(0, self.server_recv_mr)
        sim.process(handler())

    def get(self, key: bytes) -> Generator:
        """A process generator performing one RPC get."""
        sim = self.qp.sim
        start = sim.now
        self._wr += 1
        self.qp.post_recv(self._wr, self.recv_mr)
        if self._reliable:
            payload = yield from self._get_with_retries(sim, key)
        else:
            yield self.qp.post_send(self._wr, key, dest=self.server_qp,
                                    signaled=False)
            completion = yield self.qp.recv_cq.wait()
            payload = self.recv_mr.read_local(0, completion.byte_len)
        self.stats.gets += 1
        self.stats.network_round_trips += 1
        self.stats.latency.record(sim.now - start)
        if payload[:1] == b"\x00":
            self.stats.misses += 1
            return None
        return payload[1:]

    def _get_with_retries(self, sim, key: bytes):
        seq = struct.pack("<I", self._wr & 0xFFFFFFFF)
        message = seq + key
        timeout = self.timeout_ns
        cap = self.timeout_ns * 8
        resends_left = self.max_retries
        while True:
            yield self.qp.post_send(self._wr, message, dest=self.server_qp,
                                    signaled=False)
            while True:
                waiter = self.qp.recv_cq.wait()
                got = yield AnyOf(sim, [waiter, sim.timeout(timeout)])
                if isinstance(got, Completion):
                    reply = self.recv_mr.read_local(0, got.byte_len)
                    if reply[:4] == seq:
                        return reply[4:]
                    continue  # straggler from a timed-out attempt
                self.qp.recv_cq.cancel(waiter)
                break
            self.stats.timeouts += 1
            if resends_left <= 0:
                raise KVTimeoutError(
                    f"get of {key!r} timed out after "
                    f"{self.max_retries + 1} attempts")
            resends_left -= 1
            timeout = min(timeout * 2, cap)
            self.qp.post_recv(self._wr, self.recv_mr)
