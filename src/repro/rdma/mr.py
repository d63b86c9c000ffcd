"""Protection domains and registered memory regions.

A :class:`MemoryRegion` holds real bytes — applications built on the
stack (the KV store, the RPC server) move actual data.  Backing is
sparse: 4 KiB pages are allocated on first write and untouched bytes
read as zero, so the registered length is accounting (the PD budget),
not host memory.  A region with no backed page reads back the shared,
immutable :func:`zero_bytes` buffer of the length asked for, and
storing that exact buffer leaves pages that are not backed yet
unbacked: a verb that moves untouched bytes (every serving request)
copies nothing.  Any other store, the zero buffer over a backed page
included, writes as usual.  Remote access is checked against the
region's rkey and bounds, mirroring the RNIC's protection checks.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.cluster import Node


#: Backing page size of a :class:`MemoryRegion`.
PAGE_BYTES = 4096

#: The shared zero buffers by length, and the bounds on what is kept.
_ZEROS: Dict[int, bytes] = {}
_ZEROS_MAX_BYTES = 64 * PAGE_BYTES
_ZEROS_MAX_LENGTHS = 32


def zero_bytes(length: int) -> bytes:
    """The shared zero buffer of ``length`` bytes.

    One immutable buffer per length, so storing what an untouched
    region read back is recognised by identity.  At most 32 lengths of
    up to 256 KiB are kept, the oldest dropped first; a dropped or
    longer buffer is a plain zero buffer and stores as usual.
    """
    zeros = _ZEROS.get(length)
    if zeros is None:
        zeros = bytes(length)
        if length <= _ZEROS_MAX_BYTES:
            if len(_ZEROS) >= _ZEROS_MAX_LENGTHS:
                del _ZEROS[next(iter(_ZEROS))]
            _ZEROS[length] = zeros
    return zeros


class AccessError(Exception):
    """A remote or local access violated an MR's bounds or key."""


class MemoryRegion:
    """A registered, remotely accessible buffer on one node."""

    _keys = itertools.count(0x1000)

    def __init__(self, node: "Node", length: int):
        if length <= 0:
            raise ValueError(f"MR length must be positive: {length}")
        self.node = node
        self.length = length
        self._pages: Dict[int, bytearray] = {}
        self.lkey = next(self._keys)
        self.rkey = next(self._keys)

    # -- local access ------------------------------------------------------------

    def write_local(self, offset: int, data: bytes) -> None:
        """CPU store into the region."""
        self._check(offset, len(data))
        self._store(offset, data)

    def read_local(self, offset: int, length: int) -> bytes:
        """CPU load from the region."""
        self._check(offset, length)
        return self._load(offset, length)

    def _store(self, offset: int, data: bytes) -> None:
        # The shared zero buffer leaves unbacked pages unbacked: they
        # read as zero already.
        zeros = data is _ZEROS.get(len(data))
        if zeros and not self._pages:
            return
        view = memoryview(data)
        pos = 0
        while pos < len(view):
            index, start = divmod(offset + pos, PAGE_BYTES)
            chunk = min(PAGE_BYTES - start, len(view) - pos)
            page = self._pages.get(index)
            if page is None:
                if zeros:
                    pos += chunk
                    continue
                page = self._pages[index] = bytearray(PAGE_BYTES)
            page[start:start + chunk] = view[pos:pos + chunk]
            pos += chunk

    def _load(self, offset: int, length: int) -> bytes:
        if not self._pages:
            return zero_bytes(length)
        out = bytearray(length)
        pos = 0
        while pos < length:
            index, start = divmod(offset + pos, PAGE_BYTES)
            chunk = min(PAGE_BYTES - start, length - pos)
            page = self._pages.get(index)
            if page is not None:
                out[pos:pos + chunk] = page[start:start + chunk]
            pos += chunk
        return bytes(out)

    # -- remote (DMA) access -------------------------------------------------------

    def dma_write(self, offset: int, data: bytes, rkey: int) -> None:
        """Inbound DMA write, rkey-checked."""
        self._check_key(rkey)
        self._check(offset, len(data))
        self._store(offset, data)
        self._trace_access("memory_write", "write", len(data))

    def dma_read(self, offset: int, length: int, rkey: int) -> bytes:
        """Inbound DMA read, rkey-checked."""
        self._check_key(rkey)
        self._check(offset, length)
        data = self._load(offset, length)
        self._trace_access("memory_read", "read", length)
        return data

    def _trace_access(self, name: str, op: str, nbytes: int) -> None:
        """Instant "memory" annotation: the moment bytes touch DRAM/LLC.

        Zero-duration (the transfer time lives in the surrounding DMA
        span), so it is excluded from the span-tiling invariant.
        """
        cluster = self.node.cluster
        if cluster is None:
            return
        tracer = cluster.sim.tracer
        if tracer is None:
            return
        attrs = {"node": self.node.name, "bytes": nbytes}
        subsystem = cluster.memory_subsystem_of(self.node)
        if subsystem is not None:
            attrs.update(subsystem.span_attrs(op, nbytes))
        tracer.instant(name, "memory", **attrs)

    # -- checks ---------------------------------------------------------------------

    def _check(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.length:
            raise AccessError(
                f"access [{offset}, {offset + length}) outside MR of "
                f"{self.length} bytes on {self.node.name}")

    def _check_key(self, rkey: int) -> None:
        if rkey != self.rkey:
            raise AccessError(
                f"bad rkey {rkey:#x} for MR on {self.node.name}")


class ProtectionDomain:
    """Groups the MRs of one node; hands out registrations."""

    def __init__(self, node: "Node"):
        self.node = node
        self.regions: Dict[int, MemoryRegion] = {}
        self._registered = 0

    def reg_mr(self, length: int) -> MemoryRegion:
        """Register a fresh region, enforcing the node's memory budget."""
        if self._registered + length > self.node.memory_bytes:
            raise MemoryError(
                f"{self.node.name}: registering {length} B exceeds "
                f"{self.node.memory_bytes} B of node memory")
        region = MemoryRegion(self.node, length)
        self.regions[region.rkey] = region
        self._registered += length
        return region

    def dereg_mr(self, region: MemoryRegion) -> None:
        if region.rkey not in self.regions:
            raise AccessError("MR not registered in this PD")
        del self.regions[region.rkey]
        self._registered -= region.length

    def lookup(self, rkey: int) -> Optional[MemoryRegion]:
        return self.regions.get(rkey)
