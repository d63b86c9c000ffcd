"""The Table-3 model: PCIe packets needed per RDMA request on each path.

For every path and verb this enumerates the DMA legs the SmartNIC
executes and counts the TLPs each leg pushes across PCIe1 and PCIe0, in
each direction.  Two views are offered:

* :meth:`PacketCountModel.counts` — the full accounting, including
  header-only read-request TLPs;
* :meth:`PacketCountModel.table3_row` — the paper's simplified model
  (data TLPs only, "omits control path packets").

The paper's worked example (§3.3 Advice #3) falls out directly: moving
data from SoC to host at 200 Gbps requires ``25 GB/s / 128 B = 195 Mpps``
into the NIC on PCIe1, ``49 Mpps`` (512 B) back out of PCIe1, and
``49 Mpps`` on PCIe0 — at least 293 Mpps, 6x path ① and 1.5x path ②.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.arrays import SCALAR, namespace_of
from repro.core.paths import CommPath, Opcode
from repro.hw.pcie.tlp import TLP_HEADER_BYTES as HDR
from repro.nic.core import Endpoint
from repro.nic.specs import SmartNICSpec, BLUEFIELD2


@dataclass(frozen=True)
class PathPacketCounts:
    """TLPs and wire bytes crossing each internal link, per request.

    ``*_bytes`` fields are wire bytes (data payload + TLP headers).  For
    the RNIC baseline the single host link is reported in the ``pcie0``
    fields and ``pcie1`` stays zero.
    """

    pcie1_to_nic: int = 0      # toward the NIC cores
    pcie1_to_switch: int = 0   # away from the NIC cores
    pcie0_to_host: int = 0     # toward host memory
    pcie0_to_switch: int = 0   # away from host memory
    pcie1_to_nic_bytes: int = 0
    pcie1_to_switch_bytes: int = 0
    pcie0_to_host_bytes: int = 0
    pcie0_to_switch_bytes: int = 0

    @property
    def pcie1_total(self) -> int:
        return self.pcie1_to_nic + self.pcie1_to_switch

    @property
    def pcie0_total(self) -> int:
        return self.pcie0_to_host + self.pcie0_to_switch

    @property
    def total(self) -> int:
        """All TLPs the SmartNIC fabric handles for one request."""
        return self.pcie1_total + self.pcie0_total

    def __add__(self, other: "PathPacketCounts") -> "PathPacketCounts":
        return PathPacketCounts(
            self.pcie1_to_nic + other.pcie1_to_nic,
            self.pcie1_to_switch + other.pcie1_to_switch,
            self.pcie0_to_host + other.pcie0_to_host,
            self.pcie0_to_switch + other.pcie0_to_switch,
            self.pcie1_to_nic_bytes + other.pcie1_to_nic_bytes,
            self.pcie1_to_switch_bytes + other.pcie1_to_switch_bytes,
            self.pcie0_to_host_bytes + other.pcie0_to_host_bytes,
            self.pcie0_to_switch_bytes + other.pcie0_to_switch_bytes,
        )


#: Per-spec memos of scalar :meth:`PacketCountModel.counts`.  A model
#: looks its spec's memo up once, when built, so a call hashes only
#: ``(path, op, nbytes, include_requests)``; ``SmartNICSpec`` is a frozen
#: dataclass, so equal specs share one memo.
_MEMOS: Dict[SmartNICSpec, Dict[tuple, PathPacketCounts]] = {}


class PacketCountModel:
    """Closed-form per-request TLP counts for a SmartNIC spec."""

    def __init__(self, spec: SmartNICSpec = BLUEFIELD2):
        self.spec = spec
        self._memo = _MEMOS.setdefault(spec, {})
        self.h_mps = spec.host_mps
        self.s_mps = spec.soc_mps
        self.read_chunk = spec.cores.max_read_request

    # -- leg primitives -----------------------------------------------------------

    def _read_host(self, nbytes: int, include_requests: bool,
                   xp) -> PathPacketCounts:
        """NIC DMA-reads host memory: requests out, completions back."""
        reqs = xp.ceil(nbytes / self.read_chunk) if include_requests else 0
        cpls = xp.ceil(nbytes / self.h_mps)
        cpl_bytes = nbytes + cpls * HDR
        return PathPacketCounts(
            pcie1_to_nic=cpls, pcie1_to_switch=reqs,
            pcie0_to_host=reqs, pcie0_to_switch=cpls,
            pcie1_to_nic_bytes=cpl_bytes, pcie1_to_switch_bytes=reqs * HDR,
            pcie0_to_host_bytes=reqs * HDR, pcie0_to_switch_bytes=cpl_bytes)

    def _write_host(self, nbytes: int, xp) -> PathPacketCounts:
        """NIC DMA-writes host memory: posted, one direction."""
        tlps = xp.ceil(nbytes / self.h_mps)
        wire = nbytes + tlps * HDR
        return PathPacketCounts(pcie1_to_switch=tlps, pcie0_to_host=tlps,
                                pcie1_to_switch_bytes=wire,
                                pcie0_to_host_bytes=wire)

    def _read_soc(self, nbytes: int, include_requests: bool,
                  xp) -> PathPacketCounts:
        """NIC DMA-reads SoC memory (the SoC hangs off the switch)."""
        reqs = xp.ceil(nbytes / self.read_chunk) if include_requests else 0
        cpls = xp.ceil(nbytes / self.s_mps)
        return PathPacketCounts(pcie1_to_nic=cpls, pcie1_to_switch=reqs,
                                pcie1_to_nic_bytes=nbytes + cpls * HDR,
                                pcie1_to_switch_bytes=reqs * HDR)

    def _write_soc(self, nbytes: int, xp) -> PathPacketCounts:
        tlps = xp.ceil(nbytes / self.s_mps)
        return PathPacketCounts(pcie1_to_switch=tlps,
                                pcie1_to_switch_bytes=nbytes + tlps * HDR)

    def _leg_to(self, endpoint: Endpoint, op: str, nbytes: int,
                include_requests: bool, xp) -> PathPacketCounts:
        if endpoint is Endpoint.HOST:
            if op == "read":
                return self._read_host(nbytes, include_requests, xp)
            return self._write_host(nbytes, xp)
        if op == "read":
            return self._read_soc(nbytes, include_requests, xp)
        return self._write_soc(nbytes, xp)

    # -- public API ---------------------------------------------------------------

    def counts(self, path: CommPath, op: Opcode, nbytes: int,
               include_requests: bool = True) -> PathPacketCounts:
        """TLPs per request of ``nbytes`` on ``path`` carrying ``op``.

        Zero-byte requests produce zero TLPs ("return before reaching
        PCIe1", §4).  SEND is accounted like WRITE at the responder
        (same DMA shape for the payload delivery, Fig 8 caption).
        Results for one payload are memoized per (spec, path, op,
        payload) — every sweep revisits the same few hundred shapes
        thousands of times.  For an array of payloads every field is an
        array over ``nbytes``.
        """
        if namespace_of(nbytes) is not SCALAR:
            return self._compute_counts(path, op, nbytes, include_requests)
        key = (path, op, nbytes, include_requests)
        counts = self._memo.get(key)
        if counts is None:
            counts = self._memo[key] = self._compute_counts(
                path, op, nbytes, include_requests)
        return counts

    def _compute_counts(self, path: CommPath, op: Opcode, nbytes: int,
                        include_requests: bool) -> PathPacketCounts:
        xp = namespace_of(nbytes)
        if xp.any(nbytes < 0):
            raise ValueError(f"negative payload: {nbytes}")
        responder = path.ends.responder
        mem_op = op.memory_op

        if path is CommPath.RNIC1:
            # Single host link, reported in the pcie0 fields.
            if mem_op == "read":
                reqs = (xp.ceil(nbytes / self.read_chunk)
                        if include_requests else 0)
                cpls = xp.ceil(nbytes / self.h_mps)
                return PathPacketCounts(
                    pcie0_to_host=reqs, pcie0_to_switch=cpls,
                    pcie0_to_host_bytes=reqs * HDR,
                    pcie0_to_switch_bytes=nbytes + cpls * HDR)
            tlps = xp.ceil(nbytes / self.h_mps)
            return PathPacketCounts(pcie0_to_host=tlps,
                                    pcie0_to_host_bytes=nbytes + tlps * HDR)

        if not path.intra_machine:
            # Paths ① and ②: one DMA leg at the responder endpoint.
            return self._leg_to(responder, mem_op, nbytes, include_requests,
                                xp)

        # Path ③: the NIC first reads the data from the requester's
        # memory (non-posted), then writes it to the responder's (§3.3
        # Advice #3) — for READ the roles swap.
        requester_end = (Endpoint.HOST if path is CommPath.SNIC3_H2S
                         else Endpoint.SOC)
        if op is Opcode.READ:
            source, sink = responder, requester_end
        else:
            source, sink = requester_end, responder
        fetch = self._leg_to(source, "read", nbytes, include_requests, xp)
        deliver = self._leg_to(sink, "write", nbytes, include_requests, xp)
        return fetch + deliver

    def table3_row(self, path: CommPath, nbytes: int) -> dict:
        """The paper's simplified Table-3 row: data TLPs per link.

        Direction-agnostic totals, control packets omitted — exactly
        ``ceil(N / MTU)`` terms.
        """
        counts = self.counts(path, Opcode.WRITE, nbytes,
                             include_requests=False)
        return {"pcie1": counts.pcie1_total, "pcie0": counts.pcie0_total}

    def pps_for_bandwidth(self, path: CommPath, op: Opcode,
                          bytes_per_ns: float, nbytes: int,
                          include_requests: bool = False) -> float:
        """Aggregate TLPs/ns the fabric must sustain to carry
        ``bytes_per_ns`` of ``nbytes``-sized requests on ``path``.

        With ``include_requests=False`` this reproduces the paper's
        "at least 293 Mpps for 200 Gbps" arithmetic.
        """
        if bytes_per_ns < 0:
            raise ValueError(f"negative bandwidth: {bytes_per_ns}")
        if nbytes <= 0:
            raise ValueError(f"payload must be positive: {nbytes}")
        per_request = self.counts(path, op, nbytes, include_requests).total
        requests_per_ns = bytes_per_ns / nbytes
        return per_request * requests_per_ns
