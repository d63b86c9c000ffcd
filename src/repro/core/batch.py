"""Vectorized batch solver: numpy demand tensors + array water-filling.

Every figure artifact is a *sweep* over the operational-law solver, and
the methodology is matrix arithmetic over per-resource demand vectors —
exactly the shape numpy was built for.  This module solves an entire
sweep grid at once:

1. **Demand tensor assembly.**  Points are grouped by *shape* — (path,
   opcode, flow slot, duplex flag, admission-cap presence) — and each
   group's demand columns are computed as elementwise array expressions
   over the group's payload / requester / range / doorbell arrays,
   mirroring the scalar builders in :mod:`repro.core.throughput`
   term for term.  A :class:`ResourceRegistry` assigns every resource
   key a stable column index, replacing per-point string-keyed dicts
   with one dense ``(points x flows x resources)`` tensor.

2. **Array water-filling.**  Max-min fair-share growth runs across all
   points simultaneously: per-point saturating resources fall out of an
   ``argmin`` over headroom/load rows, flows touching them freeze via
   boolean masks, and the loop ends when every point has frozen (at
   most ``max flows per point`` iterations, regardless of grid size).

The scalar solver remains the reference implementation and the
automatic fallback: numpy is an *optional* dependency (the ``[fast]``
extra), imported lazily and never required.  Where the scalar solver
breaks delta ties by hash order and the batch solver by column order,
solved rates still agree (tied resources saturate together); everything
else is the same IEEE-754 arithmetic, elementwise.  The equivalence is
enforced to 1e-9 relative by hypothesis tests in
``tests/core/test_batch.py``.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.paths import CommPath, Opcode
from repro.core.throughput import _CTL_WIRE, Flow, Scenario, SolverResult
from repro.hw.pcie.tlp import TLP_HEADER_BYTES as HDR
from repro.net.topology import Testbed
from repro.nic.core import Endpoint

# ---------------------------------------------------------------------------
# Optional numpy (the [fast] extra) — imported lazily, never required.
# ---------------------------------------------------------------------------

_NUMPY: Any = None
_NUMPY_CHECKED = False


def _load_numpy():
    """The numpy module, or ``None`` when it is not installed."""
    global _NUMPY, _NUMPY_CHECKED
    if not _NUMPY_CHECKED:
        try:
            import numpy
            _NUMPY = numpy
        except ImportError:
            _NUMPY = None
        _NUMPY_CHECKED = True
    return _NUMPY


def _reset_numpy_cache() -> None:
    """Forget the cached import probe (test hook for the no-numpy path)."""
    global _NUMPY, _NUMPY_CHECKED
    _NUMPY = None
    _NUMPY_CHECKED = False


def numpy_available() -> bool:
    """True when the batch solver can run in this interpreter."""
    return _load_numpy() is not None


def require_numpy():
    np = _load_numpy()
    if np is None:
        raise ValueError(
            "the batch solver needs numpy (pip install 'repro[fast]'); "
            "Scenario.solve_batch and sweeps fall back to the scalar "
            "solver on their own")
    return np


# ---------------------------------------------------------------------------
# Engine telemetry
# ---------------------------------------------------------------------------


class EngineStats:
    """Per-backend point counts and solve wall-time, for telemetry.

    Counters are keyed ``engine.<backend>.*`` with backend ``scalar``
    (the reference solver) or ``vector`` (this module).
    """

    def __init__(self):
        self.points: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}
        self.batches: Dict[str, int] = {}

    def record(self, backend: str, points: int, seconds: float) -> None:
        self.points[backend] = self.points.get(backend, 0) + points
        self.seconds[backend] = self.seconds.get(backend, 0.0) + seconds
        self.batches[backend] = self.batches.get(backend, 0) + 1

    def clear(self) -> None:
        self.points.clear()
        self.seconds.clear()
        self.batches.clear()

    def counters(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for backend in sorted(self.points):
            prefix = f"engine.{backend}"
            out[f"{prefix}.points"] = self.points[backend]
            out[f"{prefix}.batches"] = self.batches[backend]
            out[f"{prefix}.solve_s"] = round(self.seconds[backend], 6)
        return out


#: Shared per-process engine accounting, surfaced by repro.telemetry.
ENGINE_STATS = EngineStats()


# ---------------------------------------------------------------------------
# Resource registry and the demand tensor
# ---------------------------------------------------------------------------


class ResourceRegistry:
    """Stable resource-key -> column-index mapping for one tensor.

    Indices are assigned in first-seen order, so the same grid always
    produces the same layout; unseen keys simply extend the registry.
    This is the substrate later what-if grids reuse: a column index is
    meaningful across every point of a batch.
    """

    def __init__(self):
        self.index: Dict[str, int] = {}
        self.names: List[str] = []

    def __len__(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        idx = self.index.get(name)
        if idx is None:
            idx = len(self.names)
            self.index[name] = idx
            self.names.append(name)
        return idx


@dataclass
class DemandTensor:
    """A whole sweep grid as dense arrays.

    ``demand[p, f, r]`` is flow ``f``-of-point-``p``'s service demand on
    resource ``r`` (ns per request); absent resources are 0, which the
    water-filling treats identically to a missing dict key.  ``valid``
    masks real flow slots (points may have fewer flows than the widest
    point in the batch).
    """

    demand: Any                  # float64 (points, flows, resources)
    weights: Any                 # float64 (points, flows)
    valid: Any                   # bool    (points, flows)
    registry: ResourceRegistry
    scenarios: List[Scenario] = field(default_factory=list)

    @property
    def resources(self) -> List[str]:
        return self.registry.names


# ---------------------------------------------------------------------------
# Vectorized demand construction
# ---------------------------------------------------------------------------

#: Group signature: everything that selects a code path (and therefore a
#: fixed resource-key set) in the scalar builders.
_GroupSig = Tuple[CommPath, Opcode, int, bool, bool]


class _Columns(dict):
    """Demand columns for one group: resource key -> float64 array."""

    def __init__(self, np, size: int):
        super().__init__()
        self._np = np
        self._size = size

    def add(self, key: str, value) -> None:
        np = self._np
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim == 0:
            arr = np.full(self._size, float(arr))
        if key in self:
            self[key] = self[key] + arr
        else:
            self[key] = arr


class _VecCounts:
    """Array-valued :class:`~repro.core.packets.PathPacketCounts`."""

    __slots__ = ("pcie1_to_nic", "pcie1_to_switch", "pcie0_to_host",
                 "pcie0_to_switch", "pcie1_to_nic_bytes",
                 "pcie1_to_switch_bytes", "pcie0_to_host_bytes",
                 "pcie0_to_switch_bytes")

    def __init__(self, z, **fields):
        for name in self.__slots__:
            setattr(self, name, fields.get(name, z))

    def __add__(self, other: "_VecCounts") -> "_VecCounts":
        out = _VecCounts.__new__(_VecCounts)
        for name in self.__slots__:
            setattr(out, name, getattr(self, name) + getattr(other, name))
        return out

    @property
    def pcie1_total(self):
        return self.pcie1_to_nic + self.pcie1_to_switch

    @property
    def pcie0_total(self):
        return self.pcie0_to_host + self.pcie0_to_switch


class VectorDemandBuilder:
    """Array mirror of ``Scenario``'s per-flow demand builders.

    Every expression matches the scalar code in
    :mod:`repro.core.throughput` term for term (same operations, same
    association), evaluated elementwise over a group's points, so the
    resulting columns are numerically interchangeable with the scalar
    dicts.  Demand semantics are documented there; this class only
    changes the evaluation shape.
    """

    def __init__(self, testbed: Testbed):
        self.testbed = testbed
        self.np = require_numpy()

    # .. shared helpers .......................................................

    def _net_packets(self, payload, cores_spec):
        np = self.np
        return np.maximum(1.0, np.ceil(payload / cores_spec.network_mtu))

    def _net_wire(self, payload, cores_spec):
        return payload + self._net_packets(payload, cores_spec) \
            * cores_spec.net_header_bytes

    def _post_cost(self, doorbell, batch):
        np = self.np
        return np.where(batch <= 1, doorbell.per_request,
                        doorbell.batch_fixed / batch + doorbell.per_wqe)

    def _client_side(self, op: Opcode, idx: int, cols: _Columns, nic_cores,
                     prefix: str, duplex: bool, requesters, batch,
                     payload) -> None:
        np = self.np
        testbed = self.testbed
        machines = np.minimum(requesters, float(testbed.n_clients))
        cost = self._post_cost(testbed.client_doorbell, batch)
        issue = machines * testbed.client_cpu.total_cores / cost
        cols.add(f"issue:clients:{idx}", 1.0 / issue)

        wire = self._net_wire(payload, nic_cores)
        if op is Opcode.READ:
            c2s, s2c = float(_CTL_WIRE), wire
        elif op is Opcode.WRITE:
            c2s, s2c = wire, float(_CTL_WIRE)
        else:  # SEND echo: payload out, small reply back
            c2s, s2c = wire, float(2 * _CTL_WIRE)
        net_cap = nic_cores.network_bandwidth * nic_cores.link_efficiency
        if duplex:
            net_cap *= nic_cores.duplex_derate
        cols.add(f"{prefix}net:c2s", c2s / net_cap)
        cols.add(f"{prefix}net:s2c", s2c / net_cap)

        per_client = min(testbed.client_nic.cores.network_bandwidth,
                         testbed.fabric.port_bandwidth)
        client_cap = machines * per_client
        cols.add(f"clientnet:{idx}:c2s", c2s / client_cap)
        cols.add(f"clientnet:{idx}:s2c", s2c / client_cap)

    def _verb_demand(self, op: Opcode, cols: _Columns,
                     endpoint: Optional[Endpoint], prefix: str, payload,
                     ops_factor: float = 1.0) -> None:
        spec = (self.testbed.rnic.spec.cores if prefix == "r"
                else self.testbed.snic.spec.cores)
        ops = self._net_packets(payload, spec) * ops_factor
        if op is Opcode.SEND:
            ops = ops * 2
        pool = "read" if op is Opcode.READ else "write"
        if prefix == "r":
            rate = (spec.verb_rate_host_only if pool == "read"
                    else spec.verb_rate_write_host)
            cols.add(f"rverbs:{pool}", ops / rate)
            return
        if pool == "read":
            rates = {"host": spec.verb_rate_host_only,
                     "soc": spec.verb_rate_soc_only,
                     "total": spec.verb_rate_concurrent}
        else:
            rates = {"host": spec.verb_rate_write_host,
                     "soc": spec.verb_rate_write_soc,
                     "total": spec.verb_rate_write_concurrent}
        if endpoint is not None:
            key = "host" if endpoint is Endpoint.HOST else "soc"
            cols.add(f"verbs:{pool}:{key}", ops / rates[key])
        cols.add(f"verbs:{pool}:total", ops / rates["total"])

    # .. packet counts (array mirror of PacketCountModel) .....................

    def _leg(self, endpoint: Endpoint, mem_op: str, nbytes) -> _VecCounts:
        np = self.np
        spec = self.testbed.snic.spec
        z = np.zeros_like(nbytes)
        read_chunk = spec.cores.max_read_request
        if endpoint is Endpoint.HOST:
            if mem_op == "read":
                reqs = np.ceil(nbytes / read_chunk)
                cpls = np.ceil(nbytes / spec.host_mps)
                cpl_bytes = nbytes + cpls * HDR
                return _VecCounts(
                    z, pcie1_to_nic=cpls, pcie1_to_switch=reqs,
                    pcie0_to_host=reqs, pcie0_to_switch=cpls,
                    pcie1_to_nic_bytes=cpl_bytes,
                    pcie1_to_switch_bytes=reqs * HDR,
                    pcie0_to_host_bytes=reqs * HDR,
                    pcie0_to_switch_bytes=cpl_bytes)
            tlps = np.ceil(nbytes / spec.host_mps)
            wire = nbytes + tlps * HDR
            return _VecCounts(z, pcie1_to_switch=tlps, pcie0_to_host=tlps,
                              pcie1_to_switch_bytes=wire,
                              pcie0_to_host_bytes=wire)
        if mem_op == "read":
            reqs = np.ceil(nbytes / read_chunk)
            cpls = np.ceil(nbytes / spec.soc_mps)
            return _VecCounts(z, pcie1_to_nic=cpls, pcie1_to_switch=reqs,
                              pcie1_to_nic_bytes=nbytes + cpls * HDR,
                              pcie1_to_switch_bytes=reqs * HDR)
        tlps = np.ceil(nbytes / spec.soc_mps)
        return _VecCounts(z, pcie1_to_switch=tlps,
                          pcie1_to_switch_bytes=nbytes + tlps * HDR)

    def _counts(self, path: CommPath, op: Opcode, nbytes) -> _VecCounts:
        """Per-request TLPs/wire bytes, elementwise over ``nbytes``.

        Matches ``PacketCountModel._compute_counts`` with
        ``include_requests=True``; zero payloads yield all-zero rows
        without a special case (every term is ``ceil(0/x) = 0``).
        """
        np = self.np
        spec = self.testbed.snic.spec
        z = np.zeros_like(nbytes)
        mem_op = op.memory_op
        if path is CommPath.RNIC1:
            if mem_op == "read":
                reqs = np.ceil(nbytes / spec.cores.max_read_request)
                cpls = np.ceil(nbytes / spec.host_mps)
                return _VecCounts(z, pcie0_to_host=reqs, pcie0_to_switch=cpls,
                                  pcie0_to_host_bytes=reqs * HDR,
                                  pcie0_to_switch_bytes=nbytes + cpls * HDR)
            tlps = np.ceil(nbytes / spec.host_mps)
            return _VecCounts(z, pcie0_to_host=tlps,
                              pcie0_to_host_bytes=nbytes + tlps * HDR)
        responder = path.ends.responder
        if not path.intra_machine:
            return self._leg(responder, mem_op, nbytes)
        requester_end = (Endpoint.HOST if path is CommPath.SNIC3_H2S
                         else Endpoint.SOC)
        if op is Opcode.READ:
            source, sink = responder, requester_end
        else:
            source, sink = requester_end, responder
        return self._leg(source, "read", nbytes) \
            + self._leg(sink, "write", nbytes)

    def _pcie_wire_demand(self, cols: _Columns, counts: _VecCounts) -> None:
        spec = self.testbed.snic.spec
        cap1 = spec.pcie1.bandwidth * spec.switch_derate
        cap0 = spec.pcie0.bandwidth * spec.switch_derate
        cols.add("pcie1:to_nic", counts.pcie1_to_nic_bytes / cap1)
        cols.add("pcie1:to_switch", counts.pcie1_to_switch_bytes / cap1)
        cols.add("pcie0:to_host", counts.pcie0_to_host_bytes / cap0)
        cols.add("pcie0:to_switch", counts.pcie0_to_switch_bytes / cap0)

    # .. memory / stall / DMA-engine mirrors ..................................

    def _mem_access_latency(self, memory, mem_op: str, range_bytes):
        np = self.np
        base = 50.0 if mem_op == "read" else 15.0
        if memory.ddio and memory.llc is not None:
            return np.where(range_bytes <= memory.llc.ddio_capacity,
                            memory.llc.hit_latency, base)
        return base

    def _mem_request_capacity(self, memory, mem_op: str, payload,
                              range_bytes):
        np = self.np
        safe_payload = np.where(payload > 0, payload, 1.0)
        cfg = memory.dram
        covered = np.ceil(range_bytes / cfg.bank_stripe)
        banks = np.maximum(1.0, np.minimum(float(cfg.total_banks), covered))
        bank_rate = (cfg.bank_read_rate if mem_op == "read"
                     else cfg.bank_write_rate)
        rate = banks * bank_rate
        channels = np.minimum(float(cfg.channels), banks)
        bandwidth = cfg.peak_bandwidth * channels
        if mem_op == "write":
            bandwidth = bandwidth * cfg.write_bandwidth_factor
        dram = np.where(payload > 0,
                        np.minimum(rate, bandwidth / safe_payload), rate)
        if memory.ddio and memory.llc is not None:
            llc = memory.llc
            llc_rate = (llc.dma_read_rate if mem_op == "read"
                        else llc.dma_write_rate)
            llc_cap = np.where(
                payload > 0,
                np.minimum(llc_rate, llc.bandwidth / safe_payload), llc_rate)
            return np.where(range_bytes <= llc.ddio_capacity, llc_cap, dram)
        return dram

    def _stall_windows(self, cols: _Columns, payload, range_bytes,
                       read_from: Optional[Endpoint],
                       write_to: Optional[Endpoint], prefix: str) -> None:
        np = self.np
        testbed = self.testbed
        mask = payload > 0
        if prefix == "r":
            cores = testbed.rnic.spec.cores
            crossing = {Endpoint.HOST: testbed.rnic.spec.host_link_latency}
            memory = {Endpoint.HOST: testbed.rnic.host_memory}
        else:
            snic = testbed.snic
            cores = snic.spec.cores
            crossing = {e: snic.crossing_latency(e) for e in Endpoint}
            memory = {e: snic.memory_of(e) for e in Endpoint}
        if read_from is not None:
            holding = (2 * crossing[read_from] + cores.nic_base_ns
                       + self._mem_access_latency(memory[read_from], "read",
                                                  range_bytes))
            cols.add(f"{prefix}dma:read_slots",
                     np.where(mask, holding / cores.read_slots, 0.0))
        if write_to is not None:
            holding = (crossing[write_to] + cores.nic_base_ns
                       + self._mem_access_latency(memory[write_to], "write",
                                                  range_bytes))
            cols.add(f"{prefix}dma:write_buffers",
                     np.where(mask, holding / cores.write_buffers, 0.0))

    def _dma_engine_demand(self, cols: _Columns, counts: _VecCounts,
                           payload, transactions: int, nonposted: bool,
                           min_mps: int, intra: bool, s2h: bool,
                           prefix: str) -> None:
        np = self.np
        cores = (self.testbed.rnic.spec.cores if prefix == "r"
                 else self.testbed.snic.spec.cores)
        mask = payload > 0
        ops_rate = (cores.dma_ops_soc if min_mps <= 128 and not intra
                    else cores.dma_ops_host)
        cols.add(f"{prefix}dma:ops",
                 np.where(mask, transactions / ops_rate, 0.0))
        hol_exposed = nonposted and min_mps <= 128
        threshold = cores.hol_threshold_s2h if s2h else cores.hol_threshold
        if hol_exposed:
            pps_cap = np.where(payload > threshold, cores.hol_pps,
                               cores.pcie_pps)
        else:
            pps_cap = cores.pcie_pps
        nic_tlps = (counts.pcie0_total if prefix == "r"
                    else counts.pcie1_total)
        cols.add(f"{prefix}dma:tlps",
                 np.where(mask, nic_tlps / pps_cap, 0.0))

    def _memory_demand(self, cols: _Columns, payload, range_bytes,
                       endpoint: Endpoint, mem_op: str, prefix: str) -> None:
        np = self.np
        mask = payload > 0
        if prefix == "r":
            memory = self.testbed.rnic.host_memory
            key = "rmem:host"
        else:
            memory = self.testbed.snic.memory_of(endpoint)
            key = f"mem:{'host' if endpoint is Endpoint.HOST else 'soc'}"
        cap = self._mem_request_capacity(memory, mem_op, payload, range_bytes)
        cols.add(key, np.where(mask, 1.0 / cap, 0.0))

    def _echo_demand(self, op: Opcode, cols: _Columns, endpoint: Endpoint,
                     prefix: str) -> None:
        if op is not Opcode.SEND:
            return
        testbed = self.testbed
        if prefix == "r":
            cols.add("rcpu:echo:host", 1.0 / testbed.host_cpu.echo_capacity())
            return
        snic_spec = testbed.snic.spec
        if endpoint is Endpoint.HOST:
            cap = (testbed.host_cpu.echo_capacity()
                   * snic_spec.cores.send_derate_snic)
            cols.add("cpu:host", 1.0 / cap)
        else:
            cols.add("cpu:soc", 1.0 / testbed.snic.soc.echo_capacity())

    # .. per-path group builders ..............................................

    def build(self, sig: _GroupSig, flows: Sequence[Flow]) -> Dict[str, Any]:
        """Demand columns for one group of same-shaped flows."""
        np = self.np
        path, op, idx, duplex, has_cap = sig
        payload = np.array([f.payload for f in flows], dtype=np.float64)
        requesters = np.array([f.requesters for f in flows],
                              dtype=np.float64)
        range_bytes = np.array([f.range_bytes for f in flows],
                               dtype=np.float64)
        batch = np.array([f.doorbell_batch for f in flows],
                         dtype=np.float64)
        cols = _Columns(np, len(flows))
        with np.errstate(divide="ignore", invalid="ignore"):
            if path is CommPath.RNIC1:
                self._build_rnic(op, idx, duplex, cols, payload, requesters,
                                 range_bytes, batch)
            elif path.intra_machine:
                self._build_path3(path, op, cols, payload, requesters,
                                  range_bytes, batch)
            else:
                self._build_client_snic(path, op, idx, duplex, cols, payload,
                                        requesters, range_bytes, batch)
        if has_cap:
            cap = np.array([f.rate_cap for f in flows], dtype=np.float64)
            cols[f"cap:{idx}"] = 1.0 / cap
        return cols

    def _build_rnic(self, op, idx, duplex, cols, payload, requesters,
                    range_bytes, batch) -> None:
        spec = self.testbed.rnic.spec
        self._client_side(op, idx, cols, spec.cores, "r", duplex, requesters,
                          batch, payload)
        self._verb_demand(op, cols, None, "r", payload)
        counts = self._counts(CommPath.RNIC1, op, payload)
        cap = spec.host_link.bandwidth
        cols.add("rpcie:to_host", counts.pcie0_to_host_bytes / cap)
        cols.add("rpcie:to_nic", counts.pcie0_to_switch_bytes / cap)
        nonposted = op is Opcode.READ
        transactions = 2 if nonposted else 1
        self._dma_engine_demand(cols, counts, payload, transactions,
                                nonposted, spec.host_mps, False, False, "r")
        mem_op = op.memory_op
        self._stall_windows(
            cols, payload, range_bytes,
            read_from=Endpoint.HOST if mem_op == "read" else None,
            write_to=Endpoint.HOST if mem_op == "write" else None,
            prefix="r")
        self._memory_demand(cols, payload, range_bytes, Endpoint.HOST,
                            mem_op, "r")
        self._echo_demand(op, cols, Endpoint.HOST, "r")

    def _build_client_snic(self, path, op, idx, duplex, cols, payload,
                           requesters, range_bytes, batch) -> None:
        snic = self.testbed.snic
        endpoint = path.ends.responder
        self._client_side(op, idx, cols, snic.spec.cores, "", duplex,
                          requesters, batch, payload)
        self._verb_demand(op, cols, endpoint, "", payload)
        counts = self._counts(path, op, payload)
        self._pcie_wire_demand(cols, counts)
        nonposted = op is Opcode.READ
        transactions = 2 if nonposted else 1
        self._dma_engine_demand(cols, counts, payload, transactions,
                                nonposted, snic.mps_for(endpoint), False,
                                False, "")
        mem_op = op.memory_op
        self._stall_windows(
            cols, payload, range_bytes,
            read_from=endpoint if mem_op == "read" else None,
            write_to=endpoint if mem_op == "write" else None,
            prefix="")
        self._memory_demand(cols, payload, range_bytes, endpoint, mem_op, "")
        self._echo_demand(op, cols, endpoint, "")

    def _build_path3(self, path, op, cols, payload, requesters, range_bytes,
                     batch) -> None:
        np = self.np
        testbed = self.testbed
        snic = testbed.snic
        h2s = path is CommPath.SNIC3_H2S

        if h2s:
            cost = self._post_cost(snic.spec.host_doorbell, batch)
            threads = np.minimum(requesters,
                                 float(testbed.host_cpu.total_cores))
            issue = threads / cost
            cols.add("issue:host", 1.0 / issue)
            cols.add("cpu:host", 0.5 / issue)
        else:
            cost = self._post_cost(snic.soc.doorbell, batch)
            threads = np.minimum(requesters,
                                 float(snic.soc.cpu.total_cores))
            issue = threads / cost
            cols.add("issue:soc", 1.0 / issue)
            cols.add("cpu:soc", 0.5 / issue)

        spec = snic.spec
        cap1 = spec.pcie1.bandwidth * spec.switch_derate
        cap0 = spec.pcie0.bandwidth * spec.switch_derate
        if h2s:
            for key, cap in (("pcie0:to_switch", cap0), ("pcie1:to_nic", cap1),
                             ("pcie1:to_switch", cap1), ("pcie0:to_host", cap0)):
                cols.add(key, 88.0 / cap)
        else:
            cols.add("pcie1:to_nic", 88.0 / cap1)
            cols.add("pcie1:to_switch", 88.0 / cap1)

        endpoint = path.ends.responder
        self._verb_demand(op, cols, None, "", payload, ops_factor=0.7)

        counts = self._counts(path, op, payload)
        self._pcie_wire_demand(cols, counts)
        requester_end = Endpoint.HOST if h2s else Endpoint.SOC
        if op is Opcode.READ:
            source, sink = endpoint, requester_end
        else:
            source, sink = requester_end, endpoint
        s2h_data = source is Endpoint.SOC
        self._dma_engine_demand(cols, counts, payload, 3, True, 128, True,
                                s2h_data, "")
        self._stall_windows(cols, payload, range_bytes, read_from=source,
                            write_to=sink, prefix="")
        self._memory_demand(cols, payload, range_bytes, source, "read", "")
        self._memory_demand(cols, payload, range_bytes, sink, "write", "")
        self._echo_demand(op, cols, endpoint, "")


# ---------------------------------------------------------------------------
# Tensor assembly
# ---------------------------------------------------------------------------


def assemble_demand_tensor(testbed: Testbed,
                           scenarios: Sequence[Scenario]) -> DemandTensor:
    """Build the dense ``(points x flows x resources)`` demand tensor.

    Flows are grouped by shape signature so each group's demand columns
    are produced by a handful of array expressions instead of
    ``len(group)`` scalar dict builds.
    """
    np = require_numpy()
    scenarios = list(scenarios)
    groups: Dict[_GroupSig, List[Tuple[int, Flow]]] = {}
    for p_idx, scenario in enumerate(scenarios):
        duplex = scenario._network_duplex_loaded()
        for s_idx, flow in enumerate(scenario.flows):
            sig = (flow.path, flow.op, s_idx, duplex,
                   flow.rate_cap is not None)
            groups.setdefault(sig, []).append((p_idx, flow))

    builder = VectorDemandBuilder(testbed)
    registry = ResourceRegistry()
    built = []
    for sig, members in groups.items():
        cols = builder.build(sig, [flow for _p, flow in members])
        for name in cols:
            registry.index_of(name)
        built.append((sig, members, cols))

    n_points = len(scenarios)
    max_flows = max(len(s.flows) for s in scenarios)
    demand = np.zeros((n_points, max_flows, len(registry)), dtype=np.float64)
    weights = np.zeros((n_points, max_flows), dtype=np.float64)
    valid = np.zeros((n_points, max_flows), dtype=bool)
    for sig, members, cols in built:
        slot = sig[2]
        points = np.fromiter((p for p, _f in members), dtype=np.intp,
                             count=len(members))
        for name, arr in cols.items():
            demand[points, slot, registry.index[name]] = arr
        weights[points, slot] = [flow.weight for _p, flow in members]
        valid[points, slot] = True
    return DemandTensor(demand=demand, weights=weights, valid=valid,
                        registry=registry, scenarios=scenarios)


# ---------------------------------------------------------------------------
# Array water-filling
# ---------------------------------------------------------------------------


def waterfill(tensor: DemandTensor):
    """Max-min water-filling over every point of the tensor at once.

    Returns ``(rates, bottlenecks, usage)`` arrays of shapes
    ``(points, flows)``, ``(points, flows)`` (column index, -1 = none)
    and ``(points, resources)``.  The grow-freeze iteration runs at most
    ``max flows per point`` times: every round each unfinished point
    saturates one resource (argmin over headroom/load) and freezes the
    flows that touch it.
    """
    np = require_numpy()
    demand, weights, valid = tensor.demand, tensor.weights, tensor.valid
    n_points, n_flows, _n_res = demand.shape
    rates = np.zeros((n_points, n_flows))
    usage = np.zeros(demand.shape[::2])
    bottlenecks = np.full((n_points, n_flows), -1, dtype=np.intp)
    active = valid.copy()
    alive = active.any(axis=1)
    rows = np.arange(n_points)
    for _ in range(n_flows + 1):
        if not alive.any():
            return rates, bottlenecks, usage
        grown_weight = np.where(active, weights, 0.0)
        load = np.einsum("pf,pfr->pr", grown_weight, demand)
        headroom = np.maximum(0.0, 1.0 - usage)
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = np.where(load > 0.0, headroom / load, np.inf)
        best = np.argmin(delta, axis=1)
        best_delta = delta[rows, best]
        # A point with no loadable resource mirrors the scalar ``break``.
        grow = alive & np.isfinite(best_delta)
        step = np.where(grow, best_delta, 0.0)
        rates += grown_weight * step[:, None]
        usage += step[:, None] * load
        best_demand = demand[rows, :, best]
        freeze = active & (best_demand > 0.0) & grow[:, None]
        bottlenecks = np.where(freeze, best[:, None], bottlenecks)
        active &= ~freeze
        alive = grow & active.any(axis=1)
    raise RuntimeError("water-filling failed to converge")  # pragma: no cover


# ---------------------------------------------------------------------------
# The batch solver
# ---------------------------------------------------------------------------


class BatchSolver:
    """Solve many scenarios as one demand tensor.

    Consults (and refills) the same content-keyed ``RESULT_CACHE`` as
    the scalar solver, so the backends interoperate: a point solved by
    either is a dictionary lookup for both afterwards.
    """

    def solve(self, testbed: Testbed, flow_sets: Sequence,
              use_cache: bool = True, timings=None) -> List[SolverResult]:
        np = require_numpy()
        from contextlib import nullcontext

        from repro.core import throughput

        scenarios = [flows if isinstance(flows, Scenario)
                     else Scenario(testbed, list(flows))
                     for flows in flow_sets]
        results: List[Optional[SolverResult]] = [None] * len(scenarios)
        cache_on = use_cache and throughput._cache_enabled
        if cache_on:
            self._prime_keys(testbed, scenarios)
            cache_get = throughput.RESULT_CACHE.get
            for i, scenario in enumerate(scenarios):
                results[i] = cache_get(scenario.key)
        todo = [i for i, result in enumerate(results) if result is None]
        if not todo:
            return results

        def stage(name):
            return timings.stage(name) if timings is not None \
                else nullcontext()

        start = time.perf_counter()
        with stage("demand_assembly"):
            tensor = assemble_demand_tensor(
                testbed, [scenarios[i] for i in todo])
        self._check_bounded(np, tensor)
        with stage("solve"):
            rates, bottlenecks, usage = waterfill(tensor)
        names = tensor.resources
        # Bulk ndarray -> Python conversions: one pass over the whole
        # grid instead of per-point numpy calls (the per-point loop
        # dominated cold wall-time on wide sweeps).  Points in one
        # sweep share a handful of touched-resource patterns, so the
        # (getter, name-tuple) selector per pattern is built once.
        touched = (tensor.demand > 0).any(axis=1)
        packed = np.packbits(touched, axis=1)
        row_width = packed.shape[1]
        packed_bytes = packed.tobytes()
        selectors: Dict[bytes, Tuple[Any, Tuple[str, ...]]] = {}

        def selector_for(j: int) -> Tuple[Any, Tuple[str, ...]]:
            cols = np.nonzero(touched[j])[0].tolist()
            if not cols:  # unreachable: _check_bounded guards demand
                return (lambda row: (), ())  # pragma: no cover
            if len(cols) == 1:
                getter = operator.itemgetter(cols[0])
                return (lambda row, g=getter: (g(row),), (names[cols[0]],))
            return (operator.itemgetter(*cols),
                    tuple(names[c] for c in cols))

        rates_rows = rates.tolist()
        # Resolve bottleneck indices to names in one fancy-index pass;
        # the -1 "unfrozen" sentinel picks the trailing "" entry.
        name_lookup = np.array(names + [""], dtype=object)
        bneck_rows = name_lookup[bottlenecks].tolist()
        usage_rows = usage.tolist()
        width = rates.shape[1]
        cache_put = throughput.RESULT_CACHE.put
        for j, i in enumerate(todo):
            scenario = scenarios[i]
            n = len(scenario.flows)
            pattern = packed_bytes[j * row_width:(j + 1) * row_width]
            selector = selectors.get(pattern)
            if selector is None:
                selector = selectors[pattern] = selector_for(j)
            getter, touched_names = selector
            result = SolverResult(
                flows=list(scenario.flows),
                rates=rates_rows[j] if n == width else rates_rows[j][:n],
                bottlenecks=(bneck_rows[j] if n == width
                             else bneck_rows[j][:n]),
                utilization=dict(zip(touched_names, getter(usage_rows[j]))))
            if cache_on:
                cache_put(scenario.key, result)
            results[i] = result
        ENGINE_STATS.record("vector", len(todo),
                            time.perf_counter() - start)
        return results

    @staticmethod
    def _prime_keys(testbed: Testbed, scenarios: Sequence[Scenario]) -> None:
        """Fill each scenario's memoized cache key with shared lookups.

        Equivalent to touching ``scenario.key`` per point, but the
        testbed fingerprint is resolved once for the whole batch
        instead of through a weakref lookup per scenario.
        """
        from repro.core.cache import (ScenarioKey, _flow_fingerprint,
                                      testbed_fingerprint)

        tb_fp = testbed_fingerprint(testbed)
        for scenario in scenarios:
            if scenario._key is None and scenario.testbed is testbed:
                scenario._key = ScenarioKey(
                    testbed=tb_fp,
                    flows=tuple(_flow_fingerprint(flow)
                                for flow in scenario.flows))

    @staticmethod
    def _check_bounded(np, tensor: DemandTensor) -> None:
        """Mirror the scalar guard: every flow must demand something."""
        bounded = (tensor.demand > 0).any(axis=2)
        bad = tensor.valid & ~bounded
        if bad.any():
            point, slot = (int(x) for x in np.argwhere(bad)[0])
            flow = tensor.scenarios[point].flows[slot]
            raise ValueError(f"flow {flow.name!r} has no demand; "
                             "cannot bound its rate")
