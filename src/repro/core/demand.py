"""The per-flow demand model: ns each resource is busy per request.

One builder, evaluated under two array namespaces
(:mod:`repro.arrays`): the scalar solver prices one
:class:`~repro.core.throughput.Flow` on Python numbers, and the batch
solver prices a whole group of same-shaped flows on numpy arrays.
Either way the terms come from the same expressions here, from the
Table-3 packet counts (:class:`~repro.core.packets.PacketCountModel`),
from the memory subsystems' capacity and latency queries, and from the
testbed's posting rates, so a scalar demand dict and its row of the
batch solver's demand matrix are equal by construction.

The branch a flow takes is fixed by its group signature ``(path, op,
slot, duplex, has_cap)``; only payload, requesters, range, doorbell
batch and rate cap vary within a group.  A condition on one of those
is an ``xp.where``; a condition on the signature is a plain ``if``.

A new device's demand terms go here, once: a new path is a branch of
:meth:`DemandModel.build`, and a new resource is one ``terms.add``.
Its spec numbers go in :mod:`repro.nic.specs`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from repro.arrays import namespace_of
from repro.core.packets import PacketCountModel, PathPacketCounts
from repro.core.paths import CommPath, Opcode
from repro.net.topology import Testbed
from repro.nic.core import Endpoint

CTL_WIRE = 36  # wire bytes of a header-only network packet (req/ack)

#: (verb pool, issuer) -> NIC core-spec verb-rate attribute.
_VERB_RATES = {
    ("read", "host"): "verb_rate_host_only",
    ("read", "soc"): "verb_rate_soc_only",
    ("read", "total"): "verb_rate_concurrent",
    ("write", "host"): "verb_rate_write_host",
    ("write", "soc"): "verb_rate_write_soc",
    ("write", "total"): "verb_rate_write_concurrent",
}


class DemandModel:
    """Per-flow demand terms on one testbed.

    Resource keys carry an ``r`` prefix on the RNIC baseline (``rnet:``,
    ``rdma:``, ...) and none on the SmartNIC; ``:{slot}`` suffixes mark
    per-flow private resources (a flow's clients, its admission cap).
    """

    def __init__(self, testbed: Testbed):
        self.testbed = testbed
        snic, rnic = testbed.snic, testbed.rnic
        spec = snic.spec
        self.packets = PacketCountModel(spec)
        self._pcie1_cap = spec.pcie1.bandwidth * spec.switch_derate
        self._pcie0_cap = spec.pcie0.bandwidth * spec.switch_derate
        #: Key prefix -> (NIC core spec, DMA target -> (one-way crossing
        #: ns, memory subsystem)).
        self._nics = {
            "r": (rnic.spec.cores, {Endpoint.HOST: (
                rnic.spec.host_link_latency, rnic.host_memory)}),
            "": (spec.cores, {e: (snic.crossing_latency(e), snic.memory_of(e))
                              for e in Endpoint}),
        }

    def build(self, path: CommPath, op: Opcode, idx: int, duplex: bool, flow):
        """Demand terms of flow slot ``idx``: resource key -> ns/request.

        ``flow`` supplies ``payload``, ``requesters``, ``range_bytes``,
        ``doorbell_batch`` and ``rate_cap``: numbers for one flow (a
        :class:`~repro.core.throughput.Flow`), or float64 arrays over a
        group of flows sharing ``(path, op, idx, duplex, rate_cap is not
        None)``.  The payload's type picks the namespace.
        """
        xp = namespace_of(flow.payload)
        terms = xp.terms()
        if path.intra_machine:
            self._path3(xp, terms, path, op, flow)
        else:
            self._client_path(xp, terms, path, op, idx, duplex, flow)
        if flow.rate_cap is not None:
            # A private resource saturating exactly at the admission cap.
            terms.add(f"cap:{idx}", 1.0 / flow.rate_cap)
        return terms

    # .. per-path builders ....................................................

    def _client_path(self, xp, terms, path: CommPath, op: Opcode, idx: int,
                     duplex: bool, flow) -> None:
        """Paths ① (SmartNIC or RNIC baseline) and ②: clients drive."""
        testbed = self.testbed
        if path is CommPath.RNIC1:
            prefix, endpoint, verb_endpoint = "r", Endpoint.HOST, None
        else:
            prefix = ""
            endpoint = verb_endpoint = path.ends.responder
        self._client_side(xp, terms, op, idx, prefix, duplex, flow)
        self._verb_demand(xp, terms, op, verb_endpoint, prefix, flow.payload)
        counts = self.packets.counts(path, op, flow.payload)
        if prefix == "r":
            spec = testbed.rnic.spec
            cap = spec.host_link.bandwidth
            terms.add("rpcie:to_host", counts.pcie0_to_host_bytes / cap)
            terms.add("rpcie:to_nic", counts.pcie0_to_switch_bytes / cap)
            min_mps = spec.host_mps
        else:
            self._pcie_wire_demand(terms, counts)
            min_mps = testbed.snic.mps_for(endpoint)
        nonposted = op is Opcode.READ
        transactions = 2 if nonposted else 1
        self._dma_engine_demand(xp, terms, flow, counts, transactions,
                                nonposted, min_mps, False, False, prefix)
        mem_op = op.memory_op
        self._stall_windows(
            xp, terms, flow,
            read_from=endpoint if mem_op == "read" else None,
            write_to=endpoint if mem_op == "write" else None,
            prefix=prefix)
        self._memory_demand(xp, terms, flow, endpoint, mem_op, prefix)
        self._echo_demand(terms, op, endpoint, prefix)

    def _path3(self, xp, terms, path: CommPath, op: Opcode, flow) -> None:
        """Path ③: host and SoC talk through the NIC (§3.3 Advice #3)."""
        testbed = self.testbed
        h2s = path is CommPath.SNIC3_H2S

        # Requester posting (threads of the host or the SoC).  Posting
        # also steals cycles from whatever else runs on those cores
        # (e.g. an echo server) — the S4 SEND interference; calibrated
        # at half a posting slot of shared-CPU time per request.
        if h2s:
            issue = testbed.host_issue_capacity(flow.requesters,
                                                flow.doorbell_batch)
            terms.add("issue:host", 1.0 / issue)
            terms.add("cpu:host", 0.5 / issue)
        else:
            issue = testbed.soc_issue_capacity(flow.requesters,
                                               flow.doorbell_batch)
            terms.add("issue:soc", 1.0 / issue)
            terms.add("cpu:soc", 0.5 / issue)

        # Doorbell + CQE TLPs between requester and NIC (88 wire bytes
        # each way; routed over the internal fabric).
        cap1, cap0 = self._pcie1_cap, self._pcie0_cap
        if h2s:
            for key, cap in (("pcie0:to_switch", cap0),
                             ("pcie1:to_nic", cap1),
                             ("pcie1:to_switch", cap1),
                             ("pcie0:to_host", cap0)):
                terms.add(key, 88.0 / cap)
        else:
            terms.add("pcie1:to_nic", 88.0 / cap1)
            terms.add("pcie1:to_switch", 88.0 / cap1)

        # NIC verb processing: path-3 requests occupy a fraction of a
        # shared-pool slot (calibrated: the 7-15 % READ interference of S4).
        endpoint = path.ends.responder
        self._verb_demand(xp, terms, op, None, "", flow.payload,
                          ops_factor=0.7)

        # Data movement: fetch (non-posted) + deliver legs.
        counts = self.packets.counts(path, op, flow.payload)
        self._pcie_wire_demand(terms, counts)
        requester_end = Endpoint.HOST if h2s else Endpoint.SOC
        if op is Opcode.READ:
            source, sink = endpoint, requester_end
        else:
            source, sink = requester_end, endpoint
        s2h_data = source is Endpoint.SOC  # data leaves the SoC first
        self._dma_engine_demand(xp, terms, flow, counts, 3, True, 128, True,
                                s2h_data, "")
        self._stall_windows(xp, terms, flow, read_from=source, write_to=sink,
                            prefix="")
        self._memory_demand(xp, terms, flow, source, "read", "")
        self._memory_demand(xp, terms, flow, sink, "write", "")
        self._echo_demand(terms, op, endpoint, "")

    # .. terms ................................................................

    @staticmethod
    def _net_packets(xp, payload, cores):
        """Network MTU segments of one request."""
        return xp.maximum(1, xp.ceil(payload / cores.network_mtu))

    def _client_side(self, xp, terms, op: Opcode, idx: int, prefix: str,
                     duplex: bool, flow) -> None:
        """Requester-side demands for client-driven paths (①, ②)."""
        testbed = self.testbed
        cores = self._nics[prefix][0]
        issue = testbed.client_issue_capacity(flow.requesters,
                                              flow.doorbell_batch)
        terms.add(f"issue:clients:{idx}", 1.0 / issue)

        wire = (flow.payload + self._net_packets(xp, flow.payload, cores)
                * cores.net_header_bytes)
        if op is Opcode.READ:
            c2s, s2c = CTL_WIRE, wire
        elif op is Opcode.WRITE:
            c2s, s2c = wire, CTL_WIRE
        else:  # SEND echo: payload out, small reply back
            c2s, s2c = wire, 2 * CTL_WIRE
        net_cap = cores.network_bandwidth * cores.link_efficiency
        if duplex:
            net_cap *= cores.duplex_derate
        terms.add(f"{prefix}net:c2s", c2s / net_cap)
        terms.add(f"{prefix}net:s2c", s2c / net_cap)

        client_cap = testbed.client_network_capacity(flow.requesters)
        terms.add(f"clientnet:{idx}:c2s", c2s / client_cap)
        terms.add(f"clientnet:{idx}:s2c", s2c / client_cap)

    def _verb_demand(self, xp, terms, op: Opcode,
                     endpoint: Optional[Endpoint], prefix: str, payload,
                     ops_factor: float = 1.0) -> None:
        cores = self._nics[prefix][0]
        ops = self._net_packets(xp, payload, cores) * ops_factor
        if op is Opcode.SEND:
            ops = ops * 2  # receive processing + response transmission
        pool = "read" if op is Opcode.READ else "write"
        if prefix == "r":
            terms.add(f"rverbs:{pool}",
                      ops / getattr(cores, _VERB_RATES[pool, "host"]))
            return
        if endpoint is not None:
            terms.add(f"verbs:{pool}:{endpoint.value}",
                      ops / getattr(cores, _VERB_RATES[pool, endpoint.value]))
        terms.add(f"verbs:{pool}:total",
                  ops / getattr(cores, _VERB_RATES[pool, "total"]))

    def _pcie_wire_demand(self, terms, counts: PathPacketCounts) -> None:
        cap1, cap0 = self._pcie1_cap, self._pcie0_cap
        terms.add("pcie1:to_nic", counts.pcie1_to_nic_bytes / cap1)
        terms.add("pcie1:to_switch", counts.pcie1_to_switch_bytes / cap1)
        terms.add("pcie0:to_host", counts.pcie0_to_host_bytes / cap0)
        terms.add("pcie0:to_switch", counts.pcie0_to_switch_bytes / cap0)

    def _stall_windows(self, xp, terms, flow, read_from: Optional[Endpoint],
                       write_to: Optional[Endpoint], prefix: str) -> None:
        """Outstanding-transaction occupancy (§3.1 stall mechanism)."""
        cores, ends = self._nics[prefix]
        live = flow.payload > 0
        if read_from is not None:
            crossing, memory = ends[read_from]
            holding = (2 * crossing + cores.nic_base_ns
                       + memory.dma_access_latency("read", flow.range_bytes))
            terms.add(f"{prefix}dma:read_slots",
                      xp.where(live, holding / cores.read_slots, 0.0))
        if write_to is not None:
            crossing, memory = ends[write_to]
            holding = (crossing + cores.nic_base_ns
                       + memory.dma_access_latency("write", flow.range_bytes))
            terms.add(f"{prefix}dma:write_buffers",
                      xp.where(live, holding / cores.write_buffers, 0.0))

    def _dma_engine_demand(self, xp, terms, flow, counts: PathPacketCounts,
                           transactions: int, nonposted: bool, min_mps: int,
                           intra: bool, s2h: bool, prefix: str) -> None:
        cores = self._nics[prefix][0]
        live = flow.payload > 0
        ops_rate = (cores.dma_ops_soc if min_mps <= 128 and not intra
                    else cores.dma_ops_host)
        terms.add(f"{prefix}dma:ops",
                  xp.where(live, transactions / ops_rate, 0.0))
        pps_cap = cores.pcie_pps
        if nonposted and min_mps <= 128:  # head-of-line exposed
            threshold = cores.hol_threshold_s2h if s2h else cores.hol_threshold
            pps_cap = xp.where(flow.payload > threshold, cores.hol_pps,
                               pps_cap)
        # The engine handles the TLPs adjacent to the NIC (its own PCIe
        # port) — pcie1 for the SmartNIC, the host link for the RNIC.
        nic_tlps = counts.pcie0_total if prefix == "r" else counts.pcie1_total
        terms.add(f"{prefix}dma:tlps", xp.where(live, nic_tlps / pps_cap, 0.0))

    def _memory_demand(self, xp, terms, flow, endpoint: Endpoint, op: str,
                       prefix: str) -> None:
        _crossing, memory = self._nics[prefix][1][endpoint]
        cap = memory.dma_request_capacity(op, flow.payload, flow.range_bytes)
        terms.add(f"{prefix}mem:{endpoint.value}",
                  xp.where(flow.payload > 0, 1.0 / cap, 0.0))

    def _echo_demand(self, terms, op: Opcode, endpoint: Endpoint,
                     prefix: str) -> None:
        if op is not Opcode.SEND:
            return
        testbed = self.testbed
        if prefix == "r":
            terms.add("rcpu:echo:host", 1.0 / testbed.host_cpu.echo_capacity())
        elif endpoint is Endpoint.HOST:
            cap = (testbed.host_cpu.echo_capacity()
                   * testbed.snic.spec.cores.send_derate_snic)
            terms.add("cpu:host", 1.0 / cap)
        else:
            terms.add("cpu:soc", 1.0 / testbed.snic.soc.echo_capacity())


@lru_cache(maxsize=64)
def demand_model(testbed: Testbed) -> DemandModel:
    """The shared demand model of ``testbed``, built once per testbed."""
    return DemandModel(testbed)
