"""Queue pairs: RC for one-sided verbs, UD for datagram SEND/RECV.

A queue pair belongs to one node.  Posting a verb starts a discrete-event
process that replays the hardware's execution flow — posting cost at the
requester CPU, NIC pipelines, network channels, and the responder-side
DMA over the SmartNIC's internal fabric — then delivers a completion.

RC QPs implement the reliability protocol: each work request carries a
packet sequence number, and any leg of its execution poisoned by a fault
injector (see :mod:`repro.faults`) resolves to :data:`~repro.sim.LOST`.
The requester then waits an ack-timeout with exponential backoff and
retransmits, up to ``retry_cnt`` times before wedging the QP with
``RETRY_EXC_ERR``.  An RC SEND that finds no receive buffer posted draws
an RNR NAK and is retried after ``rnr_timer_ns``, up to ``rnr_retry``
times.  Fault-free runs never enter any of these paths and execute the
exact event sequence of the unmodified stack.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import Deque, Optional, Set, Tuple, TYPE_CHECKING

from repro.rdma import transport
from repro.rdma.cq import Completion, CompletionQueue
from repro.rdma.mr import AccessError, MemoryRegion
from repro.rdma.opcodes import CompletionStatus, WorkOpcode
from repro.rdma.srq import SharedReceiveQueue
from repro.sim.links import LOST
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.cluster import Node


class QPType(Enum):
    RC = "rc"   # reliable connection: READ/WRITE/SEND
    UD = "ud"   # unreliable datagram: SEND/RECV only


class QPState(Enum):
    """The ibv_qp_state subset the stack models.

    RC QPs walk RESET -> INIT -> RTR -> RTS (or take the
    :meth:`QueuePair.connect` shortcut); UD QPs are created ready.
    A fatal error (remote access fault, retry exhaustion) moves the QP
    to ERROR, after which posts flush with
    :attr:`CompletionStatus.FLUSH_ERROR` until the owner recycles it
    through RESET back up to RTS (see :meth:`QueuePair.recover`).
    """

    RESET = "reset"
    INIT = "init"
    RTR = "rtr"    # ready to receive
    RTS = "rts"    # ready to send
    ERROR = "error"


# Legal forward transitions (plus anything -> ERROR / RESET).
_TRANSITIONS = {
    QPState.RESET: {QPState.INIT},
    QPState.INIT: {QPState.RTR},
    QPState.RTR: {QPState.RTS},
    QPState.RTS: set(),
    QPState.ERROR: set(),
}

# Completion statuses that wedge the QP (ibv semantics).
_FATAL_STATUSES = frozenset({
    CompletionStatus.REMOTE_ACCESS_ERROR,
    CompletionStatus.RETRY_EXC_ERR,
    CompletionStatus.RNR_RETRY_EXC_ERR,
})

# Attempt outcomes of the RC reliability loop (LOST is the third).
_OK = object()
_RNR = object()


class QPError(Exception):
    """QP misuse: wrong type, wrong state, not connected, bad sizes."""


class QueuePair:
    """One queue pair plus its execution engine."""

    def __init__(self, node: "Node", qp_type: QPType,
                 send_cq: CompletionQueue, recv_cq: CompletionQueue,
                 max_inline: int = 188, max_send_wr: int = 1024,
                 max_recv_wr: int = 4096, srq: "SharedReceiveQueue" = None):
        if max_send_wr < 1 or max_recv_wr < 1:
            raise QPError("queue depths must be >= 1")
        if node.cluster is None:
            raise QPError(
                f"node {node.name!r} is not attached to a cluster; QPs can "
                "only be created on nodes owned by a SimCluster")
        self.node = node
        # A node's cluster is fixed once attached; every verb reads these.
        self.cluster = node.cluster
        self.sim = node.cluster.sim
        self.qp_type = qp_type
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.max_inline = max_inline
        self.max_send_wr = max_send_wr
        self.max_recv_wr = max_recv_wr
        self.srq = srq
        if srq is not None and srq.node is not node:
            raise QPError("SRQ belongs to another node")
        self.qpn = node.cluster.register_qp(self)
        self.peer: Optional["QueuePair"] = None
        self._recv_queue: Deque[Tuple[int, MemoryRegion, int, int]] = deque()
        self.dropped_receives = 0
        self.outstanding_sends = 0
        # UD QPs are usable immediately; RC must connect (or modify_qp).
        self.state = QPState.RTS if qp_type is QPType.UD else QPState.RESET
        # Source addressing for UD replies (like the src fields of a wc).
        self.inbound_sources: Deque[int] = deque()
        # -- RC reliability protocol (ibv_qp_attr knobs) -----------------
        self.retry_cnt = 7            # transport retries before RETRY_EXC_ERR
        self.rnr_retry = 7            # RNR retries before RNR_RETRY_EXC_ERR
        self.timeout_ns = 16_000.0    # initial ack timeout
        self.max_timeout_ns = 256_000.0   # backoff cap
        self.rnr_timer_ns = 10_000.0  # wait after an RNR NAK
        self.sq_psn = 0               # next packet sequence number
        # PSNs whose payload this QP already applied (responder-side
        # dedup of retransmits whose ack was lost); only populated when
        # a fault injector is installed.
        self._seen_psns: Set[int] = set()
        self._needs_recovery = False

    # -- connection management ------------------------------------------------------

    def modify_qp(self, new_state: QPState) -> None:
        """Walk the QP state machine (ibv_modify_qp).

        ERROR and RESET are reachable from anywhere; other transitions
        must follow RESET -> INIT -> RTR -> RTS.  Moving to RESET wipes
        queued receives and sequence state; reaching RTS again after an
        ERROR counts one ``qp.recoveries``.
        """
        if new_state is QPState.ERROR:
            self.state = new_state
            self._needs_recovery = True
            return
        if new_state is QPState.RESET:
            self.state = new_state
            self._recv_queue.clear()
            self.inbound_sources.clear()
            self._seen_psns.clear()
            self.sq_psn = 0
            self.outstanding_sends = 0
            return
        if new_state not in _TRANSITIONS[self.state]:
            raise QPError(
                f"illegal transition {self.state.value} -> {new_state.value}")
        self.state = new_state
        if new_state is QPState.RTS and self._needs_recovery:
            self._needs_recovery = False
            self.node.cluster.bump("qp.recoveries")

    def recover(self) -> None:
        """Recycle an errored QP: ERROR -> RESET -> INIT -> RTR -> RTS.

        The RC connection (``peer``) is retained; receives must be
        reposted by the owner afterwards.
        """
        for state in (QPState.RESET, QPState.INIT, QPState.RTR, QPState.RTS):
            self.modify_qp(state)

    def connect(self, peer: "QueuePair") -> None:
        """Bring an RC pair to RTS; both ends become connected."""
        if self.qp_type is not QPType.RC:
            raise QPError("only RC QPs are connected")
        if peer.qp_type is not QPType.RC:
            raise QPError("peer is not an RC QP")
        if self.peer is not None or peer.peer is not None:
            raise QPError("QP already connected")
        for qp in (self, peer):
            if qp.state is not QPState.RESET:
                raise QPError(f"cannot connect a QP in state {qp.state.value}")
        self.peer = peer
        peer.peer = self
        for qp in (self, peer):
            qp.state = QPState.RTS

    def _require_peer(self) -> "QueuePair":
        if self.peer is None:
            raise QPError("RC QP is not connected")
        return self.peer

    # -- receive side ---------------------------------------------------------------

    def post_recv(self, wr_id: int, mr: MemoryRegion, offset: int = 0,
                  length: Optional[int] = None) -> None:
        """Queue a receive buffer for inbound SENDs."""
        if self.srq is not None:
            raise QPError("QP uses an SRQ; post receives there")
        if self.state is QPState.RESET:
            raise QPError("cannot post receives on a RESET QP")
        if mr.node is not self.node:
            raise AccessError("recv MR belongs to another node")
        length = mr.length - offset if length is None else length
        if length <= 0 or offset < 0 or offset + length > mr.length:
            raise QPError(f"bad recv buffer [{offset}, {offset + length})")
        if len(self._recv_queue) >= self.max_recv_wr:
            raise QPError(f"receive queue full ({self.max_recv_wr})")
        self._recv_queue.append((wr_id, mr, offset, length))

    @property
    def recv_queue_depth(self) -> int:
        if self.srq is not None:
            return len(self.srq)
        return len(self._recv_queue)

    # -- send side --------------------------------------------------------------------

    def post_read(self, wr_id: int, local_mr: MemoryRegion,
                  remote_mr: MemoryRegion, length: int,
                  local_offset: int = 0, remote_offset: int = 0,
                  rkey: Optional[int] = None, signaled: bool = True,
                  posting_delay: Optional[float] = None) -> Process:
        """One-sided READ: pull remote bytes into the local buffer."""
        self._check_one_sided(local_mr, length)
        if not self._admit_send(wr_id, WorkOpcode.READ):
            return self._flushed()
        rkey = remote_mr.rkey if rkey is None else rkey
        gen = self._run_one_sided(
            WorkOpcode.READ, wr_id, local_mr, local_offset, remote_mr,
            remote_offset, length, rkey, signaled, posting_delay)
        return self.sim.process(self._traced(gen, WorkOpcode.READ,
                                             length, wr_id))

    def post_write(self, wr_id: int, local_mr: MemoryRegion,
                   remote_mr: MemoryRegion, length: int,
                   local_offset: int = 0, remote_offset: int = 0,
                   rkey: Optional[int] = None, signaled: bool = True,
                   posting_delay: Optional[float] = None) -> Process:
        """One-sided WRITE: push local bytes into the remote buffer."""
        self._check_one_sided(local_mr, length)
        if not self._admit_send(wr_id, WorkOpcode.WRITE):
            return self._flushed()
        rkey = remote_mr.rkey if rkey is None else rkey
        gen = self._run_one_sided(
            WorkOpcode.WRITE, wr_id, local_mr, local_offset, remote_mr,
            remote_offset, length, rkey, signaled, posting_delay)
        return self.sim.process(self._traced(gen, WorkOpcode.WRITE,
                                             length, wr_id))

    def post_send(self, wr_id: int, data: bytes,
                  dest: Optional["QueuePair"] = None, signaled: bool = True,
                  posting_delay: Optional[float] = None) -> Process:
        """Two-sided SEND of ``data`` to the peer (RC) or ``dest`` (UD)."""
        if self.qp_type is QPType.RC:
            if dest is not None and dest is not self.peer:
                raise QPError("RC SEND goes to the connected peer")
            target = self._require_peer()
        else:
            if dest is None:
                raise QPError("UD SEND needs an explicit destination QP")
            target = dest
        if not self._admit_send(wr_id, WorkOpcode.SEND):
            return self._flushed()
        gen = self._run_send(wr_id, data, target, signaled, posting_delay)
        return self.sim.process(self._traced(gen, WorkOpcode.SEND,
                                             len(data), wr_id,
                                             responder=target.node))

    # -- checks -----------------------------------------------------------------------

    def _check_one_sided(self, local_mr: MemoryRegion, length: int) -> None:
        if self.qp_type is not QPType.RC:
            raise QPError("one-sided verbs need an RC QP")
        self._require_peer()
        if local_mr.node is not self.node:
            raise AccessError("local MR belongs to another node")
        if length < 0:
            raise QPError(f"negative length: {length}")

    def _admit_send(self, wr_id: int, opcode: WorkOpcode) -> bool:
        """Send-queue admission: depth limit and error-state flushing.

        Returns False when the WR must flush instead of executing.
        """
        if self.state is QPState.ERROR:
            self.send_cq.push(Completion(
                wr_id=wr_id, opcode=opcode,
                status=CompletionStatus.FLUSH_ERROR, byte_len=0,
                timestamp=self.sim.now))
            return False
        if self.state is not QPState.RTS:
            raise QPError(f"cannot post sends in state {self.state.value}")
        if self.outstanding_sends >= self.max_send_wr:
            raise QPError(f"send queue full ({self.max_send_wr})")
        self.outstanding_sends += 1
        return True

    def _traced(self, gen, opcode: WorkOpcode, nbytes: int, wr_id: int,
                responder: Optional["Node"] = None):
        """Wrap an execution generator in a root span when tracing.

        A no-op pass-through (same generator object) on untraced runs,
        so the event sequence is untouched.
        """
        tracer = self.sim.tracer
        if tracer is None:
            return gen
        if responder is None:
            responder = self._require_peer().node
        return tracer.trace_verb(gen, requester=self.node,
                                 responder=responder,
                                 verb=opcode.name.lower(), payload=nbytes,
                                 wr_id=wr_id, qpn=self.qpn,
                                 qp_type=self.qp_type.value)

    def _flushed(self) -> Process:
        """A no-op process standing in for a flushed work request."""
        def nothing():
            return None
            yield  # pragma: no cover - makes this a generator
        return self.sim.process(nothing())

    def _posting(self, posting_delay: Optional[float]) -> float:
        base = (posting_delay if posting_delay is not None
                else self.node.cpu.posting_latency())
        injector = self.cluster.fault_injector
        if injector is not None:
            base *= injector.cpu_factor(self.node, self.sim.now)
        return base

    def _complete(self, wr_id: int, opcode: WorkOpcode, nbytes: int,
                  signaled: bool,
                  status: CompletionStatus = CompletionStatus.SUCCESS) -> None:
        self.outstanding_sends = max(0, self.outstanding_sends - 1)
        if status in _FATAL_STATUSES:
            # A fatal RC error wedges the QP (ibv semantics).
            self.state = QPState.ERROR
            self._needs_recovery = True
        if signaled or status is not CompletionStatus.SUCCESS:
            self.send_cq.push(Completion(wr_id=wr_id, opcode=opcode,
                                         status=status, byte_len=nbytes,
                                         timestamp=self.sim.now))

    # -- RC reliability -------------------------------------------------------------

    def _with_reliability(self, wr_id: int, opcode: WorkOpcode, nbytes: int,
                          signaled: bool, attempt):
        """Drive ``attempt(psn)`` to completion under the RC retry rules.

        ``attempt`` is a generator function executing one transmission of
        the work request; it returns ``_OK``, ``_RNR``, or ``LOST``.  On
        a fault-free run the loop body executes exactly once and adds no
        simulation events of its own.
        """
        cluster = self.cluster
        psn = self.sq_psn
        self.sq_psn += 1
        transport_retries = self.retry_cnt
        rnr_retries = self.rnr_retry
        timeout = self.timeout_ns
        while True:
            if self.state is QPState.ERROR:
                # Wedged while queued/retrying (e.g. a crash injector
                # errored the QP): flush instead of transmitting.
                self._complete(wr_id, opcode, 0, True,
                               CompletionStatus.FLUSH_ERROR)
                return
            try:
                outcome = yield from attempt(psn)
            except AccessError:
                self._complete(wr_id, opcode, 0, True,
                               CompletionStatus.REMOTE_ACCESS_ERROR)
                return
            if outcome is _RNR:
                cluster.bump("rdma.rnr_naks")
                if rnr_retries <= 0:
                    self._complete(wr_id, opcode, 0, True,
                                   CompletionStatus.RNR_RETRY_EXC_ERR)
                    return
                rnr_retries -= 1
                tracer = self.sim.tracer
                span = (tracer.begin("rnr_backoff", "rdma",
                                     wait_ns=self.rnr_timer_ns)
                        if tracer is not None else None)
                yield self.sim.timeout(self.rnr_timer_ns)
                if tracer is not None:
                    tracer.end(span)
                continue
            if outcome is LOST:
                if transport_retries <= 0:
                    self._complete(wr_id, opcode, 0, True,
                                   CompletionStatus.RETRY_EXC_ERR)
                    return
                transport_retries -= 1
                cluster.bump("rdma.retransmits")
                tracer = self.sim.tracer
                span = (tracer.begin("retry_backoff", "rdma",
                                     wait_ns=timeout)
                        if tracer is not None else None)
                yield self.sim.timeout(timeout)
                if tracer is not None:
                    tracer.end(span)
                timeout = min(timeout * 2, self.max_timeout_ns)
                continue
            if self.state is QPState.ERROR:
                self._complete(wr_id, opcode, 0, True,
                               CompletionStatus.FLUSH_ERROR)
                return
            self._complete(wr_id, opcode, nbytes, signaled)
            return

    # -- execution processes -------------------------------------------------------------

    def _run_one_sided(self, opcode: WorkOpcode, wr_id: int,
                       local_mr: MemoryRegion, local_offset: int,
                       remote_mr: MemoryRegion, remote_offset: int,
                       length: int, rkey: int, signaled: bool,
                       posting_delay: Optional[float]):
        cluster = self.cluster
        peer = self._require_peer()
        tracer = self.sim.tracer
        span = (tracer.begin("post", "cpu", node=self.node.name)
                if tracer is not None else None)
        yield self.sim.timeout(self._posting(posting_delay))
        if tracer is not None:
            tracer.end(span)

        requester, responder = self.node, peer.node
        # Path-3 semantics apply only within one server; host/SoC pairs
        # on different servers are ordinary remote peers over the fabric.
        intra = requester.same_server_as(responder)

        def attempt(psn):
            tracer = self.sim.tracer
            # Retransmits re-enter the NIC pipeline, like the hardware.
            if intra:
                yield from transport.server_nic_stage(cluster, requester)
            else:
                span = (tracer.begin("nic_pipeline", "nic",
                                     node=self.node.name)
                        if tracer is not None else None)
                yield self.sim.timeout(
                    transport.nic_pipeline_delay(cluster, self.node))
                if tracer is not None:
                    tracer.end(span)
            if intra:
                outcome = yield from self._one_sided_intra(
                    opcode, local_mr, local_offset, remote_mr,
                    remote_offset, length, rkey, psn)
            else:
                outcome = yield from self._one_sided_network(
                    opcode, local_mr, local_offset, remote_mr,
                    remote_offset, length, rkey, responder, psn)
            if outcome is LOST:
                return LOST
            if intra:
                span = (tracer.begin("nic_pipeline", "nic",
                                     node=self.node.name)
                        if tracer is not None else None)
                yield self.sim.timeout(
                    transport.nic_pipeline_delay(cluster, self.node))
                if tracer is not None:
                    tracer.end(span)
            return _OK

        yield from self._with_reliability(wr_id, opcode, length, signaled,
                                          attempt)

    def _apply_write(self, remote_mr: MemoryRegion, remote_offset: int,
                     data: bytes, rkey: int, psn: int) -> None:
        """Responder-side WRITE apply with retransmit dedup.

        A retransmit whose original data landed but whose ack was lost
        arrives with an already-seen PSN; it is counted, not re-applied.
        Fault-free runs skip the bookkeeping entirely.
        """
        if self.cluster.fault_injector is None:
            remote_mr.dma_write(remote_offset, data, rkey)
            return
        peer = self.peer
        if psn in peer._seen_psns:
            self.cluster.bump("rdma.duplicates")
            return
        remote_mr.dma_write(remote_offset, data, rkey)
        peer._seen_psns.add(psn)

    def _one_sided_network(self, opcode, local_mr, local_offset, remote_mr,
                           remote_offset, length, rkey, responder, psn):
        cluster = self.cluster
        if opcode is WorkOpcode.READ:
            # Request packet over, DMA read at the server, data back.
            got = yield from transport.network_transfer(cluster, self.node,
                                                        responder, 0)
            if got is LOST or responder.crashed:
                return LOST
            yield from transport.server_nic_stage(cluster, responder)
            got = yield from transport.server_dma_read(cluster, responder,
                                                       length)
            if got is LOST:
                return LOST
            data = remote_mr.dma_read(remote_offset, length, rkey)
            got = yield from transport.network_transfer(cluster, responder,
                                                        self.node, length)
            if got is LOST:
                return LOST
            local_mr.write_local(local_offset, data)
        else:
            # Data over, posted DMA write at the server, ack back.
            data = local_mr.read_local(local_offset, length)
            got = yield from transport.network_transfer(cluster, self.node,
                                                        responder, length)
            if got is LOST or responder.crashed:
                return LOST
            yield from transport.server_nic_stage(cluster, responder)
            got = yield from transport.server_dma_write(cluster, responder,
                                                        length)
            if got is LOST:
                return LOST
            self._apply_write(remote_mr, remote_offset, data, rkey, psn)
            # The ack can be lost too; the data stays applied and the
            # retransmit is deduplicated by PSN at the responder.
            got = yield from transport.network_transfer(cluster, responder,
                                                        self.node, 0)
            if got is LOST:
                return LOST
        return None

    def _one_sided_intra(self, opcode, local_mr, local_offset, remote_mr,
                         remote_offset, length, rkey, psn):
        """Path ③: host <-> SoC through the internal fabric only.

        On top of the data legs, the doorbell MMIO crosses the fabric to
        the NIC (posted: half a traversal latency-visible) and the CQE
        crosses back to the requester's memory.
        """
        cluster = self.cluster
        local_node = self.node
        remote_node = self.peer.node
        snic = cluster.server_of(local_node).snic
        crossing = snic.crossing_latency(local_node.endpoint)
        tracer = self.sim.tracer
        span = (tracer.begin("doorbell_mmio", "mmio",
                             endpoint=local_node.endpoint.value)
                if tracer is not None else None)
        yield self.sim.timeout(snic.doorbell_latency(local_node.endpoint))
        if tracer is not None:
            tracer.end(span)
        if remote_node.crashed:
            return LOST
        if opcode is WorkOpcode.READ:
            data = remote_mr.dma_read(remote_offset, length, rkey)
            got = yield from transport.intra_machine_transfer(
                cluster, remote_node, local_node, length)
            if got is LOST:
                return LOST
            local_mr.write_local(local_offset, data)
        else:
            data = local_mr.read_local(local_offset, length)
            got = yield from transport.intra_machine_transfer(
                cluster, local_node, remote_node, length)
            if got is LOST:
                return LOST
            self._apply_write(remote_mr, remote_offset, data, rkey, psn)
        span = (tracer.begin("cqe_delivery", "mmio",
                             endpoint=local_node.endpoint.value)
                if tracer is not None else None)
        yield self.sim.timeout(crossing)  # CQE back to requester memory
        if tracer is not None:
            tracer.end(span)
        return None

    def _run_send(self, wr_id: int, data: bytes, target: "QueuePair",
                  signaled: bool, posting_delay: Optional[float]):
        cluster = self.cluster
        tracer = self.sim.tracer
        span = (tracer.begin("post", "cpu", node=self.node.name)
                if tracer is not None else None)
        yield self.sim.timeout(self._posting(posting_delay))
        if tracer is not None:
            tracer.end(span)
        responder = target.node

        def attempt(psn):
            tracer = self.sim.tracer
            span = (tracer.begin("nic_pipeline", "nic", node=self.node.name)
                    if tracer is not None else None)
            yield self.sim.timeout(
                transport.nic_pipeline_delay(cluster, self.node))
            if tracer is not None:
                tracer.end(span)
            if self.node.same_server_as(responder):
                got = yield from transport.intra_machine_transfer(
                    cluster, self.node, responder, len(data))
                if got is LOST or responder.crashed:
                    return LOST
            else:
                got = yield from transport.network_transfer(
                    cluster, self.node, responder, len(data))
                if got is LOST or responder.crashed:
                    return LOST
                if responder.on_server:
                    yield from transport.server_nic_stage(cluster, responder)
                    got = yield from transport.server_dma_write(
                        cluster, responder, len(data))
                    if got is LOST:
                        return LOST
            if not target._deliver(data, self.qpn):
                if self.qp_type is QPType.RC:
                    return _RNR
                # UD: receiver not ready means the datagram is dropped.
                target.dropped_receives += 1
            return _OK

        if self.qp_type is QPType.RC:
            yield from self._with_reliability(wr_id, WorkOpcode.SEND,
                                              len(data), signaled, attempt)
        else:
            # UD is fire-and-forget: a lost datagram is dropped silently
            # and the sender still completes successfully.
            yield from attempt(0)
            self._complete(wr_id, WorkOpcode.SEND, len(data), signaled)

    def _deliver(self, data: bytes, src_qpn: int) -> bool:
        """Land an inbound SEND in the next posted receive buffer.

        Returns False when no buffer is posted — an RC sender treats
        that as an RNR NAK; a UD sender just drops the datagram.
        """
        queue = self._recv_queue if self.srq is None else self.srq.queue
        if not queue:
            return False
        wr_id, mr, offset, capacity = queue.popleft()
        if len(data) > capacity:
            self.dropped_receives += 1
            self.recv_cq.push(Completion(
                wr_id=wr_id, opcode=WorkOpcode.RECV,
                status=CompletionStatus.LOCAL_PROTECTION_ERROR,
                byte_len=0, timestamp=self.sim.now))
            return True
        mr.write_local(offset, data)
        self.inbound_sources.append(src_qpn)
        self.recv_cq.push(Completion(
            wr_id=wr_id, opcode=WorkOpcode.RECV,
            status=CompletionStatus.SUCCESS, byte_len=len(data),
            timestamp=self.sim.now))
        return True
