"""Queue pairs: RC for one-sided verbs, UD for datagram SEND/RECV.

A queue pair belongs to one node.  A verb's body replays the hardware's
execution flow — posting cost at the requester CPU, NIC pipelines,
network channels, and the responder-side DMA over the SmartNIC's
internal fabric — then delivers a completion.  Posting a verb runs its
body as a discrete-event process; a process that waits for the verb
anyway (a serving worker) may run the body itself instead.  The
datapath to each responder is resolved once per queue pair
(:class:`~repro.rdma.transport.Route`).

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
from typing import Deque, Dict, Generator, Optional, Set, Tuple, TYPE_CHECKING

from repro.rdma import transport
from repro.rdma.cq import Completion, CompletionQueue
from repro.rdma.mr import AccessError, MemoryRegion
from repro.rdma.opcodes import CompletionStatus, WorkOpcode
from repro.sim.events import Timeout
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


def _flushed():
    """The body of a flushed work request: it does nothing."""
    return None
    yield  # pragma: no cover - makes this a generator


class QueuePair:
    """One queue pair plus its execution engine."""

    def __init__(self, node: "Node", qp_type: QPType,
                 send_cq: CompletionQueue, recv_cq: CompletionQueue,
                 max_inline: int = 188, max_send_wr: int = 1024,
                 max_recv_wr: int = 4096):
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
        # Resolved datapaths by responder node name (see _route_to).
        self._routes: Dict[str, transport.Route] = {}

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
        return len(self._recv_queue)

    # -- send side --------------------------------------------------------------------
    #
    # ``read``/``write``/``send`` check and admit the work request at
    # once and return the verb's body, for a process that runs the verb
    # itself with ``yield from`` (``ServingRuntime._serve_one``); the
    # ``post_*`` verbs run the same body as a process of its own.

    def post_read(self, wr_id: int, local_mr: MemoryRegion,
                  remote_mr: MemoryRegion, length: int,
                  local_offset: int = 0, remote_offset: int = 0,
                  rkey: Optional[int] = None, signaled: bool = True,
                  posting_delay: Optional[float] = None) -> Process:
        """One-sided READ: pull remote bytes into the local buffer."""
        return self.sim.process(self.read(
            wr_id, local_mr, remote_mr, length, local_offset, remote_offset,
            rkey, signaled, posting_delay))

    def post_write(self, wr_id: int, local_mr: MemoryRegion,
                   remote_mr: MemoryRegion, length: int,
                   local_offset: int = 0, remote_offset: int = 0,
                   rkey: Optional[int] = None, signaled: bool = True,
                   posting_delay: Optional[float] = None) -> Process:
        """One-sided WRITE: push local bytes into the remote buffer."""
        return self.sim.process(self.write(
            wr_id, local_mr, remote_mr, length, local_offset, remote_offset,
            rkey, signaled, posting_delay))

    def post_send(self, wr_id: int, data: bytes,
                  dest: Optional["QueuePair"] = None, signaled: bool = True,
                  posting_delay: Optional[float] = None) -> Process:
        """Two-sided SEND of ``data`` to the peer (RC) or ``dest`` (UD)."""
        return self.sim.process(self.send(wr_id, data, dest, signaled,
                                          posting_delay))

    def read(self, wr_id: int, local_mr: MemoryRegion,
             remote_mr: MemoryRegion, length: int, local_offset: int = 0,
             remote_offset: int = 0, rkey: Optional[int] = None,
             signaled: bool = True,
             posting_delay: Optional[float] = None) -> Generator:
        """The body of :meth:`post_read`."""
        return self._one_sided(WorkOpcode.READ, wr_id, local_mr, remote_mr,
                               length, local_offset, remote_offset, rkey,
                               signaled, posting_delay)

    def write(self, wr_id: int, local_mr: MemoryRegion,
              remote_mr: MemoryRegion, length: int, local_offset: int = 0,
              remote_offset: int = 0, rkey: Optional[int] = None,
              signaled: bool = True,
              posting_delay: Optional[float] = None) -> Generator:
        """The body of :meth:`post_write`."""
        return self._one_sided(WorkOpcode.WRITE, wr_id, local_mr, remote_mr,
                               length, local_offset, remote_offset, rkey,
                               signaled, posting_delay)

    def send(self, wr_id: int, data: bytes,
             dest: Optional["QueuePair"] = None, signaled: bool = True,
             posting_delay: Optional[float] = None) -> Generator:
        """The body of :meth:`post_send`."""
        if self.qp_type is QPType.RC:
            if dest is not None and dest is not self.peer:
                raise QPError("RC SEND goes to the connected peer")
            target = self._require_peer()
        else:
            if dest is None:
                raise QPError("UD SEND needs an explicit destination QP")
            target = dest
        route = self._route_to(target.node)
        if not self._admit_send(wr_id, WorkOpcode.SEND):
            return _flushed()
        args = (route, target, data)
        if self.qp_type is QPType.RC:
            body = self._reliably(WorkOpcode.SEND, wr_id, len(data),
                                  signaled, posting_delay, self._send_attempt,
                                  args)
        else:
            body = self._datagram(wr_id, len(data), signaled, posting_delay,
                                  args)
        return self._traced(body, WorkOpcode.SEND, len(data), wr_id,
                            target.node)

    def _one_sided(self, opcode: WorkOpcode, wr_id: int,
                   local_mr: MemoryRegion, remote_mr: MemoryRegion,
                   length: int, local_offset: int, remote_offset: int,
                   rkey: Optional[int], signaled: bool,
                   posting_delay: Optional[float]) -> Generator:
        self._check_one_sided(local_mr, length)
        responder = self.peer.node
        route = self._route_to(responder)
        if route.pipeline is None:
            raise QPError("one-sided verbs need a server-side responder")
        if not self._admit_send(wr_id, opcode):
            return _flushed()
        rkey = remote_mr.rkey if rkey is None else rkey
        attempt = self._intra_attempt if route.intra else self._remote_attempt
        body = self._reliably(opcode, wr_id, length, signaled, posting_delay,
                              attempt, (route, opcode, local_mr, local_offset,
                                        remote_mr, remote_offset, length,
                                        rkey))
        return self._traced(body, opcode, length, wr_id, responder)

    # -- checks -----------------------------------------------------------------------

    def _check_one_sided(self, local_mr: MemoryRegion, length: int) -> None:
        if self.qp_type is not QPType.RC:
            raise QPError("one-sided verbs need an RC QP")
        self._require_peer()
        if local_mr.node is not self.node:
            raise AccessError("local MR belongs to another node")
        if length < 0:
            raise QPError(f"negative length: {length}")

    def _route_to(self, responder: "Node") -> transport.Route:
        """The datapath to ``responder``, resolved on first use."""
        route = self._routes.get(responder.name)
        if route is None:
            route = self._routes[responder.name] = transport.Route(
                self.cluster, self.node, responder)
        return route

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
                responder: "Node"):
        """Wrap an execution generator in a root span when tracing.

        A no-op pass-through (same generator object) on untraced runs,
        so the event sequence is untouched.
        """
        tracer = self.sim.tracer
        if tracer is None:
            return gen
        return tracer.trace_verb(gen, requester=self.node,
                                 responder=responder,
                                 verb=opcode.name.lower(), payload=nbytes,
                                 wr_id=wr_id, qpn=self.qpn,
                                 qp_type=self.qp_type.value)

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

    def _reliably(self, opcode: WorkOpcode, wr_id: int, nbytes: int,
                  signaled: bool, posting_delay: Optional[float], attempt,
                  args: tuple):
        """Post, then drive ``attempt(psn, *args)`` to completion under
        the RC retry rules.

        ``attempt`` is a generator function executing one transmission of
        the work request; it returns ``_OK``, ``_RNR``, or ``LOST``.  On
        a fault-free run the loop body executes exactly once and adds no
        simulation events of its own.
        """
        sim = self.sim
        tracer = sim.tracer
        span = (tracer.begin("post", "cpu", node=self.node.name)
                if tracer is not None else None)
        yield Timeout(sim, self._posting(posting_delay))
        if tracer is not None:
            tracer.end(span)
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
                outcome = yield from attempt(psn, *args)
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

    def _datagram(self, wr_id: int, nbytes: int, signaled: bool,
                  posting_delay: Optional[float], args: tuple):
        """A UD SEND: fire-and-forget.  A lost datagram is dropped
        silently and the sender still completes successfully."""
        sim = self.sim
        tracer = sim.tracer
        span = (tracer.begin("post", "cpu", node=self.node.name)
                if tracer is not None else None)
        yield Timeout(sim, self._posting(posting_delay))
        if tracer is not None:
            tracer.end(span)
        yield from self._send_attempt(0, *args)
        self._complete(wr_id, WorkOpcode.SEND, nbytes, signaled)

    # -- one transmission --------------------------------------------------------------
    #
    # Retransmits re-enter the NIC pipeline, like the hardware.

    def _remote_attempt(self, psn, route, opcode, local_mr, local_offset,
                        remote_mr, remote_offset, length, rkey):
        """A READ/WRITE to another machine, over the fabric."""
        tracer = self.sim.tracer
        span = (tracer.begin("nic_pipeline", "nic", node=self.node.name)
                if tracer is not None else None)
        yield Timeout(self.sim, route.nic_ns)
        if tracer is not None:
            tracer.end(span)
        responder = route.responder
        if opcode is WorkOpcode.READ:
            # Request packet over, DMA read at the server, data back.
            got = yield from transport.network_transfer(route, 0)
            if got is LOST or responder.crashed:
                return LOST
            yield from transport.server_nic_stage(route)
            got = yield from transport.server_dma_read(route.dma, length)
            if got is LOST:
                return LOST
            data = remote_mr.dma_read(remote_offset, length, rkey)
            got = yield from transport.network_transfer(route, length,
                                                        back=True)
            if got is LOST:
                return LOST
            local_mr.write_local(local_offset, data)
        else:
            # Data over, posted DMA write at the server, ack back.
            data = local_mr.read_local(local_offset, length)
            got = yield from transport.network_transfer(route, length)
            if got is LOST or responder.crashed:
                return LOST
            yield from transport.server_nic_stage(route)
            got = yield from transport.server_dma_write(route.dma, length)
            if got is LOST:
                return LOST
            self._apply_write(remote_mr, remote_offset, data, rkey, psn)
            # The ack can be lost too; the data stays applied and the
            # retransmit is deduplicated by PSN at the responder.
            got = yield from transport.network_transfer(route, 0, back=True)
            if got is LOST:
                return LOST
        return _OK

    def _intra_attempt(self, psn, route, opcode, local_mr, local_offset,
                       remote_mr, remote_offset, length, rkey):
        """Path ③: host <-> SoC through the internal fabric only.

        On top of the data legs, the doorbell MMIO crosses the fabric to
        the NIC (posted: half a traversal latency-visible) and the CQE
        crosses back to the requester's memory.
        """
        yield from transport.server_nic_stage(route)
        sim = self.sim
        tracer = sim.tracer
        endpoint = self.node.endpoint.value
        span = (tracer.begin("doorbell_mmio", "mmio", endpoint=endpoint)
                if tracer is not None else None)
        yield Timeout(sim, route.doorbell_ns)
        if tracer is not None:
            tracer.end(span)
        if route.responder.crashed:
            return LOST
        if opcode is WorkOpcode.READ:
            data = remote_mr.dma_read(remote_offset, length, rkey)
            got = yield from transport.intra_machine_transfer(
                route.dma, route.local_dma, length)
            if got is LOST:
                return LOST
            local_mr.write_local(local_offset, data)
        else:
            data = local_mr.read_local(local_offset, length)
            got = yield from transport.intra_machine_transfer(
                route.local_dma, route.dma, length)
            if got is LOST:
                return LOST
            self._apply_write(remote_mr, remote_offset, data, rkey, psn)
        span = (tracer.begin("cqe_delivery", "mmio", endpoint=endpoint)
                if tracer is not None else None)
        yield Timeout(sim, route.crossing_ns)  # CQE back to requester memory
        if tracer is not None:
            tracer.end(span)
        span = (tracer.begin("nic_pipeline", "nic", node=self.node.name)
                if tracer is not None else None)
        yield Timeout(sim, route.nic_ns)
        if tracer is not None:
            tracer.end(span)
        return _OK

    def _send_attempt(self, psn, route, target, data):
        """A SEND: data to the responder, landed in a posted receive."""
        tracer = self.sim.tracer
        span = (tracer.begin("nic_pipeline", "nic", node=self.node.name)
                if tracer is not None else None)
        yield Timeout(self.sim, route.nic_ns)
        if tracer is not None:
            tracer.end(span)
        responder = route.responder
        if route.intra:
            got = yield from transport.intra_machine_transfer(
                route.local_dma, route.dma, len(data))
            if got is LOST or responder.crashed:
                return LOST
        else:
            got = yield from transport.network_transfer(route, len(data))
            if got is LOST or responder.crashed:
                return LOST
            if route.pipeline is not None:
                yield from transport.server_nic_stage(route)
                got = yield from transport.server_dma_write(route.dma,
                                                            len(data))
                if got is LOST:
                    return LOST
        if not target._deliver(data, self.qpn):
            if self.qp_type is QPType.RC:
                return _RNR
            # UD: receiver not ready means the datagram is dropped.
            target.dropped_receives += 1
        return _OK

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

    def _deliver(self, data: bytes, src_qpn: int) -> bool:
        """Land an inbound SEND in the next posted receive buffer.

        Returns False when no buffer is posted — an RC sender treats
        that as an RNR NAK; a UD sender just drops the datagram.
        """
        if not self._recv_queue:
            return False
        wr_id, mr, offset, capacity = self._recv_queue.popleft()
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
