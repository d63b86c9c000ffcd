"""Transport: how a verb physically executes on the cluster.

A queue pair resolves its datapath to a responder once, into a
:class:`Route`.  For a given verb and payload the execution flow on a
route is fixed (Fig 3): the requester NIC pipeline, the wire legs, the
responder's NIC stage, the PCIe1/switch/PCIe0 hops of its DMA, and a
read's request-header and completion legs.  The route therefore builds
that flow once per ``(opcode, length)``, as a :class:`Plan`: a tuple of
steps with every size, count and object precomputed, its DMAs compiled
by the responder NIC's :class:`~repro.hw.pcie.dma.DmaEngine`.
:func:`execute` is the one generator that runs plans, under the RC
retry/RNR/flush rules (or as a UD datagram).

Plans hold channel and link *objects* and look ``.send`` up on them at
every leg, so a fault injector that wraps a channel after a plan was
built still applies.

A zero-delay hop whose only waiter is the running process (a DMA
transaction's completion, an uncontended NIC-unit grant) is skipped
when :meth:`~repro.sim.engine.Simulator.due_now` is False: it would be
the next event popped, so continuing inline queues every later event
in the same order.  That holds because each event resuming a verb has
one callback, the driving process's resume, and nothing interrupts a
verb.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.hw.pcie.dma import transaction
from repro.rdma.mr import AccessError
from repro.rdma.opcodes import CompletionStatus, QPState, QPType, WorkOpcode
from repro.sim.events import Timeout
from repro.sim.links import LOST

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.cluster import Node, SimCluster
    from repro.rdma.qp import QueuePair
    from repro.sim.engine import Simulator

# -- step kinds ------------------------------------------------------------------
#
# A step is a tuple whose first item is its kind:
#
# * ``(WIRE, first, first_forward, second, second_forward, wire_bytes,
#   payload, src, dst)``: a message over the fabric, two channel legs;
# * ``(DMA, transaction)``: a DMA transaction compiled by the NIC's
#   :class:`~repro.hw.pcie.dma.DmaEngine` and run by
#   :func:`~repro.hw.pcie.dma.transaction`, then its completion hop;
# * ``(STAGE, pipeline, service_ns, remaining_ns, server)``: the
#   responder server's NIC stage;
# * ``(DELAY, ns, span, category, attrs)``: a fixed delay (the
#   requester NIC pipeline, a doorbell, a CQE crossing);
# * ``(CRASH, node)``: the message is lost if ``node`` has crashed;
# * ``(READ_LOCAL,)``, ``(READ_REMOTE,)``, ``(WRITE_LOCAL,)``,
#   ``(WRITE_REMOTE,)``, ``(DELIVER,)``: the verb's bytes leave their
#   source region or land at their destination.

WIRE = 0
DMA = 1
STAGE = 2
DELAY = 3
CRASH = 4
READ_LOCAL = 5
WRITE_REMOTE = 6
READ_REMOTE = 7
WRITE_LOCAL = 8
DELIVER = 9

#: Verb shapes whose plans a route keeps (the oldest is dropped first).
PLANS_PER_ROUTE = 64

# Attempt outcomes of the RC reliability loop (LOST is the third).
_OK = object()
_RNR = object()


class Plan:
    """One verb's execution flow on one route: ``steps`` moving
    ``length`` payload bytes for ``opcode``."""

    __slots__ = ("steps", "opcode", "length")

    def __init__(self, steps: tuple, opcode: WorkOpcode, length: int):
        self.steps = steps
        self.opcode = opcode
        self.length = length


class Route:
    """One requester-to-responder datapath, resolved once.

    * ``out``/``back``: the two network legs of a message toward the
      responder and toward the requester, each ``(channel, forward)``
      twice.  None on path ③ (``intra``).
    * ``nic_ns``: the requester NIC's pipeline delay.
    * ``server``/``pipeline``/``service_ns``/``remaining_ns``: the NIC
      stage on the responder's server; None when the responder is a
      client.
    * ``dma``: the ``(engine, route, route back, mps)`` DMA target in
      the responder's memory (:meth:`ServerInstance.dma_route`), and on
      path ③ ``local_dma`` in the requester's, plus the doorbell and
      CQE crossing latencies of the requester's endpoint.
    * ``mtu``/``header_bytes``: the wire framing.

    :meth:`plan` builds and caches the execution flow of each verb
    shape the route carries.
    """

    __slots__ = ("requester", "responder", "intra", "out", "back",
                 "nic_ns", "server", "pipeline", "service_ns",
                 "remaining_ns", "dma", "local_dma", "doorbell_ns",
                 "crossing_ns", "mtu", "header_bytes", "_plans")

    def __init__(self, cluster: "SimCluster", requester: "Node",
                 responder: "Node"):
        self.requester = requester
        self.responder = responder
        # Path-3 semantics apply only within one server; host/SoC pairs
        # on different servers are ordinary remote peers over the fabric.
        self.intra = intra = requester.same_server_as(responder)
        if requester.on_server:
            self.nic_ns = cluster.server_of(requester).cores.pipeline_ns
        else:
            self.nic_ns = cluster.testbed.client_nic.cores.pipeline_ns
        spec = cluster.server_cores
        self.mtu = spec.network_mtu
        self.header_bytes = spec.net_header_bytes
        self.server = self.pipeline = self.dma = self.local_dma = None
        self.service_ns = self.remaining_ns = 0.0
        self.doorbell_ns = self.crossing_ns = 0.0
        self._plans: Dict[Tuple[WorkOpcode, int], Plan] = {}
        if responder.on_server:
            server = cluster.server_of(responder)
            self.server = server.name
            self.pipeline = server.pipeline
            self.service_ns = server.service_ns
            self.remaining_ns = server.cores.pipeline_ns - server.service_ns
            self.dma = server.dma_route(responder.endpoint)
        if intra:
            if requester.endpoint is responder.endpoint:
                raise ValueError("path-3 transfer needs distinct endpoints")
            self.local_dma = server.dma_route(requester.endpoint)
            self.doorbell_ns = server.snic.doorbell_latency(
                requester.endpoint)
            self.crossing_ns = server.snic.crossing_latency(
                requester.endpoint)
            self.out = self.back = None
        else:
            # Convention: forward = toward the switch on client links,
            # toward the server on server links.
            near = cluster.channel(requester)
            far = cluster.channel(responder)
            near_client = requester.kind == "client"
            far_client = responder.kind == "client"
            self.out = (near, near_client, far, not far_client)
            self.back = (far, far_client, near, not near_client)

    def plan(self, opcode: WorkOpcode, length: int) -> Plan:
        """The execution flow of a ``length``-byte ``opcode`` verb.

        Cached for the last :data:`PLANS_PER_ROUTE` verb shapes, so an
        application moving many distinct lengths does not grow it.
        """
        plans = self._plans
        plan = plans.get((opcode, length))
        if plan is None:
            if len(plans) >= PLANS_PER_ROUTE:
                del plans[next(iter(plans))]
            plan = plans[opcode, length] = Plan(
                tuple(self._steps(opcode, length)), opcode, length)
        return plan

    # -- plan building -----------------------------------------------------------

    def _steps(self, opcode: WorkOpcode, length: int) -> list:
        nic = (DELAY, self.nic_ns, "nic_pipeline", "nic",
               {"node": self.requester.name})
        crash = (CRASH, self.responder)
        if opcode is WorkOpcode.SEND:
            # Data to the responder, landed in a posted receive.
            steps = [nic]
            if self.intra:
                steps += self._transfer(self.local_dma, self.dma, length)
                steps.append(crash)
            else:
                steps += [self._wire(length, False), crash]
                if self.pipeline is not None:
                    steps.append(self._stage())
                    steps += self._dma(self.dma, length, write=True)
            steps.append((DELIVER,))
        elif self.intra:
            # Path ③: host <-> SoC through the internal fabric only.  On
            # top of the data legs, the doorbell MMIO crosses the fabric
            # to the NIC (posted: half a traversal latency-visible) and
            # the CQE crosses back to the requester's memory.
            endpoint = {"endpoint": self.requester.endpoint.value}
            steps = [self._stage(),
                     (DELAY, self.doorbell_ns, "doorbell_mmio", "mmio",
                      endpoint),
                     crash]
            if opcode is WorkOpcode.READ:
                steps.append((READ_REMOTE,))
                steps += self._transfer(self.dma, self.local_dma, length)
                steps.append((WRITE_LOCAL,))
            else:
                steps.append((READ_LOCAL,))
                steps += self._transfer(self.local_dma, self.dma, length)
                steps.append((WRITE_REMOTE,))
            steps += [(DELAY, self.crossing_ns, "cqe_delivery", "mmio",
                       endpoint),
                      nic]
        elif opcode is WorkOpcode.READ:
            # Request packet over, DMA read at the server, data back.
            steps = [nic, self._wire(0, False), crash, self._stage(),
                     *self._dma(self.dma, length, write=False),
                     (READ_REMOTE,), self._wire(length, True),
                     (WRITE_LOCAL,)]
        else:
            # Data over, posted DMA write at the server, ack back.  The
            # ack can be lost too; the data stays applied and the
            # retransmit is deduplicated by PSN at the responder.
            steps = [nic, (READ_LOCAL,), self._wire(length, False), crash,
                     self._stage(), *self._dma(self.dma, length, write=True),
                     (WRITE_REMOTE,), self._wire(0, True)]
        return steps

    def _wire(self, payload: int, back: bool) -> tuple:
        """A message over the fabric, requester to responder (or back)."""
        packets = max(1, math.ceil(payload / self.mtu))
        wire = payload + packets * self.header_bytes
        src, dst = self.requester.name, self.responder.name
        if back:
            src, dst = dst, src
        return (WIRE, *(self.back if back else self.out), wire, payload,
                src, dst)

    def _stage(self) -> tuple:
        """One trip through the responder server's NIC pipeline."""
        return (STAGE, self.pipeline, self.service_ns, self.remaining_ns,
                self.server)

    @staticmethod
    def _dma(target, length: int, write: bool) -> list:
        """A server NIC DMA into (or out of) ``target`` memory, an
        ``(engine, route, route back, mps)`` tuple; none for 0 bytes."""
        if length == 0:
            return []
        engine, route, back, mps = target
        if write:
            return [(DMA, engine.write_step(route, length, mps))]
        return [(DMA, engine.read_step(route, back, length, mps))]

    @classmethod
    def _transfer(cls, source, sink, length: int) -> list:
        """Path-③ data movement: fetch from ``source``, deliver to
        ``sink``, both legs through the server's NIC (crossing its
        PCIe1 twice in total, §3.3)."""
        return (cls._dma(source, length, write=False)
                + cls._dma(sink, length, write=True))


# -- the executor ------------------------------------------------------------------


def execute(sim: "Simulator", plan: Plan, qp: "QueuePair", wr_id: int = 0,
            signaled: bool = True, posting_delay: Optional[float] = None,
            local=None, local_offset: int = 0, remote=None,
            remote_offset: int = 0, rkey: int = 0,
            data: Optional[bytes] = None,
            target: Optional["QueuePair"] = None):
    """Run ``plan`` as a verb posted on ``qp``.

    The verb pays its posting delay, then runs the plan's steps.  On an RC
    QP a step poisoned by a fault injector (or a crashed responder)
    makes the attempt LOST: the requester waits an ack-timeout with
    exponential backoff and runs the steps again, up to ``retry_cnt``
    times before wedging the QP with ``RETRY_EXC_ERR``.  An RC SEND
    that finds no receive buffer posted draws an RNR NAK and is retried
    after ``rnr_timer_ns``, up to ``rnr_retry`` times.  Retransmits
    re-enter the NIC pipeline, like the hardware.  A UD SEND runs once;
    a lost datagram is dropped silently and the sender still completes.
    On a fault-free run the steps run exactly once and the executor adds
    no simulation events of its own.

    The verb's bytes: ``local``/``local_offset`` and ``remote``/
    ``remote_offset``/``rkey`` for READ/WRITE, ``data`` and the
    receiving ``target`` QP for SEND.
    """
    steps = plan.steps
    opcode = plan.opcode
    length = plan.length
    tracer = sim.tracer
    span = (tracer.begin("post", "cpu", node=qp.node.name)
            if tracer is not None else None)
    yield Timeout(sim, qp._posting(posting_delay))
    if tracer is not None:
        tracer.end(span)
    reliable = qp.qp_type is QPType.RC
    psn = 0
    if reliable:
        psn = qp.sq_psn
        qp.sq_psn += 1
        transport_retries = qp.retry_cnt
        rnr_retries = qp.rnr_retry
        timeout = qp.timeout_ns
    while True:
        if reliable and qp.state is QPState.ERROR:
            # Wedged while queued/retrying (e.g. a crash injector
            # errored the QP): flush instead of transmitting.
            qp._complete(wr_id, opcode, 0, True,
                         CompletionStatus.FLUSH_ERROR)
            return
        tracer = sim.tracer
        outcome = _OK
        try:
            for step in steps:
                kind = step[0]
                if kind == WIRE:
                    (_, first, first_forward, second, second_forward, wire,
                     payload, src, dst) = step
                    if tracer is not None:
                        net = tracer.begin("network", "net", src=src,
                                           dst=dst, payload=payload,
                                           wire_bytes=wire)
                        leg = tracer.begin("wire", "wire", link=first.name)
                    got = yield first.send(wire, first_forward)
                    if tracer is not None:
                        tracer.end(leg)
                    if got is LOST:
                        if tracer is not None:
                            tracer.end(net)
                        outcome = LOST
                        break
                    if tracer is not None:
                        leg = tracer.begin("wire", "wire", link=second.name)
                    got = yield second.send(wire, second_forward)
                    if tracer is not None:
                        tracer.end(leg)
                        tracer.end(net)
                    if got is LOST:
                        outcome = LOST
                        break
                elif kind == DMA:
                    got = yield from transaction(sim, step[1])
                    if sim.due_now():
                        yield Timeout(sim, 0)    # the completion hop
                    if got is LOST:
                        outcome = LOST
                        break
                elif kind == STAGE:
                    # Occupies one of the NIC's processing units for the
                    # per-op service time (so concurrent load saturates
                    # at the spec's verb rate), then spends the remaining
                    # pipeline latency unoccupied.
                    _, pipeline, service_ns, remaining_ns, server = step
                    span = None
                    if tracer is not None:
                        span = tracer.begin("nic_pipeline", "nic",
                                            server=server)
                        submitted = sim.now
                    if sim.due_now() or not pipeline.try_acquire():
                        yield pipeline.request()
                    if span is not None:
                        # Time spent waiting for a free processing unit
                        # (queueing under load); the span itself stays
                        # gap-free for the tiling invariant.
                        span.attrs["queued_ns"] = sim.now - submitted
                    try:
                        yield Timeout(sim, service_ns)
                    finally:
                        pipeline.release()
                    if remaining_ns > 0:
                        yield Timeout(sim, remaining_ns)
                    if tracer is not None:
                        tracer.end(span)
                elif kind == DELAY:
                    _, delay, name, category, attrs = step
                    span = (tracer.begin(name, category, **attrs)
                            if tracer is not None else None)
                    yield Timeout(sim, delay)
                    if tracer is not None:
                        tracer.end(span)
                elif kind == CRASH:
                    if step[1].crashed:
                        outcome = LOST
                        break
                elif kind == READ_LOCAL:
                    data = local.read_local(local_offset, length)
                elif kind == WRITE_REMOTE:
                    qp._apply_write(remote, remote_offset, data, rkey, psn)
                elif kind == READ_REMOTE:
                    data = remote.dma_read(remote_offset, length, rkey)
                elif kind == WRITE_LOCAL:
                    local.write_local(local_offset, data)
                else:  # DELIVER
                    if not target._deliver(data, qp.qpn):
                        if reliable:
                            outcome = _RNR
                            break
                        # UD: receiver not ready means the datagram is
                        # dropped.
                        target.dropped_receives += 1
        except AccessError:
            if not reliable:
                raise
            qp._complete(wr_id, opcode, 0, True,
                         CompletionStatus.REMOTE_ACCESS_ERROR)
            return
        if not reliable:
            qp._complete(wr_id, opcode, length, signaled)
            return
        if outcome is _RNR:
            qp.cluster.bump("rdma.rnr_naks")
            if rnr_retries <= 0:
                qp._complete(wr_id, opcode, 0, True,
                             CompletionStatus.RNR_RETRY_EXC_ERR)
                return
            rnr_retries -= 1
            tracer = sim.tracer
            span = (tracer.begin("rnr_backoff", "rdma",
                                 wait_ns=qp.rnr_timer_ns)
                    if tracer is not None else None)
            yield sim.timeout(qp.rnr_timer_ns)
            if tracer is not None:
                tracer.end(span)
            continue
        if outcome is LOST:
            if transport_retries <= 0:
                qp._complete(wr_id, opcode, 0, True,
                             CompletionStatus.RETRY_EXC_ERR)
                return
            transport_retries -= 1
            qp.cluster.bump("rdma.retransmits")
            tracer = sim.tracer
            span = (tracer.begin("retry_backoff", "rdma", wait_ns=timeout)
                    if tracer is not None else None)
            yield sim.timeout(timeout)
            if tracer is not None:
                tracer.end(span)
            timeout = min(timeout * 2, qp.max_timeout_ns)
            continue
        if qp.state is QPState.ERROR:
            qp._complete(wr_id, opcode, 0, True,
                         CompletionStatus.FLUSH_ERROR)
            return
        qp._complete(wr_id, opcode, length, signaled)
        return
