"""Transport legs: how a verb physically executes on the cluster.

A queue pair resolves its datapath to a responder once, into a
:class:`Route`.  Each helper below is a generator that takes those
resolved objects, does no lookups, and yields channel transfers and DMA
transactions in the order the hardware would issue them (Fig 3).

The helpers run inside whichever process drives the verb.  A zero-delay
hop whose only waiter is that process (a DMA transaction's completion,
an uncontended NIC-unit grant) is skipped when
:meth:`~repro.sim.engine.Simulator.due_now` is False: it would be the
next event popped, so continuing inline queues every later event in the
same order.  That holds because each event resuming a verb has one
callback, the driving process's resume, and nothing interrupts a verb.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.sim.events import Timeout
from repro.sim.links import LOST

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.cluster import Node, SimCluster


class Route:
    """One requester-to-responder datapath, resolved once.

    * ``out``/``back``: the two network legs of a message toward the
      responder and toward the requester, each ``(channel, forward)``
      twice.  The channels are held as objects and sent on through
      ``.send`` at every leg, so a fault injector wrapping one later
      still applies.  None on path ③ (``intra``).
    * ``nic_ns``: the requester NIC's pipeline delay.
    * ``server``/``pipeline``/``service_ns``/``remaining_ns``: the NIC
      stage on the responder's server; None when the responder is a
      client.
    * ``dma``: the ``(engine, route, route back, mps)`` DMA target in
      the responder's memory (:meth:`ServerInstance.dma_route`), and on
      path ③ ``local_dma`` in the requester's, plus the doorbell and
      CQE crossing latencies of the requester's endpoint.
    * ``mtu``/``header_bytes``: the wire framing.
    """

    __slots__ = ("sim", "requester", "responder", "intra", "out", "back",
                 "nic_ns", "server", "pipeline", "service_ns",
                 "remaining_ns", "dma", "local_dma", "doorbell_ns",
                 "crossing_ns", "mtu", "header_bytes")

    def __init__(self, cluster: "SimCluster", requester: "Node",
                 responder: "Node"):
        self.sim = cluster.sim
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


def network_transfer(route: Route, payload: int, back: bool = False):
    """Move a message over the fabric, requester to responder (or back).

    A leg poisoned by a fault injector resolves to LOST; the message
    then never reaches the second leg.
    """
    packets = max(1, math.ceil(payload / route.mtu))
    wire = payload + packets * route.header_bytes
    first, first_forward, second, second_forward = (
        route.back if back else route.out)
    tracer = route.sim.tracer
    if tracer is not None:
        src, dst = route.requester, route.responder
        if back:
            src, dst = dst, src
        net = tracer.begin("network", "net", src=src.name, dst=dst.name,
                           payload=payload, wire_bytes=wire)
        leg = tracer.begin("wire", "wire", link=first.name)
    got = yield first.send(wire, first_forward)
    if tracer is not None:
        tracer.end(leg)
    if got is LOST:
        if tracer is not None:
            tracer.end(net)
        return LOST
    if tracer is not None:
        leg = tracer.begin("wire", "wire", link=second.name)
    got = yield second.send(wire, second_forward)
    if tracer is not None:
        tracer.end(leg)
        tracer.end(net)
    if got is LOST:
        return LOST
    return payload


def server_nic_stage(route: Route):
    """One verb's trip through the route's server NIC pipeline.

    Occupies one of the NIC's processing units for the per-op service
    time (so concurrent load saturates at the spec's verb rate), then
    spends the remaining pipeline latency unoccupied.
    """
    sim = route.sim
    tracer = sim.tracer
    span = None
    if tracer is not None:
        span = tracer.begin("nic_pipeline", "nic", server=route.server)
        submitted = sim.now
    pipeline = route.pipeline
    if sim.due_now() or not pipeline.try_acquire():
        yield pipeline.request()
    if span is not None:
        # Time spent waiting for a free processing unit (queueing under
        # load); the span itself stays gap-free for the tiling invariant.
        span.attrs["queued_ns"] = sim.now - submitted
    try:
        yield Timeout(sim, route.service_ns)
    finally:
        pipeline.release()
    remaining = route.remaining_ns
    if remaining > 0:
        yield Timeout(sim, remaining)
    if tracer is not None:
        tracer.end(span)
    return None


def server_dma_read(target, length: int):
    """A server NIC DMA-reads ``length`` bytes from ``target`` memory.

    ``target`` is an ``(engine, route, route back, mps)`` tuple, as
    :meth:`~repro.net.cluster.ServerInstance.dma_route` returns it.
    """
    if length == 0:
        return 0
    engine, route, back, mps = target
    got = yield from engine.read(route, length, mps, back)
    sim = engine.sim
    if sim.due_now():
        yield Timeout(sim, 0)            # the transaction's completion hop
    if got is LOST:
        return LOST
    return length


def server_dma_write(target, length: int):
    """A server NIC DMA-writes ``length`` bytes into ``target`` memory
    (an ``(engine, route, route back, mps)`` tuple)."""
    if length == 0:
        return 0
    engine, route, _back, mps = target
    got = yield from engine.write(route, length, mps)
    sim = engine.sim
    if sim.due_now():
        yield Timeout(sim, 0)            # the transaction's completion hop
    if got is LOST:
        return LOST
    return length


def intra_machine_transfer(source, sink, length: int):
    """Path ③ data movement: fetch from ``source``, deliver to ``sink``.

    Both are DMA targets on one server, its host and SoC memory (either
    order); both legs run through that server's NIC, crossing its PCIe1
    twice in total (§3.3).
    """
    if length:
        got = yield from server_dma_read(source, length)
        if got is LOST:
            return LOST
        got = yield from server_dma_write(sink, length)
        if got is LOST:
            return LOST
    return length
