"""Transport processes: how a verb physically executes on the cluster.

Each helper is a generator meant to run inside the simulation; it yields
channel transfers and DMA transactions in the order the hardware would
issue them (Fig 3), and moves the actual bytes at the right instant.

The helpers run inside the verb's own process.  A zero-delay hop whose
only waiter is that process (a DMA transaction's completion, an
uncontended NIC-unit grant) is skipped when
:meth:`~repro.sim.engine.Simulator.due_now` is False: it would be the
next event popped, so continuing inline queues every later event in the
same order.  That holds because each event resuming a verb has one
callback, the verb's resume, and nothing interrupts a verb.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.nic.core import Endpoint
from repro.sim.events import Timeout
from repro.sim.links import LOST

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.cluster import Node, SimCluster


def network_wire_bytes(payload: int, cluster: "SimCluster") -> int:
    """Wire bytes of a network message carrying ``payload``."""
    spec = cluster.server_cores
    packets = max(1, math.ceil(payload / spec.network_mtu))
    return payload + packets * spec.net_header_bytes


def network_transfer(cluster: "SimCluster", src: "Node", dst: "Node",
                     payload: int):
    """Move a message between two nodes over the fabric (a process)."""
    wire = network_wire_bytes(payload, cluster)
    tracer = cluster.sim.tracer
    net = (tracer.begin("network", "net", src=src.name, dst=dst.name,
                        payload=payload, wire_bytes=wire)
           if tracer is not None else None)
    # Convention: forward = toward the switch on client links, toward
    # the server on server links.  A leg poisoned by a fault injector
    # resolves to LOST; the message then never reaches the second leg.
    leg = (tracer.begin("wire", "wire", link=cluster.channel(src).name)
           if tracer is not None else None)
    if src.kind == "client":
        got = yield cluster.channel(src).send(wire, forward=True)
    else:
        got = yield cluster.channel(src).send(wire, forward=False)
    if tracer is not None:
        tracer.end(leg)
    if got is LOST:
        if tracer is not None:
            tracer.end(net)
        return LOST
    leg = (tracer.begin("wire", "wire", link=cluster.channel(dst).name)
           if tracer is not None else None)
    if dst.kind == "client":
        got = yield cluster.channel(dst).send(wire, forward=False)
    else:
        got = yield cluster.channel(dst).send(wire, forward=True)
    if tracer is not None:
        tracer.end(leg)
        tracer.end(net)
    if got is LOST:
        return LOST
    return payload


def nic_pipeline_delay(cluster: "SimCluster", node: "Node") -> float:
    """Per-request NIC pipeline time at a node's NIC."""
    if node.on_server:
        return cluster.server_of(node).cores.pipeline_ns
    return cluster.testbed.client_nic.cores.pipeline_ns


def server_nic_stage(cluster: "SimCluster", node: "Node" = None):
    """One verb's trip through a server NIC's processing pipeline.

    Occupies one of the NIC's processing units for the per-op service
    time (so concurrent load saturates at the spec's verb rate), then
    spends the remaining pipeline latency unoccupied.  ``node`` selects
    the server (any of its nodes); default is server 0.
    """
    server = (cluster.server_of(node) if node is not None
              else cluster.servers["server0"])
    service = server.service_ns
    sim = cluster.sim
    tracer = sim.tracer
    span = (tracer.begin("nic_pipeline", "nic", server=server.name)
            if tracer is not None else None)
    submitted = sim.now
    pipeline = server.pipeline
    if sim.due_now() or not pipeline.try_acquire():
        yield pipeline.request()
    if span is not None:
        # Time spent waiting for a free processing unit (queueing under
        # load); the span itself stays gap-free for the tiling invariant.
        span.attrs["queued_ns"] = sim.now - submitted
    try:
        yield sim.timeout(service)
    finally:
        pipeline.release()
    remaining = server.cores.pipeline_ns - service
    if remaining > 0:
        yield sim.timeout(remaining)
    if tracer is not None:
        tracer.end(span)
    return None


def server_dma_read(cluster: "SimCluster", target, length: int):
    """A server NIC DMA-reads ``length`` bytes from ``target`` memory.

    ``target`` is a server-side node or (single-server shorthand) an
    endpoint resolved on server 0.
    """
    if length == 0:
        return 0
    engine, route, back, mps = cluster.dma_route(target)
    got = yield from engine.read(route, length, mps, back)
    sim = cluster.sim
    if sim.due_now():
        yield Timeout(sim, 0)            # the transaction's completion hop
    if got is LOST:
        return LOST
    return length


def server_dma_write(cluster: "SimCluster", target, length: int):
    """A server NIC DMA-writes ``length`` bytes into ``target`` memory."""
    if length == 0:
        return 0
    engine, route, _back, mps = cluster.dma_route(target)
    got = yield from engine.write(route, length, mps)
    sim = cluster.sim
    if sim.due_now():
        yield Timeout(sim, 0)            # the transaction's completion hop
    if got is LOST:
        return LOST
    return length


def intra_machine_transfer(cluster: "SimCluster", source: "Node",
                           sink: "Node", length: int):
    """Path ③ data movement: fetch from ``source``, deliver to ``sink``.

    Both legs run through the same server's NIC, crossing its PCIe1
    twice in total (§3.3).  ``source``/``sink`` are that server's host
    and SoC nodes (either order); endpoint shorthands resolve on
    server 0.
    """
    from repro.nic.core import Endpoint as _Endpoint

    source_end = source if isinstance(source, _Endpoint) else source.endpoint
    sink_end = sink if isinstance(sink, _Endpoint) else sink.endpoint
    if source_end is sink_end:
        raise ValueError("path-3 transfer needs distinct endpoints")
    if length:
        got = yield from server_dma_read(cluster, source, length)
        if got is LOST:
            return LOST
        got = yield from server_dma_write(cluster, sink, length)
        if got is LOST:
            return LOST
    return length
