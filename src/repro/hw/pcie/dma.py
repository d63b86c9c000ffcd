"""The NIC's DMA engine: Fig 3's transactions as simulation generators.

Implements the execution flows of Fig 3:

* **write** — posted.  Data TLPs flow toward the target; the engine
  completes once the last TLP is delivered, no return traffic.
* **read** — non-posted.  A header-only read-request TLP travels to
  the target, completions with data travel back; the engine completes
  only when the last completion arrives — this is why READ "passes the
  PCIe twice" and carries the higher latency tax.

:meth:`DmaEngine.write` and :meth:`DmaEngine.read` return the
transaction as a generator; :meth:`DmaEngine.dma_write` /
:meth:`DmaEngine.dma_read` run it as a standalone
:class:`~repro.sim.process.Process`.  A verb runs the same compiled
steps (:meth:`DmaEngine.write_step`, :meth:`DmaEngine.read_step`)
through :func:`transaction` inside its plan
(:mod:`repro.rdma.transport`).

Routes are tuples of hops (links and switch traversals), built once per
NIC.  Transfers are modelled store-and-forward per hop, which is exact
for requests that fit one TLP and a sub-1 % approximation for the small
messages whose latency the paper studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator, Optional, Sequence, Tuple, Union, TYPE_CHECKING

from repro.sim.events import Timeout
from repro.sim.links import LOST
from repro.sim.process import Process
from repro.hw.pcie.link import PCIeLink
from repro.hw.pcie.switch import PCIeSwitch
from repro.hw.pcie.tlp import TLP_READ_REQUEST_BYTES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


@dataclass(frozen=True)
class LinkHop:
    """Traverse a physical PCIe link in the given direction."""

    link: PCIeLink
    forward: bool = True

    def reversed(self) -> "LinkHop":
        return LinkHop(self.link, not self.forward)


@dataclass(frozen=True)
class SwitchHop:
    """Traverse a PCIe switch from one port to another."""

    switch: PCIeSwitch
    src: str
    dst: str

    def __post_init__(self):
        # Validated once here: traversals look no port up.
        self.switch.port(self.src)
        self.switch.port(self.dst)

    def reversed(self) -> "SwitchHop":
        return SwitchHop(self.switch, self.dst, self.src)


Hop = Union[LinkHop, SwitchHop]


def reverse_route(route: Sequence[Hop]) -> Tuple[Hop, ...]:
    """The route completions take: same hops, opposite order/direction."""
    return tuple(hop.reversed() for hop in reversed(route))


def _compile(route: Sequence[Hop]) -> tuple:
    """A hop route as ``(link, forward, switch, src, dst)`` tuples: a
    link in one direction, or (``link`` None) a switch traversal."""
    return tuple((hop.link, hop.forward, None, None, None)
                 if isinstance(hop, LinkHop)
                 else (None, None, hop.switch, hop.src, hop.dst)
                 for hop in route)


class DmaEngine:
    """Issues DMA transactions over hop routes inside a simulation.

    A transaction is compiled once into a step (:meth:`write_step`,
    :meth:`read_step`) and run by :func:`transaction`; a verb's plan
    (:mod:`repro.rdma.transport`) holds the steps of its DMAs.
    """

    def __init__(self, sim: "Simulator", max_read_request: int = 4096):
        if max_read_request <= 0:
            raise ValueError(f"invalid max read request: {max_read_request}")
        self.sim = sim
        self.max_read_request = max_read_request

    def write_step(self, route: Sequence[Hop], nbytes: int,
                   mps: int) -> tuple:
        """A posted write of ``nbytes`` along ``route``, compiled."""
        return (False, (), _compile(route), nbytes, mps, len(route), 0)

    def read_step(self, route: Sequence[Hop], back: Sequence[Hop],
                  nbytes: int, mps: int) -> tuple:
        """A read of ``nbytes``, compiled: request headers out along
        ``route`` (one per ``max_read_request`` bytes), data back along
        ``back``."""
        requests = max(1, math.ceil(nbytes / self.max_read_request))
        return (True, _compile(route), _compile(back), nbytes, mps,
                len(route), requests)

    # ``write``/``read`` validate at once and return the transaction,
    # which a caller may drive with ``yield from``; ``dma_write``/
    # ``dma_read`` run it as a process, whose completion event ends it.

    def write(self, route: Sequence[Hop], nbytes: int,
              mps: int) -> Generator:
        """Posted write of ``nbytes`` along ``route``; returns the byte
        count at delivery (``LOST`` if a hop dropped it)."""
        if nbytes < 0:
            raise ValueError(f"negative DMA size: {nbytes}")
        return transaction(self.sim, self.write_step(route, nbytes, mps))

    def read(self, route: Sequence[Hop], nbytes: int, mps: int,
             back: Optional[Sequence[Hop]] = None) -> Generator:
        """Non-posted read: request out along ``route``, data back along
        ``back`` (default: ``route`` reversed).

        Returns when the final completion TLP has reached the engine.
        """
        if nbytes < 0:
            raise ValueError(f"negative DMA size: {nbytes}")
        if back is None:
            back = reverse_route(route)
        return transaction(self.sim,
                           self.read_step(route, back, nbytes, mps))

    def dma_write(self, route: Sequence[Hop], nbytes: int, mps: int) -> Process:
        """:meth:`write` as a process; fires at delivery."""
        return self.sim.process(self.write(route, nbytes, mps))

    def dma_read(self, route: Sequence[Hop], nbytes: int, mps: int) -> Process:
        """:meth:`read` as a process; fires when the data is back."""
        return self.sim.process(self.read(route, nbytes, mps))


def transaction(sim: "Simulator", step: tuple):
    """Run one compiled DMA step; returns its byte count, or ``LOST``.

    A read sends its request headers, then the data comes back; each
    leg ends with the zero-delay completion hop it had as a process of
    its own, skipped when nothing else is due now (see
    :meth:`~repro.sim.engine.Simulator.due_now`).  A hop whose delivery
    is poisoned by a fault injector yields :data:`LOST`; the TLPs then
    never reach later hops and the transaction is LOST.
    """
    read, request_hops, hops, nbytes, mps, route_hops, requests = step
    tracer = sim.tracer
    span = None
    got = None
    if read:
        if tracer is not None:
            span = tracer.begin("dma_read", "dma", bytes=nbytes, mps=mps,
                                hops=route_hops, read_requests=requests)
        for link, forward, switch, src, dst in request_hops:
            if link is not None:
                got = yield link.send_read_requests(requests, forward)
            else:
                got = yield switch.forward(src, dst, TLP_READ_REQUEST_BYTES)
            if got is LOST:
                break
        if sim.due_now():
            yield Timeout(sim, 0)
    elif tracer is not None:
        span = tracer.begin("dma_write", "dma", bytes=nbytes, mps=mps,
                            hops=route_hops)
    if got is not LOST:
        for link, forward, switch, src, dst in hops:
            if link is not None:
                got = yield link.send_data(nbytes, mps, forward)
            else:
                got = yield switch.forward(src, dst, nbytes)
            if got is LOST:
                break
        if read and sim.due_now():
            yield Timeout(sim, 0)
    if tracer is not None:
        tracer.end(span)
    return LOST if got is LOST else nbytes
