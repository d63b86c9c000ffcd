"""The NIC's DMA engine as a discrete-event process.

Implements the execution flows of Fig 3:

* **dma_write** — posted.  Data TLPs flow toward the target; the engine
  completes once the last TLP is delivered, no return traffic.
* **dma_read** — non-posted.  A header-only read-request TLP travels to
  the target, completions with data travel back; the engine completes
  only when the last completion arrives — this is why READ "passes the
  PCIe twice" and carries the higher latency tax.

Routes are sequences of hops (links and switch traversals).  Transfers
are modelled store-and-forward per hop, which is exact for requests that
fit one TLP and a sub-1 % approximation for the small messages whose
latency the paper studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Union, TYPE_CHECKING

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

    def reversed(self) -> "SwitchHop":
        return SwitchHop(self.switch, self.dst, self.src)


Hop = Union[LinkHop, SwitchHop]


def reverse_route(route: Sequence[Hop]) -> List[Hop]:
    """The route completions take: same hops, opposite order/direction."""
    return [hop.reversed() for hop in reversed(route)]


class DmaEngine:
    """Issues DMA transactions over hop routes inside a simulation."""

    def __init__(self, sim: "Simulator", max_read_request: int = 4096):
        if max_read_request <= 0:
            raise ValueError(f"invalid max read request: {max_read_request}")
        self.sim = sim
        self.max_read_request = max_read_request

    # -- internals ---------------------------------------------------------------

    def _traverse(self, route: Sequence[Hop], nbytes: int, mps: int):
        """Move ``nbytes`` across every hop of ``route`` in order.

        A hop whose delivery is poisoned by a fault injector yields
        :data:`LOST`; the traversal then stops (the TLPs never reach
        later hops) and the process resolves to ``LOST``.
        """
        for hop in route:
            if isinstance(hop, LinkHop):
                got = yield hop.link.send_data(nbytes, mps, forward=hop.forward)
            else:
                got = yield hop.switch.forward(hop.src, hop.dst, payload=nbytes)
            if got is LOST:
                return LOST
        return nbytes

    def _traverse_header(self, route: Sequence[Hop], count: int = 1):
        """Move ``count`` header-only TLPs (read requests) across a route."""
        for hop in route:
            if isinstance(hop, LinkHop):
                got = yield hop.link.send_read_requests(count,
                                                        forward=hop.forward)
            else:
                got = yield hop.switch.forward(hop.src, hop.dst,
                                               payload=TLP_READ_REQUEST_BYTES)
            if got is LOST:
                return LOST
        return 0

    # -- public API ---------------------------------------------------------------

    def dma_write(self, route: Sequence[Hop], nbytes: int, mps: int) -> Process:
        """Posted write of ``nbytes`` along ``route``; fires at delivery."""
        if nbytes < 0:
            raise ValueError(f"negative DMA size: {nbytes}")
        gen = self._traverse(route, nbytes, mps)
        tracer = self.sim.tracer
        if tracer is not None:
            gen = tracer.wrap("dma_write", "dma", gen,
                              bytes=nbytes, mps=mps, hops=len(route))
        return self.sim.process(gen)

    def dma_read(self, route: Sequence[Hop], nbytes: int, mps: int) -> Process:
        """Non-posted read: request out along ``route``, data back.

        Fires when the final completion TLP has returned to the engine.
        """
        if nbytes < 0:
            raise ValueError(f"negative DMA size: {nbytes}")

        requests = max(1, math.ceil(nbytes / self.max_read_request))

        def transaction():
            out = yield self.sim.process(self._traverse_header(route, requests))
            if out is LOST:
                return LOST
            returned = yield self.sim.process(
                self._traverse(reverse_route(route), nbytes, mps))
            return returned

        gen = transaction()
        tracer = self.sim.tracer
        if tracer is not None:
            gen = tracer.wrap("dma_read", "dma", gen,
                              bytes=nbytes, mps=mps, hops=len(route),
                              read_requests=requests)
        return self.sim.process(gen)
