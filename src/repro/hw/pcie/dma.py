"""The NIC's DMA engine: Fig 3's transactions as simulation generators.

Implements the execution flows of Fig 3:

* **write** — posted.  Data TLPs flow toward the target; the engine
  completes once the last TLP is delivered, no return traffic.
* **read** — non-posted.  A header-only read-request TLP travels to
  the target, completions with data travel back; the engine completes
  only when the last completion arrives — this is why READ "passes the
  PCIe twice" and carries the higher latency tax.

:meth:`DmaEngine.write` and :meth:`DmaEngine.read` return generators
that a verb runs inside its own process with ``yield from``;
:meth:`DmaEngine.dma_write` / :meth:`DmaEngine.dma_read` run the same
bodies as a standalone :class:`~repro.sim.process.Process`.

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

    def reversed(self) -> "SwitchHop":
        return SwitchHop(self.switch, self.dst, self.src)


Hop = Union[LinkHop, SwitchHop]


def reverse_route(route: Sequence[Hop]) -> Tuple[Hop, ...]:
    """The route completions take: same hops, opposite order/direction."""
    return tuple(hop.reversed() for hop in reversed(route))


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
        later hops) and resolves to ``LOST``.
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

    def _read(self, route: Sequence[Hop], back: Sequence[Hop], nbytes: int,
              mps: int, requests: int):
        """The read transaction: request headers out, data back.

        Each leg ends with the zero-delay completion hop it had as a
        process of its own, skipped when nothing else is due now (see
        :meth:`~repro.sim.engine.Simulator.due_now`).
        """
        sim = self.sim
        out = yield from self._traverse_header(route, requests)
        if sim.due_now():
            yield Timeout(sim, 0)
        if out is LOST:
            return LOST
        returned = yield from self._traverse(back, nbytes, mps)
        if sim.due_now():
            yield Timeout(sim, 0)
        return returned

    # -- public API ---------------------------------------------------------------
    #
    # ``write``/``read`` validate at once and return the body.  A verb
    # that drives it with ``yield from`` owns the transaction's
    # completion hop; as a Process, the process's completion is the hop.

    def write(self, route: Sequence[Hop], nbytes: int,
              mps: int) -> Generator:
        """Posted write of ``nbytes`` along ``route``; returns the byte
        count at delivery (``LOST`` if a hop dropped it)."""
        if nbytes < 0:
            raise ValueError(f"negative DMA size: {nbytes}")
        gen = self._traverse(route, nbytes, mps)
        tracer = self.sim.tracer
        if tracer is not None:
            gen = tracer.wrap("dma_write", "dma", gen,
                              bytes=nbytes, mps=mps, hops=len(route))
        return gen

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
        requests = max(1, math.ceil(nbytes / self.max_read_request))
        gen = self._read(route, back, nbytes, mps, requests)
        tracer = self.sim.tracer
        if tracer is not None:
            gen = tracer.wrap("dma_read", "dma", gen,
                              bytes=nbytes, mps=mps, hops=len(route),
                              read_requests=requests)
        return gen

    def dma_write(self, route: Sequence[Hop], nbytes: int, mps: int) -> Process:
        """:meth:`write` as a process; fires at delivery."""
        return self.sim.process(self.write(route, nbytes, mps))

    def dma_read(self, route: Sequence[Hop], nbytes: int, mps: int) -> Process:
        """:meth:`read` as a process; fires when the data is back."""
        return self.sim.process(self.read(route, nbytes, mps))
