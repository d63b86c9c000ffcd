"""The PCIe switch that bridges NIC cores, SoC and host (Fig 2c).

The switch adds a fixed one-way forwarding latency per hop (the paper
cites 150-200 ns).  Ports are named; routing is by destination port
name.  Bandwidth is carried by the attached :class:`PCIeLink` objects —
the switch fabric itself is modelled as non-blocking, which matches the
paper's observation that bottlenecks are always the links or the NIC.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush
from typing import Dict, Optional, TYPE_CHECKING

from repro.sim.events import NORMAL, SEQ_BITS, Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator
    from repro.hw.pcie.link import PCIeLink

# Midpoint of the 150-200 ns one-way overhead the paper attributes to
# the added switch + PCIe1 hop.
DEFAULT_HOP_LATENCY_NS = 175.0


@dataclass
class SwitchPort:
    """A named switch port, optionally backed by a physical link."""

    name: str
    link: Optional["PCIeLink"] = None


class PCIeSwitch:
    """A non-blocking PCIe switch with per-hop forwarding latency."""

    def __init__(self, sim: "Simulator", hop_latency: float = DEFAULT_HOP_LATENCY_NS,
                 name: str = "pcie-switch"):
        if hop_latency < 0:
            raise ValueError(f"negative hop latency: {hop_latency}")
        self.sim = sim
        self.hop_latency = hop_latency
        self.name = name
        self.ports: Dict[str, SwitchPort] = {}

    def add_port(self, name: str, link: Optional["PCIeLink"] = None) -> SwitchPort:
        """Register a port; ``link`` is the physical link behind it, if any."""
        if name in self.ports:
            raise ValueError(f"duplicate port name: {name}")
        port = SwitchPort(name=name, link=link)
        self.ports[name] = port
        return port

    def port(self, name: str) -> SwitchPort:
        try:
            return self.ports[name]
        except KeyError:
            raise KeyError(f"switch {self.name!r} has no port {name!r}") from None

    def forward(self, src: str, dst: str, payload: int = 0) -> Event:
        """Forward one DMA leg from ``src`` port to ``dst`` port.

        Fires after the hop latency.  Ports are not looked up here: a
        :class:`~repro.hw.pcie.dma.SwitchHop` validates its ports when it
        is built.
        """
        sim = self.sim
        done = Event(sim)
        done._value = payload
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim._now + self.hop_latency,
                              NORMAL << SEQ_BITS | seq, done))
        tracer = sim.tracer
        if tracer is not None:
            tracer.point(f"switch:{self.name}", "pcie", sim.now,
                         sim.now + self.hop_latency,
                         switch=self.name, src=src, dst=dst,
                         payload=payload)
        return done
