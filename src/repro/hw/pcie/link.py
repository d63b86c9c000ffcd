"""A PCIe link instance inside a discrete-event simulation.

Wraps a full-duplex channel with TLP segmentation and per-direction
TLP/byte counters (the simulated equivalent of the Bluefield hardware
counters the paper reads).  A transfer's TLPs go out as one train: the
counters and the FIFO see every TLP, the event queue only the last.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.events import Event
from repro.sim.links import DuplexChannel
from repro.hw.pcie.config import PCIeLinkSpec
from repro.hw.pcie.tlp import TLP_HEADER_BYTES, segment_count

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class PCIeLink:
    """One physical PCIe link between two components.

    Direction convention: ``forward=True`` means *downstream-to-upstream*
    is up to the caller; the NIC wiring in :mod:`repro.nic.smartnic`
    documents which end is which.  Propagation latency is per traversal.
    """

    def __init__(self, sim: "Simulator", spec: PCIeLinkSpec,
                 latency: float = 0.0, name: str = ""):
        self.sim = sim
        self.spec = spec
        self.name = name or spec.name
        self.channel = DuplexChannel(sim, spec.bandwidth, latency, name=self.name)
        self.tlps_fwd: float = 0.0
        self.tlps_rev: float = 0.0
        self.data_bytes_fwd: float = 0.0
        self.data_bytes_rev: float = 0.0

    def send_data(self, nbytes: int, mps: int, forward: bool = True) -> Event:
        """Transfer ``nbytes`` segmented into TLPs of at most ``mps``.

        Returns the delivery event of the *last* TLP.  A zero-byte
        transfer completes after one propagation delay with no TLPs.
        """
        return self._send(nbytes, segment_count(nbytes, mps), mps, forward,
                          direction="fwd" if forward else "rev")

    def send_read_requests(self, count: int, forward: bool = True) -> Event:
        """Transfer ``count`` header-only read-request TLPs."""
        return self._send(0, count, 0, forward, tlp_kind="read_request")

    def _send(self, nbytes: int, tlps: int, size: int, forward: bool,
              **span) -> Event:
        """Send ``nbytes`` as a train of ``tlps`` back-to-back TLPs: all
        but the last carry ``size`` data bytes, the last the rest.

        The train costs one channel send, so one delivery event (see
        :meth:`~repro.sim.links.SimplexChannel.send`), and one ``pcie:``
        span; ``tlps == 0`` is a bare propagation delay.
        """
        if tlps:
            if forward:
                self.tlps_fwd += tlps
                self.data_bytes_fwd += nbytes
            else:
                self.tlps_rev += tlps
                self.data_bytes_rev += nbytes
            tail = nbytes - size * (tlps - 1)
            delivery = self.channel.send(
                tail + TLP_HEADER_BYTES, forward=forward, count=tlps - 1,
                size=size + TLP_HEADER_BYTES)
        else:
            delivery = self.channel.send(0, forward=forward)
        tracer = self.sim.tracer
        if tracer is not None:
            # One span per traversal, not per TLP: delivery time of the
            # last TLP is known at submission, so no event is added and
            # the span starts at submission (gap-free under contention;
            # queueing shows up as a longer span, not a hole).
            simplex = self.channel.fwd if forward else self.channel.rev
            tracer.point(f"pcie:{self.name}", "pcie", self.sim.now,
                         self.sim.now + simplex.last_delivery_delay(),
                         link=self.name, bytes=nbytes, tlps=tlps, **span)
        return delivery

    # -- counters (hardware-counter style) ---------------------------------------

    @property
    def total_tlps(self) -> float:
        """Total TLPs carried in both directions."""
        return self.tlps_fwd + self.tlps_rev

    @property
    def total_data_bytes(self) -> float:
        """Total data payload bytes carried in both directions."""
        return self.data_bytes_fwd + self.data_bytes_rev
