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
        tlps = segment_count(nbytes, mps)
        delivery = self._send(nbytes, tlps, mps, forward)
        tracer = self.sim.tracer
        if tracer is not None:
            self._trace(tracer, nbytes, tlps, forward,
                        direction="fwd" if forward else "rev")
        return delivery

    def send_read_requests(self, count: int, forward: bool = True) -> Event:
        """Transfer ``count`` header-only read-request TLPs."""
        delivery = self._send(0, count, 0, forward)
        tracer = self.sim.tracer
        if tracer is not None:
            self._trace(tracer, 0, count, forward, tlp_kind="read_request")
        return delivery

    def _send(self, nbytes: int, tlps: int, size: int,
              forward: bool) -> Event:
        """Send ``nbytes`` as a train of ``tlps`` back-to-back TLPs: all
        but the last carry ``size`` data bytes, the last the rest.

        The train costs one channel send, so one delivery event (see
        :meth:`~repro.sim.links.SimplexChannel.send`); ``tlps == 0`` is
        a bare propagation delay.
        """
        if not tlps:
            return self.channel.send(0, forward=forward)
        if forward:
            self.tlps_fwd += tlps
            self.data_bytes_fwd += nbytes
        else:
            self.tlps_rev += tlps
            self.data_bytes_rev += nbytes
        return self.channel.send(
            nbytes - size * (tlps - 1) + TLP_HEADER_BYTES, forward,
            tlps - 1, size + TLP_HEADER_BYTES)

    def _trace(self, tracer, nbytes: int, tlps: int, forward: bool,
               **span) -> None:
        """One ``pcie:`` span per traversal, not per TLP: the last TLP's
        delivery time is known at submission, so no event is added and
        the span starts at submission (gap-free under contention;
        queueing shows up as a longer span, not a hole)."""
        simplex = self.channel.fwd if forward else self.channel.rev
        now = self.sim.now
        tracer.point(f"pcie:{self.name}", "pcie", now,
                     now + simplex.last_delivery_delay(),
                     link=self.name, bytes=nbytes, tlps=tlps, **span)

    # -- counters (hardware-counter style) ---------------------------------------

    @property
    def total_tlps(self) -> float:
        """Total TLPs carried in both directions."""
        return self.tlps_fwd + self.tlps_rev

    @property
    def total_data_bytes(self) -> float:
        """Total data payload bytes carried in both directions."""
        return self.data_bytes_fwd + self.data_bytes_rev
