"""Bandwidth-limited channels for modelling serial links.

A :class:`SimplexChannel` serializes transfers at a fixed byte rate and
delivers them after a propagation latency — the standard
store-and-forward pipe.  A :class:`DuplexChannel` is a pair of independent
simplex channels, one per direction, matching full-duplex links such as
PCIe lanes and InfiniBand ports where opposite-direction traffic does not
compete (§3.1 of the paper: READ+WRITE multiplex to ~2x one direction).
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING

from repro.sim.events import NORMAL, SEQ_BITS, Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class _Lost:
    """Sentinel delivered by a transfer that was dropped in flight.

    A fault injector (see :mod:`repro.faults`) may replace a channel's
    delivery event with one carrying :data:`LOST`; consumers that care
    about reliability compare the yielded value against it.  Fault-free
    channels never produce it.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<LOST>"


LOST = _Lost()


class SimplexChannel:
    """One direction of a serial link.

    ``bandwidth`` is in bytes/ns; ``latency`` is the propagation delay in
    ns added after serialization.  Transfers are serialized FIFO: a
    transfer begins when all previously submitted bytes have left the
    sender.
    """

    def __init__(self, sim: "Simulator", bandwidth: float, latency: float = 0.0,
                 name: str = ""):
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        self.sim = sim
        self.bandwidth = bandwidth
        self.latency = latency
        self.name = name
        self._free_at: float = 0.0
        self.bytes_sent: float = 0.0
        self.transfers: float = 0.0

    def busy_until(self) -> float:
        """Simulated time at which the sender side becomes idle."""
        return max(self._free_at, self.sim.now)

    def send(self, nbytes: float, count: int = 0, size: float = 0) -> Event:
        """Submit a transfer; the returned event fires at delivery time.

        With ``count`` > 0 the transfer is the tail of a train: ``count``
        transfers of ``size`` bytes go out back to back ahead of it (a
        PCIe transfer's TLPs).  The FIFO advances once per transfer in
        the same float order as ``count + 1`` separate sends, so the
        delivery time is bit-identical to theirs; for integer byte
        counts so are ``bytes_sent`` and ``transfers``.  Only the
        intermediate deliveries, which nobody waits on, are not
        scheduled.
        """
        if nbytes < 0 or size < 0 or count < 0:
            raise ValueError(
                f"negative transfer: {count} x {size} B + {nbytes} B")
        sim = self.sim
        now = sim._now
        free = max(self._free_at, now)
        if count:
            step = size / self.bandwidth
            for _ in range(count):
                free = free + step
        free = free + nbytes / self.bandwidth
        self._free_at = free
        self.bytes_sent += size * count + nbytes
        self.transfers += count + 1
        # The delivery event, triggered and queued in place.  Its time
        # keeps the ``now + delay`` expression of every queued event.
        done = Event(sim)
        done._value = nbytes
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (now + (free + self.latency - now),
                              NORMAL << SEQ_BITS | seq, done))
        return done

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` ns spent serializing bytes."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, (self.bytes_sent / self.bandwidth) / elapsed)

    def last_delivery_delay(self) -> float:
        """Delay from now until the most recently submitted transfer
        would deliver (used by fault injectors to time a LOST marker)."""
        return max(0.0, self._free_at - self.sim.now) + self.latency


class DuplexChannel:
    """A full-duplex link: two independent simplex channels.

    Directions are named ``fwd`` (A->B) and ``rev`` (B->A); which physical
    end is "A" is the caller's convention.
    """

    def __init__(self, sim: "Simulator", bandwidth: float, latency: float = 0.0,
                 name: str = ""):
        self.name = name
        self.fwd = SimplexChannel(sim, bandwidth, latency, name=f"{name}.fwd")
        self.rev = SimplexChannel(sim, bandwidth, latency, name=f"{name}.rev")

    def send(self, nbytes: float, forward: bool = True, count: int = 0,
             size: float = 0) -> Event:
        """Transfer in the given direction (behind a train of ``count``
        transfers of ``size`` bytes, see :meth:`SimplexChannel.send`);
        fires at delivery."""
        channel = self.fwd if forward else self.rev
        return channel.send(nbytes, count, size)

    @property
    def bytes_sent(self) -> float:
        """Total bytes carried in both directions."""
        return self.fwd.bytes_sent + self.rev.bytes_sent
