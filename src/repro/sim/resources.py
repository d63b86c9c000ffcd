"""Shared resources: counted resources and FIFO item stores."""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, TYPE_CHECKING

from repro.sim.errors import SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class Resource:
    """A counted resource with FIFO granting.

    Usage from a process::

        req = resource.request()
        yield req
        try:
            ...  # hold the resource
        finally:
            resource.release()
    """

    def __init__(self, sim: "Simulator", capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently granted units."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a grant."""
        return len(self._waiters)

    def try_acquire(self) -> bool:
        """Grant one unit at once, with no event, if one is free and
        nobody is waiting; False (and nothing granted) otherwise.

        The caller holds the unit on True and must :meth:`release` it.
        :meth:`request` grants through this, then fires its event.
        """
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            return True
        return False

    def request(self) -> Event:
        """An event that fires when one unit is granted to the caller."""
        grant = Event(self.sim)
        if self.try_acquire():
            grant.succeed()
        else:
            self._waiters.append(grant)
        return grant

    def release(self) -> None:
        """Return one unit; hands it to the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without a matching request()")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1


class Store:
    """An unbounded FIFO queue of items with a blocking get."""

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of queued items (oldest first)."""
        return tuple(self._items)

    def offer(self, item: Any) -> None:
        """Accept ``item`` now, with no event of its own.

        Hands the item straight to the oldest waiting getter (whose get
        event fires), else appends it.
        """
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def take(self) -> Any:
        """Remove and return the oldest item at once, with no event.

        The event-free twin of :meth:`get` for a store known to be
        non-empty (:class:`SimulationError` otherwise).
        """
        if not self._items:
            raise SimulationError("take() from an empty store")
        return self._items.popleft()

    def get(self) -> Event:
        """Fires with the oldest item once one is available."""
        got = Event(self.sim)
        if self._items:
            got.succeed(self._items.popleft())
        else:
            self._getters.append(got)
        return got

    def drain(self) -> list:
        """Remove and return every queued item, oldest first.

        Waiting getters stay parked.  The hybrid engine uses this to
        move a queue's backlog into the analytic recurrence without
        waking the workers that are blocked on :meth:`get`.
        """
        items = list(self._items)
        self._items.clear()
        return items
