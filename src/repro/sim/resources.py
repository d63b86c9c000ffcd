"""Shared resources: counted resources and FIFO item stores."""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, TYPE_CHECKING

from repro.sim.errors import SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class ResourceRequest(Event):
    """A pending :meth:`Resource.request` grant.

    Carries a ``_withdraw`` hook so that interrupting a process waiting
    on the grant returns the queued request (or an already-granted but
    never-used unit) to the resource instead of leaking capacity.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
        self.resource = resource

    def _withdraw(self) -> None:
        if not self.triggered:
            try:
                self.resource._waiters.remove(self)
            except ValueError:  # pragma: no cover - already granted/raced
                pass
        else:
            # Granted, but the waiter is gone: hand the unit onward.
            self.resource.release()


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
        grant = ResourceRequest(self)
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


class StoreGet(Event):
    """A pending :meth:`Store.get`; withdrawable on interrupt."""

    __slots__ = ("store",)

    def __init__(self, store: "Store"):
        super().__init__(store.sim)
        self.store = store

    def _withdraw(self) -> None:
        if not self.triggered:
            try:
                self.store._getters.remove(self)
            except ValueError:  # pragma: no cover - already served/raced
                pass
        else:
            # The item was already handed over; put it back at the head
            # (or straight to the next waiting getter).
            self.store._requeue_front(self._value)


class StorePut(Event):
    """A pending :meth:`Store.put`; withdrawable on interrupt."""

    __slots__ = ("store", "item")

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.sim)
        self.store = store
        self.item = item

    def _withdraw(self) -> None:
        if not self.triggered:
            try:
                self.store._putters.remove((self, self.item))
            except ValueError:  # pragma: no cover - already accepted/raced
                pass
        # Once triggered the item is in the store; nothing to undo.


class Store:
    """An unbounded-or-bounded FIFO queue of items with blocking get/put."""

    def __init__(self, sim: "Simulator", capacity: float = float("inf")):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()  # (event, item)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of queued items (oldest first)."""
        return tuple(self._items)

    def offer(self, item: Any) -> bool:
        """Accept ``item`` now if there is room, with no event of its own.

        Hands the item straight to the oldest waiting getter (whose get
        event fires), else appends it.  Returns False, accepting
        nothing, when a bounded store is full.  For producers that never
        wait on the put: it is :meth:`put` minus the accepted event.
        """
        if self._getters:
            self._getters.popleft().succeed(item)
        elif len(self._items) < self.capacity:
            self._items.append(item)
        else:
            return False
        return True

    def put(self, item: Any) -> Event:
        """Fires once the item is accepted (immediately unless full)."""
        done = StorePut(self, item)
        if self.offer(item):
            done.succeed()
        else:
            self._putters.append((done, item))
        return done

    def take(self) -> Any:
        """Remove and return the oldest item at once, with no event.

        The event-free twin of :meth:`get` for a store known to be
        non-empty (:class:`SimulationError` otherwise); like ``get`` it
        admits the oldest blocked putter into the freed slot.
        """
        if not self._items:
            raise SimulationError("take() from an empty store")
        item = self._items.popleft()
        if self._putters:
            done, queued = self._putters.popleft()
            self._items.append(queued)
            done.succeed()
        return item

    def get(self) -> Event:
        """Fires with the oldest item once one is available."""
        got = StoreGet(self)
        if self._items:
            got.succeed(self._items.popleft())
            if self._putters:
                done, item = self._putters.popleft()
                self._items.append(item)
                done.succeed()
        else:
            self._getters.append(got)
        return got

    def drain(self) -> list:
        """Remove and return every queued item, oldest first.

        Waiting getters stay parked; blocked putters (bounded stores)
        are admitted into the freed capacity exactly as if a getter had
        consumed their way in.  The hybrid engine uses this to move a
        queue's backlog into the analytic recurrence without waking the
        workers that are blocked on :meth:`get`.
        """
        items = list(self._items)
        self._items.clear()
        while self._putters and len(self._items) < self.capacity:
            done, item = self._putters.popleft()
            self._items.append(item)
            done.succeed()
        return items

    def _requeue_front(self, item: Any) -> None:
        """Return a handed-out item (withdrawn getter) to the queue head."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.appendleft(item)
