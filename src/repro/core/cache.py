"""A bounded in-memory memo with hit/miss accounting.

Used where a question really repeats: the scalar solver's one-scenario
memo (:data:`repro.core.throughput.RESULT_CACHE`), the toolkit's only
memo.  Keys are the caller's own hashable objects; this module knows
nothing of what they mean.
"""

from __future__ import annotations

from collections import OrderedDict


class LRUCache:
    """A bounded memo dict with hit/miss accounting."""

    def __init__(self, maxsize: int = 4096, name: str = "cache"):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1: {maxsize}")
        self.maxsize = maxsize
        self.name = name
        self.hits = 0
        self.misses = 0
        self._data: "OrderedDict" = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key):
        """The cached value, or ``None`` (which is never a valid value)."""
        value = self._data.get(key)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        self._data.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        if value is None:
            raise ValueError("cannot cache None")
        self._data[key] = value
        self._data.move_to_end(key)
        if len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
