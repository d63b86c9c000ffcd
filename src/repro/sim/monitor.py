"""Measurement primitives: a sample histogram."""

from __future__ import annotations

import math
from typing import List


class Histogram:
    """Stores raw samples; supports mean/percentiles.  Fine for <=1e6 samples."""

    __slots__ = ("samples",)

    def __init__(self):
        self.samples: List[float] = []

    def record(self, value: float) -> None:
        self.samples.append(value)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        if not self.samples:
            return math.nan
        return sum(self.samples) / len(self.samples)

    @property
    def min(self) -> float:
        return min(self.samples) if self.samples else math.nan

    @property
    def max(self) -> float:
        return max(self.samples) if self.samples else math.nan

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100]."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p}")
        if not self.samples:
            return math.nan
        ordered = sorted(self.samples)
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)
