"""Memory access patterns for one-sided workloads.

The paper's default is uniform over a 10 GB region (§3).
"""

from __future__ import annotations

import random
from typing import Optional

from repro.hw.memory.address import AddressRegion
from repro.units import GB


class UniformPattern:
    """Uniform aligned addresses over the whole region."""

    def __init__(self, region: AddressRegion, payload: int,
                 alignment: int = 64, rng: Optional[random.Random] = None):
        from repro.hw.memory.address import UniformAddresses

        self._sampler = UniformAddresses(region, payload, alignment,
                                         rng or random.Random(0))
        self.region = region
        self.payload = payload

    def next(self) -> int:
        return self._sampler.next()

    @property
    def effective_range(self) -> float:
        """Bytes of memory the pattern spreads over (drives skew models)."""
        return self.region.size
