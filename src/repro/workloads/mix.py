"""Operation mixes and request streams."""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Tuple

from repro.core.paths import Opcode


@dataclass(frozen=True)
class OpMix:
    """A read/write/send probability mix."""

    read: float = 0.5
    write: float = 0.5
    send: float = 0.0

    def __post_init__(self):
        total = self.read + self.write + self.send
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mix must sum to 1, got {total}")
        if min(self.read, self.write, self.send) < 0:
            raise ValueError("mix fractions must be >= 0")

    #: The ops a mix draws, in the order its thresholds cut [0, 1).
    OPS = (Opcode.READ, Opcode.WRITE, Opcode.SEND)

    @cached_property
    def thresholds(self) -> Tuple[float, float]:
        """Cumulative cut points of a uniform roll: below the first is
        READ, below the second WRITE, anything above SEND."""
        return self.read, self.read + self.write

    @property
    def support(self) -> Tuple[Opcode, ...]:
        """The ops drawn with positive probability, in :attr:`OPS` order."""
        mix = (self.read, self.write, self.send)
        return tuple(op for op, p in zip(self.OPS, mix) if p > 0)

    def sample(self, rng: random.Random) -> Opcode:
        roll = rng.random()
        read_below, write_below = self.thresholds
        if roll < read_below:
            return Opcode.READ
        if roll < write_below:
            return Opcode.WRITE
        return Opcode.SEND


class RequestStream:
    """An endless deterministic stream of (opcode, payload, address)."""

    def __init__(self, mix: OpMix, pattern, seed: int = 0):
        self.mix = mix
        self.pattern = pattern
        self.rng = random.Random(seed)

    def __iter__(self) -> Iterator:
        return self

    def __next__(self):
        opcode = self.mix.sample(self.rng)
        return opcode, self.pattern.payload, self.pattern.next()

    def take(self, n: int):
        """The next ``n`` requests as a list."""
        if n < 0:
            raise ValueError(f"negative count: {n}")
        return [next(self) for _ in range(n)]
