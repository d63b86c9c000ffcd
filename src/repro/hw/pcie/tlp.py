"""Transaction-layer packets (TLPs): segmentation and wire-cost math.

This module is pure arithmetic — it backs both the discrete-event DMA
engine and the closed-form Table-3 packet-count model
(:mod:`repro.core.packets`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List

# Header + framing overhead per TLP on the wire.  A memory-request TLP
# carries ~12-16 B of TLP header plus DLLP/physical framing; 24 B is the
# commonly used aggregate figure (Neugebauer et al., SIGCOMM'18).
TLP_HEADER_BYTES = 24

# A read *request* TLP carries no payload: header only.
TLP_READ_REQUEST_BYTES = TLP_HEADER_BYTES


class TlpKind(Enum):
    """The three TLP kinds the model needs."""

    MEM_WRITE = "MemWr"       # posted: no completion
    MEM_READ = "MemRd"        # non-posted: answered by completions
    COMPLETION = "CplD"       # completion with data


@dataclass(frozen=True)
class Tlp:
    """One transaction-layer packet.

    ``payload`` is data bytes; :attr:`wire_bytes` adds header overhead.
    """

    kind: TlpKind
    payload: int
    tag: int = 0

    def __post_init__(self):
        if self.payload < 0:
            raise ValueError(f"negative TLP payload: {self.payload}")

    @property
    def wire_bytes(self) -> int:
        """Bytes this TLP occupies on the link."""
        return self.payload + TLP_HEADER_BYTES


def segment_count(nbytes: int, mps: int) -> int:
    """Number of data TLPs needed for ``nbytes`` (``ceil(N / MTU)``).

    Zero-byte transfers produce zero data TLPs — the paper's 0 B
    microbenchmark (§4) relies on this: such requests never touch PCIe.
    """
    if nbytes < 0:
        raise ValueError(f"negative size: {nbytes}")
    if mps <= 0:
        raise ValueError(f"MPS must be positive, got {mps}")
    return math.ceil(nbytes / mps)


def segment_sizes(nbytes: int, mps: int) -> List[int]:
    """Per-TLP payload sizes for ``nbytes`` split at ``mps``."""
    full, rest = divmod(nbytes, mps)
    sizes = [mps] * full
    if rest:
        sizes.append(rest)
    return sizes


def wire_bytes(nbytes: int, mps: int) -> int:
    """Total wire bytes to move ``nbytes`` of data TLPs at ``mps``."""
    return nbytes + segment_count(nbytes, mps) * TLP_HEADER_BYTES
