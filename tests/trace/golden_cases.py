"""The canonical golden-trace cases, shared by the regression test and
``scripts/update_golden_traces.py``.

A WRITE per numbered path of Fig 2 plus the RNIC path-① baseline,
and READs and SENDs over the network and the internal fabric, so every
step kind of a verb plan is pinned.
``render()`` is the single definition of the canonical serialization;
anything that changes its output must regenerate the golden files (and
thereby show up in review as a span-timing diff).
"""

from __future__ import annotations

import os
from typing import NamedTuple

from repro.core.paths import CommPath, Opcode

#: Directory holding the checked-in golden span trees.
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


class GoldenCase(NamedTuple):
    slug: str
    path: CommPath
    op: Opcode
    payload: int


CASES = (
    GoldenCase("rnic-1-write-4k", CommPath.RNIC1, Opcode.WRITE, 4096),
    GoldenCase("snic-1-write-4k", CommPath.SNIC1, Opcode.WRITE, 4096),
    GoldenCase("snic-2-write-4k", CommPath.SNIC2, Opcode.WRITE, 4096),
    GoldenCase("snic-3-h2s-write-4k", CommPath.SNIC3_H2S, Opcode.WRITE, 4096),
    GoldenCase("rnic-1-read-4k", CommPath.RNIC1, Opcode.READ, 4096),
    GoldenCase("snic-1-read-512", CommPath.SNIC1, Opcode.READ, 512),
    GoldenCase("snic-2-read-512", CommPath.SNIC2, Opcode.READ, 512),
    GoldenCase("snic-3-s2h-read-4k", CommPath.SNIC3_S2H, Opcode.READ, 4096),
    GoldenCase("snic-1-send-1k", CommPath.SNIC1, Opcode.SEND, 1024),
    GoldenCase("snic-3-h2s-send-1k", CommPath.SNIC3_H2S, Opcode.SEND, 1024),
)


def golden_file(case: GoldenCase) -> str:
    return os.path.join(GOLDEN_DIR, f"{case.slug}.json")


def render(case: GoldenCase, seed: int = 0) -> str:
    """The canonical JSON a case's span tree serializes to."""
    from repro.trace import run_traced_verbs

    tracer = run_traced_verbs(case.path, case.op, case.payload, seed=seed)
    return tracer.last().to_json() + "\n"
