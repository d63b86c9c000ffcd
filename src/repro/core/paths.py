"""The communication paths of Fig 2 and the RDMA verbs studied.

Path numbering follows the paper:

* ``RNIC1``     — client -> host through a plain RNIC (the baseline).
* ``SNIC1``     — client -> host through the SmartNIC (path ①).
* ``SNIC2``     — client -> SoC through the SmartNIC (path ②).
* ``SNIC3_H2S`` — host -> SoC, intra-machine, bridged by the NIC (path ③).
* ``SNIC3_S2H`` — SoC -> host, intra-machine, bridged by the NIC (path ③).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.nic.core import Endpoint


class Opcode(Enum):
    """The RDMA verbs the paper measures (Fig 4)."""

    READ = "read"
    WRITE = "write"
    SEND = "send"   # two-sided SEND/RECV over UD, echo-server responder

    @classmethod
    def parse(cls, text) -> "Opcode":
        """The verb spelled ``text``, in any letter case."""
        try:
            return cls(str(text).lower())
        except ValueError:
            choices = ", ".join(op.value for op in cls)
            raise ValueError(
                f"unknown op {text!r}; choose from {choices}") from None

    @property
    def one_sided(self) -> bool:
        return self is not Opcode.SEND

    @property
    def memory_op(self) -> str:
        """What the responder's memory sees for this verb."""
        return "read" if self is Opcode.READ else "write"


class CommPath(Enum):
    """A (requester, responder) pair across a NIC (see module docstring)."""

    RNIC1 = "rnic-1"
    SNIC1 = "snic-1"
    SNIC2 = "snic-2"
    SNIC3_H2S = "snic-3-h2s"
    SNIC3_S2H = "snic-3-s2h"

    @classmethod
    def parse(cls, text) -> "CommPath":
        """The path spelled ``text``: its value (``snic-1``), its name
        (``SNIC3_H2S``) or a bare Fig-2 number, in any letter case and
        with ``_`` and ``-`` interchangeable."""
        try:
            return _PATH_SPELLINGS[str(text).lower().replace("_", "-")]
        except KeyError:
            choices = ", ".join(path.value for path in cls)
            raise ValueError(
                f"unknown path {text!r}; choose from {choices}") from None

    @property
    def uses_smartnic(self) -> bool:
        return self is not CommPath.RNIC1

    @property
    def intra_machine(self) -> bool:
        """True for path ③: requester and responder share the server."""
        return self in (CommPath.SNIC3_H2S, CommPath.SNIC3_S2H)

    @property
    def uses_network(self) -> bool:
        """Paths ① and ② traverse the InfiniBand fabric; ③ does not."""
        return not self.intra_machine

    @property
    def ends(self) -> "PathEnds":
        return _ENDS[self]

    @property
    def label(self) -> str:
        """Paper-style display label."""
        return _LABELS[self]


_PATH_SPELLINGS = {spelling: path for path in CommPath
                   for spelling in (path.value,
                                    path.name.lower().replace("_", "-"))}
# Bare Fig-2 numbers as shorthand; "3" means the host->SoC direction
# (use snic-3-s2h for the other one).
_PATH_SPELLINGS.update({"1": CommPath.SNIC1, "2": CommPath.SNIC2,
                        "3": CommPath.SNIC3_H2S})


@dataclass(frozen=True)
class PathEnds:
    """Who issues requests and which memory endpoint answers them.

    ``requester`` is ``"client"``, ``"host"`` or ``"soc"``; ``responder``
    is the NIC-visible memory endpoint the DMA terminates in.
    """

    requester: str
    responder: Endpoint

    def __post_init__(self):
        if self.requester not in ("client", "host", "soc"):
            raise ValueError(f"unknown requester: {self.requester}")


_ENDS = {
    CommPath.RNIC1: PathEnds("client", Endpoint.HOST),
    CommPath.SNIC1: PathEnds("client", Endpoint.HOST),
    CommPath.SNIC2: PathEnds("client", Endpoint.SOC),
    CommPath.SNIC3_H2S: PathEnds("host", Endpoint.SOC),
    CommPath.SNIC3_S2H: PathEnds("soc", Endpoint.HOST),
}

_LABELS = {
    CommPath.RNIC1: "RNIC ①",
    CommPath.SNIC1: "SNIC ①",
    CommPath.SNIC2: "SNIC ②",
    CommPath.SNIC3_H2S: "SNIC ③ H2S",
    CommPath.SNIC3_S2H: "SNIC ③ S2H",
}
