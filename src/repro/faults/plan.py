"""Typed fault specifications and the plans that group them.

A :class:`FaultPlan` is a declarative, serializable description of every
fault a run should experience: i.i.d. packet/TLP loss on a named link
(optionally windowed), hard link-down windows, periodic link flapping,
per-node CPU stalls, and SoC crashes.  Plans are data — installing one
is :meth:`repro.net.cluster.SimCluster.install_faults`'s job — and an
empty plan installs nothing, so fault-free runs pay nothing.

Link targets are channel names: ``net.client0``/``net.server0`` for
fabric links, ``pcie0``/``pcie1`` for server 0's SmartNIC-internal PCIe
links.  All times are simulated nanoseconds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Annotated, Optional, Tuple, Union

from repro.codec import Tagged, decode, encode


def _window_active(now: float, start: float, end: Optional[float]) -> bool:
    return now >= start and (end is None or now < end)


@dataclass(frozen=True)
class PacketLoss:
    """Drop each message on ``target`` i.i.d. with ``rate`` while active."""

    target: str
    rate: float
    start: float = 0.0
    end: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1]: {self.rate}")

    def active(self, now: float) -> bool:
        return _window_active(now, self.start, self.end)


@dataclass(frozen=True)
class LinkDown:
    """``target`` drops everything submitted in [start, end)."""

    target: str
    start: float = 0.0
    end: Optional[float] = None

    def active(self, now: float) -> bool:
        return _window_active(now, self.start, self.end)


@dataclass(frozen=True)
class LinkFlap:
    """``target`` cycles down/up: down for ``down_fraction`` of each
    ``period``, starting with the down phase at ``start``."""

    target: str
    period: float
    down_fraction: float = 0.5
    start: float = 0.0
    end: Optional[float] = None

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError(f"flap period must be positive: {self.period}")
        if not 0.0 < self.down_fraction < 1.0:
            raise ValueError(
                f"down_fraction must be in (0, 1): {self.down_fraction}")

    def active(self, now: float) -> bool:
        if not _window_active(now, self.start, self.end):
            return False
        phase = (now - self.start) % self.period
        return phase < self.down_fraction * self.period


@dataclass(frozen=True)
class NodeStall:
    """Multiply ``node``'s verb-posting latency by ``factor`` while active."""

    node: str
    factor: float
    start: float = 0.0
    end: Optional[float] = None

    def __post_init__(self):
        if self.factor < 1.0:
            raise ValueError(f"stall factor must be >= 1: {self.factor}")

    def active(self, now: float) -> bool:
        return _window_active(now, self.start, self.end)


@dataclass(frozen=True)
class SocCrash:
    """``server``'s SoC dies at ``at`` (optionally revives at
    ``recover_at``): its QPs error out and inbound traffic is lost."""

    server: str = "server0"
    at: float = 0.0
    recover_at: Optional[float] = None

    def __post_init__(self):
        if self.recover_at is not None and self.recover_at <= self.at:
            raise ValueError("recover_at must be after the crash")


# -- cluster-scope faults -----------------------------------------------------
#
# These describe failures of whole machines and of the cross-shard
# fabric between them.  They are *not* installable on a single-machine
# SimCluster — they belong in :attr:`repro.sim.shard.ShardPlan.
# cluster_faults` and are interpreted by
# :class:`repro.faults.cluster.ClusterInjector`.


@dataclass(frozen=True)
class MachineCrash:
    """The whole machine hosting ``shard`` dies at ``at``: SoC and host
    down, fabric messages to and from it dropped, until ``recover_at``
    (never, when ``None``)."""

    shard: str
    at: float = 0.0
    recover_at: Optional[float] = None

    def __post_init__(self):
        if self.recover_at is not None and self.recover_at <= self.at:
            raise ValueError("recover_at must be after the crash")

    def active(self, now: float) -> bool:
        return _window_active(now, self.at, self.recover_at)


@dataclass(frozen=True)
class FabricPartition:
    """Shards ``a`` and ``b`` cannot exchange fabric messages in
    [start, end): everything sent between them is dropped."""

    a: str
    b: str
    start: float = 0.0
    end: Optional[float] = None

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError(f"partition needs two distinct shards: {self.a}")

    def active(self, now: float) -> bool:
        return _window_active(now, self.start, self.end)

    def severs(self, src: str, dst: str) -> bool:
        return {src, dst} == {self.a, self.b}


@dataclass(frozen=True)
class FabricLoss:
    """Drop each fabric message on ``src``→``dst`` i.i.d. with ``rate``
    while active.  ``"*"`` matches any shard."""

    rate: float
    src: str = "*"
    dst: str = "*"
    start: float = 0.0
    end: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1]: {self.rate}")

    def active(self, now: float) -> bool:
        return _window_active(now, self.start, self.end)

    def matches(self, src: str, dst: str) -> bool:
        return (self.src in ("*", src)) and (self.dst in ("*", dst))


@dataclass(frozen=True)
class FabricDelay:
    """Add ``extra_ns`` to the delivery time of each matching fabric
    message sent while active.  ``"*"`` matches any shard."""

    extra_ns: float
    src: str = "*"
    dst: str = "*"
    start: float = 0.0
    end: Optional[float] = None

    def __post_init__(self):
        if self.extra_ns <= 0:
            raise ValueError(f"extra delay must be positive: {self.extra_ns}")

    def active(self, now: float) -> bool:
        return _window_active(now, self.start, self.end)

    def matches(self, src: str, dst: str) -> bool:
        return (self.src in ("*", src)) and (self.dst in ("*", dst))


@dataclass(frozen=True)
class FabricReorder:
    """Shuffle the delivery order of fabric messages bound for ``dst``
    within each lockstep window while active (delivery stays inside the
    window, so the one-window guarantee holds).  ``"*"`` matches any
    shard."""

    dst: str = "*"
    start: float = 0.0
    end: Optional[float] = None

    def active(self, now: float) -> bool:
        return _window_active(now, self.start, self.end)

    def matches(self, dst: str) -> bool:
        return self.dst in ("*", dst)


_KINDS = {
    "packet-loss": PacketLoss,
    "link-down": LinkDown,
    "link-flap": LinkFlap,
    "stall": NodeStall,
    "soc-crash": SocCrash,
    "machine-crash": MachineCrash,
    "fabric-partition": FabricPartition,
    "fabric-loss": FabricLoss,
    "fabric-delay": FabricDelay,
    "fabric-reorder": FabricReorder,
}

#: Any one fault; in JSON, an object whose ``"kind"`` is a key of
#: ``_KINDS`` (``{"kind": "soc-crash", "at": 5000.0}``).
Fault = Annotated[Union[tuple(_KINDS.values())], Tagged("fault", _KINDS)]

#: Cluster-scope fault types — only valid inside ``ShardPlan.cluster_faults``.
CLUSTER_FAULTS = (MachineCrash, FabricPartition, FabricLoss, FabricDelay,
                  FabricReorder)


def is_cluster_fault(fault: Fault) -> bool:
    """Whether ``fault`` targets the cluster (machines/fabric) rather
    than one machine's internal links and nodes."""
    return isinstance(fault, CLUSTER_FAULTS)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of faults plus the seed of the injector's RNG.

    The injector draws from its own :class:`~repro.sim.RandomStreams`
    family keyed by ``seed`` — never from the simulation's streams — so
    a plan can be added to any run without perturbing its random draws.
    """

    faults: Tuple[Fault, ...] = ()
    seed: int = 0

    @property
    def empty(self) -> bool:
        return not self.faults

    @classmethod
    def packet_loss(cls, target: str, rate: float, seed: int = 0,
                    start: float = 0.0,
                    end: Optional[float] = None) -> "FaultPlan":
        """The common single-fault plan: uniform loss on one link."""
        if rate == 0.0:
            return cls(seed=seed)
        return cls(faults=(PacketLoss(target, rate, start, end),), seed=seed)

    # -- (de)serialization --------------------------------------------------------

    @classmethod
    def from_dict(cls, raw: dict) -> "FaultPlan":
        return decode(cls, raw)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path) -> "FaultPlan":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    def to_dict(self) -> dict:
        # Seed first: plan_fingerprint hashes this dict's repr.
        return {"seed": self.seed, "faults": encode(self)["faults"]}

    def with_faults(self, *faults: Fault) -> "FaultPlan":
        return FaultPlan(faults=self.faults + tuple(faults), seed=self.seed)
