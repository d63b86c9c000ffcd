"""Tenant descriptions: what each stream wants, and what it was promised.

A tenant is one open-loop request stream — a payload/op mix arriving at
a fixed rate — plus the service-level objective it was sold.  The specs
are frozen; everything mutable (queues, leases, windows) lives in the
runtime and the SLO tracker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.core.advisor import WorkloadProfile
from repro.core.paths import CommPath
from repro.units import GB, to_gbps
from repro.workloads import OpMix


@dataclass(frozen=True)
class SloSpec:
    """A tenant's service-level objective.

    * ``p99_ns`` — tail-latency target; the scheduler treats a window
      whose measured p99 exceeds it as a violation.
    * ``deadline_ns`` — per-request usefulness bound for *SLO-goodput*
      (bytes of requests completed within deadline).  Defaults to the
      p99 target.
    """

    p99_ns: float = 50_000.0
    deadline_ns: Optional[float] = None

    def __post_init__(self):
        if self.p99_ns <= 0:
            raise ValueError(f"p99 target must be positive: {self.p99_ns}")
        if self.deadline_ns is not None and self.deadline_ns <= 0:
            raise ValueError(f"deadline must be positive: {self.deadline_ns}")

    @property
    def deadline(self) -> float:
        return self.deadline_ns if self.deadline_ns is not None else self.p99_ns


@dataclass(frozen=True)
class TenantSpec:
    """One open-loop tenant stream.

    * ``payload``/``mix`` — request shape (reuses
      :class:`~repro.workloads.OpMix`).
    * ``interval_ns`` — open-loop arrival period (one request per
      interval, regardless of completions).
    * ``requests`` — total arrivals before the stream ends.
    * ``bulk`` — a path-③ tenant: its requests move data host→SoC
      inside the server instead of arriving from a client machine.
    * ``hot_range_bytes``/``working_set_bytes`` — skew description,
      passed through to the advisor.
    * ``workers`` — maximum in-flight requests (one QP per worker).
    * ``queue_limit`` — bounded admission queue; arrivals beyond it are
      rejected (the backpressure signal).
    * ``ingress_ns`` — fixed network overhead *outside* the machine
      (the load-balancer round trip in a rack scenario), folded into
      every recorded latency so SLO accounting sees what the user saw.
    """

    name: str
    payload: int
    interval_ns: float
    requests: int
    mix: OpMix = OpMix(read=1.0, write=0.0, send=0.0)
    slo: SloSpec = SloSpec()
    bulk: bool = False
    hot_range_bytes: Optional[float] = None
    working_set_bytes: float = 1 * GB
    workers: int = 4
    queue_limit: int = 32
    seed: int = 0
    ingress_ns: float = 0.0

    def __post_init__(self):
        if self.payload < 0:
            raise ValueError(f"negative payload: {self.payload}")
        if self.interval_ns <= 0:
            raise ValueError(f"arrival interval must be positive: "
                             f"{self.interval_ns}")
        if self.requests < 1:
            raise ValueError(f"need at least one request: {self.requests}")
        if self.workers < 1:
            raise ValueError(f"need at least one worker: {self.workers}")
        if self.queue_limit < 1:
            raise ValueError(f"queue limit must be >= 1: {self.queue_limit}")
        if self.bulk and self.mix.send > 0:
            raise ValueError("bulk (path-3) tenants are one-sided")
        if self.ingress_ns < 0:
            raise ValueError(f"negative ingress: {self.ingress_ns}")

    @property
    def offered_gbps(self) -> float:
        """Offered load of the open-loop stream."""
        return to_gbps(self.payload / self.interval_ns)

    def profile(self) -> WorkloadProfile:
        """The advisor-facing description of this tenant."""
        one_sided = self.mix.read + self.mix.write
        read_fraction = self.mix.read / one_sided if one_sided > 0 else 0.5
        return WorkloadProfile(
            payload=self.payload,
            read_fraction=read_fraction,
            two_sided_fraction=self.mix.send,
            hot_range_bytes=self.hot_range_bytes,
            working_set_bytes=self.working_set_bytes,
            host_soc_transfer=self.bulk,
        )


class CompletionRecord(NamedTuple):
    """One finished (or abandoned) request, as the runtime saw it.

    ``degraded`` marks requests served by the host-local relay while
    the SoC was down; ``ok=False`` marks requests abandoned after the
    retry budget (these count as *lost*).

    A named tuple: the serving engines build one per completion (over
    100k on a hybrid run), so construction cost matters.  It is
    immutable and picklable (shard workers ship records back).
    """

    tenant: str
    seq: int
    op: str
    path: CommPath
    start_ns: float
    end_ns: float
    ok: bool
    attempts: int = 1
    degraded: bool = False

    @property
    def latency_ns(self) -> float:
        return self.end_ns - self.start_ns
