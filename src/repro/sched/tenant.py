"""Tenant descriptions: what each stream wants, and what it was promised.

A tenant is one open-loop request stream — a payload/op mix arriving at
a fixed rate — plus the service-level objective it was sold.  The specs
are frozen; everything mutable (queues, leases, windows) lives in the
runtime and the SLO tracker.
"""

from __future__ import annotations

import itertools
import random
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Iterator, List, NamedTuple, Optional

from repro.core.advisor import WorkloadProfile
from repro.core.paths import CommPath
from repro.units import GB, to_gbps, to_mpps
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

    @property
    def rate_mrps(self) -> float:
        """Offered request rate of the open-loop stream (Mrps)."""
        return to_mpps(1.0 / self.interval_ns)

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


class ArrivalStream:
    """One tenant's open-loop arrivals, whichever engine advances them.

    The cursor is ``seq`` and ``at``: the next arrival's sequence number
    and nominal instant.  ``gap()`` is the next interarrival gap
    (``interval_ns`` every time: the stream is periodic), and ``op()``
    draws the next op, ``mix`` cutting ``rng``'s roll at its
    thresholds; only the opcode shapes serving traffic, so no address
    is drawn.  The DES sleeps each gap as a relative timeout; the hybrid
    recurrence steps the cursor itself and writes it back, so either
    engine resumes the stream where the other stopped.
    """

    __slots__ = ("seq", "at", "gap", "rng", "mix", "op")

    def __init__(self, spec: TenantSpec):
        self.seq = 0
        self.at = 0.0
        self.gap = itertools.repeat(spec.interval_ns).__next__
        self.rng = random.Random(spec.seed)
        self.mix = spec.mix
        self.op = partial(spec.mix.sample, self.rng)


class CompletionRecord(NamedTuple):
    """One finished (or abandoned) request, as the runtime saw it.

    ``degraded`` marks requests served by the host-local relay while
    the SoC was down; ``ok=False`` marks requests abandoned after the
    retry budget (these count as *lost*).

    A named tuple, immutable and picklable.  The runtime does not keep
    these: its log (:class:`CompletionLog`) stores typed columns and
    rebuilds a record each time one is read.
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


#: Bits of a :class:`CompletionLog` row's ``flags``.
OK = 1
DEGRADED = 2

_OK = (False, True, False, True)
_DEGRADED = (False, False, True, True)
_FLAGS = {(False, False): 0, (True, False): OK, (False, True): DEGRADED,
          (True, True): OK | DEGRADED}
#: Records :meth:`CompletionLog.append` holds before encoding them.
_BUFFER = 256
_value_of = attrgetter("_value_")


class CompletionColumns(NamedTuple):
    """A :class:`CompletionLog`'s columns, one typed ``array`` each."""

    start_ns: array
    end_ns: array
    seq: array
    tenant: array
    op: array
    path: array
    flags: array
    attempts: array


class CompletionLog(Sequence):
    """Every request a runtime finished, as typed columns.

    To readers it is a sequence of :class:`CompletionRecord`: ``len``,
    iteration and indexing (negative indices and slices too) rebuild
    each record, floats bitwise equal to the ones written, and the log
    pickles.  Underneath, a record costs 31 bytes instead of a named
    tuple of boxed values (~196 bytes):

    ========== ======== =============================================
    column     typecode holds
    ========== ======== =============================================
    start_ns   ``d``    record start (arrival minus ingress)
    end_ns     ``d``    completion instant
    seq        ``q``    arrival sequence number
    tenant     ``H``    code into :attr:`tenants`
    op         ``B``    code into :attr:`ops` (op values)
    path       ``B``    code into :attr:`paths` (``CommPath`` members)
    flags      ``B``    :data:`OK` | :data:`DEGRADED`
    attempts   ``H``    attempts made
    ========== ======== =============================================

    Two writers:

    * :meth:`append` takes one record (the DES ``_finish`` builds it
      for the SLO tracker anyway).  Up to ``_BUFFER`` records wait as
      they are and are encoded together: one column at a time, codes
      looked up by ``map``, so a request costs one list append instead
      of eight array appends, each into its own memory region.
    * :meth:`add_batch` takes one tenant's first-attempt completions on
      one path as lists, codes resolved by the caller
      (:meth:`tenant_code`, :meth:`op_code`, :meth:`path_code`).

    Every read sees the buffered records.
    """

    __slots__ = ("_columns", "_pending", "tenants", "ops", "paths",
                 "_tenant_codes", "_op_codes", "_path_codes")

    def __init__(self):
        self._columns = CompletionColumns(
            array("d"), array("d"), array("q"), array("H"), array("B"),
            array("B"), array("B"), array("H"))
        self._pending: List[CompletionRecord] = []
        #: Intern tables: code -> tenant name / op value / path.
        self.tenants: List[str] = []
        self.ops: List[str] = []
        self.paths: List[CommPath] = []
        self._tenant_codes = {}
        self._op_codes = {}
        # Keyed by the member's ``_value_``: a string hashes in C, an
        # enum member in Python.
        self._path_codes = {}

    # -- codes -------------------------------------------------------------

    @staticmethod
    def _intern(table: list, codes: dict, key, value) -> int:
        code = codes.get(key)
        if code is None:
            code = codes[key] = len(table)
            table.append(value)
        return code

    def tenant_code(self, name: str) -> int:
        return self._intern(self.tenants, self._tenant_codes, name, name)

    def op_code(self, op: str) -> int:
        return self._intern(self.ops, self._op_codes, op, op)

    def path_code(self, path: CommPath) -> int:
        return self._intern(self.paths, self._path_codes, path._value_, path)

    # -- writing -----------------------------------------------------------

    def append(self, record: CompletionRecord) -> None:
        """Append one record (encoded with the rest of its buffer)."""
        pending = self._pending
        pending.append(record)
        if len(pending) >= _BUFFER:
            self._encode()

    def add_batch(self, tenant: int, path: int, seqs: List[int],
                  ops: List[int], starts: List[float], ends: List[float],
                  flags: List[int]) -> None:
        """Append one tenant's rows on one path, one attempt each."""
        columns = self.columns()
        n = len(ends)
        columns.start_ns.fromlist(starts)
        columns.end_ns.fromlist(ends)
        columns.seq.fromlist(seqs)
        columns.tenant.fromlist([tenant] * n)
        columns.op.fromlist(ops)
        columns.path.fromlist([path] * n)
        columns.flags.fromlist(flags)
        columns.attempts.fromlist([1] * n)

    def _encode(self) -> None:
        """Move the buffered records into the columns."""
        (tenants, seqs, ops, paths, starts, ends, oks, attempts,
         degraded) = zip(*self._pending)
        self._pending.clear()
        path_keys = tuple(map(_value_of, paths))
        for name in dict.fromkeys(tenants):
            self.tenant_code(name)
        for op in dict.fromkeys(ops):
            self.op_code(op)
        for path in dict(zip(path_keys, paths)).values():
            self.path_code(path)
        columns = self._columns
        columns.start_ns.extend(starts)
        columns.end_ns.extend(ends)
        columns.seq.extend(seqs)
        columns.tenant.extend(map(self._tenant_codes.__getitem__, tenants))
        columns.op.extend(map(self._op_codes.__getitem__, ops))
        columns.path.extend(map(self._path_codes.__getitem__, path_keys))
        columns.flags.extend(map(_FLAGS.__getitem__, zip(oks, degraded)))
        columns.attempts.extend(attempts)

    # -- reading -----------------------------------------------------------

    def columns(self) -> CompletionColumns:
        """The columns, holding every record written so far."""
        if self._pending:
            self._encode()
        return self._columns

    def __len__(self) -> int:
        return len(self._columns.end_ns) + len(self._pending)

    def __iter__(self) -> Iterator[CompletionRecord]:
        tenants, ops, paths = self.tenants, self.ops, self.paths
        new = tuple.__new__
        for start, end, seq, tenant, op, path, flags, attempts in zip(
                *self.columns()):
            yield new(CompletionRecord, (
                tenants[tenant], seq, ops[op], paths[path], start, end,
                _OK[flags], attempts, _DEGRADED[flags]))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        start, end, seq, tenant, op, path, flags, attempts = (
            column[index] for column in self.columns())
        return CompletionRecord(
            self.tenants[tenant], seq, self.ops[op], self.paths[path],
            start, end, _OK[flags], attempts, _DEGRADED[flags])
