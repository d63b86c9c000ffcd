"""Per-tenant SLO accounting over rolling windows of live completions.

The scheduler never sees the future: each control tick it asks "over
the last window, what latency did tenant T actually observe, and how
much of its stream got through?"  :class:`SloTracker` answers from the
runtime's completion feed — the simulated equivalent of scraping
per-tenant histograms off a serving binary.
"""

from __future__ import annotations

import heapq
import itertools
from array import array
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.sched.tenant import DEGRADED, OK, CompletionRecord, TenantSpec
from repro.units import to_gbps


@dataclass(frozen=True)
class WindowStats:
    """One tenant's observed behaviour over a rolling window."""

    tenant: str
    window_ns: float
    count: int
    p50_ns: float
    p99_ns: float
    goodput_gbps: float
    rejected: int          # arrivals bounced by the bounded queue
    violations: int        # completions over the SLO deadline

    @property
    def idle(self) -> bool:
        return self.count == 0 and self.rejected == 0


@dataclass(frozen=True)
class RawWindow:
    """One fixed (tumbling) window's raw material, kept for statistics.

    Unlike :class:`WindowStats` — a *rolling* view pruned as the
    scheduler ticks — these windows are archived for the whole run so
    the :mod:`repro.stats` layer can form warm-up-truncated batch-means
    estimates post hoc without re-running.  Counts and sums are carried
    alongside the quantile points: ``latency_sum_ns`` is what Little's
    law consumes (time-average occupancy ``L = Σ latency / elapsed``),
    ``good_bytes`` is what goodput CIs are built from.
    """

    tenant: str
    index: int              # window number: int(end_ns // window_ns)
    end_ns: float           # exclusive right edge of the window
    count: int              # ok completions landing in the window
    latency_sum_ns: float
    p50_ns: float
    p99_ns: float
    good_bytes: int         # payload bytes delivered within deadline
    goodput_gbps: float
    rejected: int
    lost: int
    violations: int

    @property
    def mean_latency_ns(self) -> float:
        return self.latency_sum_ns / self.count if self.count else 0.0


class _WindowAccum:
    """Mutable per-window accumulator behind the fixed-window archive.

    The window's ok latencies are an ``array('d')``: the archive is
    kept for the whole run, so each latency costs 8 bytes, not a boxed
    float in a list.
    """

    __slots__ = ("latencies", "good_bytes", "rejected", "lost", "violations")

    def __init__(self):
        self.latencies = array("d")
        self.good_bytes = 0
        self.rejected = 0
        self.lost = 0
        self.violations = 0

    def copy(self) -> "_WindowAccum":
        other = _WindowAccum()
        other.latencies = array("d", self.latencies)
        other.good_bytes = self.good_bytes
        other.rejected = self.rejected
        other.lost = self.lost
        other.violations = self.violations
        return other

    def fold(self, other: "_WindowAccum") -> None:
        self.latencies.extend(other.latencies)
        self.good_bytes += other.good_bytes
        self.rejected += other.rejected
        self.lost += other.lost
        self.violations += other.violations


class _Rolling:
    """One tenant's rolling window, kept incrementally.

    ``events`` holds ``(end_ns, latency_ns, payload, ok)`` in arrival
    order.  ``latencies`` (sorted), ``good_bytes`` and ``violations``
    mirror its ok events exactly: :meth:`add`,
    :meth:`SloTracker.observe_rows` and :meth:`prune` are their only
    writers, and pruning updates them in the same ``popleft`` loop that
    drops an event.  A window read therefore costs
    O(pruned + log n) instead of one sort and three passes.
    """

    __slots__ = ("deadline", "events", "rejects", "latencies",
                 "good_bytes", "violations")

    def __init__(self, deadline: float,
                 events: Iterable[Tuple[float, float, int, bool]] = (),
                 rejects: Iterable[float] = ()):
        self.deadline = deadline
        self.events: deque = deque()
        self.rejects: deque = deque(rejects)
        self.latencies: list = []
        self.good_bytes = 0
        self.violations = 0
        for event in events:
            self.add(event)

    def add(self, event: Tuple[float, float, int, bool]) -> None:
        self.events.append(event)
        _end, latency, payload, ok = event
        if ok:
            insort(self.latencies, latency)
            if latency <= self.deadline:
                self.good_bytes += payload
            else:
                self.violations += 1

    def prune(self, horizon: float) -> None:
        """Drop events (and rejects) that ended before ``horizon``."""
        events = self.events
        latencies = self.latencies
        deadline = self.deadline
        while events and events[0][0] < horizon:
            _end, latency, payload, ok = events.popleft()
            if ok:
                del latencies[bisect_left(latencies, latency)]
                if latency <= deadline:
                    self.good_bytes -= payload
                else:
                    self.violations -= 1
        rejects = self.rejects
        while rejects and rejects[0] < horizon:
            rejects.popleft()


class SloTracker:
    """Rolling per-tenant completion windows, pruned by simulated time."""

    def __init__(self, tenants, window_ns: float = 100_000.0):
        if window_ns <= 0:
            raise ValueError(f"window must be positive: {window_ns}")
        self.window_ns = window_ns
        self._specs: Dict[str, TenantSpec] = {t.name: t for t in tenants}
        self._rolling: Dict[str, _Rolling] = {
            t.name: _Rolling(t.slo.deadline) for t in tenants}
        # Totals survive pruning (used by the final report).
        self.completed: Dict[str, int] = {t.name: 0 for t in tenants}
        self.rejected: Dict[str, int] = {t.name: 0 for t in tenants}
        self.lost: Dict[str, int] = {t.name: 0 for t in tenants}
        # Report aggregates over every record, ok or lost: the earliest
        # start, the latest end and how many were served degraded.
        self.first_start: Dict[str, float] = {
            t.name: float("inf") for t in tenants}
        self.last_end: Dict[str, float] = {
            t.name: float("-inf") for t in tenants}
        self.degraded: Dict[str, int] = {t.name: 0 for t in tenants}
        # Fixed-window archive for the stats layer: per tenant, per
        # window index, the accumulated raw material (never pruned),
        # plus the sorted list of those indices.
        self._archive: Dict[str, Dict[int, _WindowAccum]] = {
            t.name: {} for t in tenants}
        self._indices: Dict[str, List[int]] = {t.name: [] for t in tenants}

    def _accum(self, tenant: str, when: float) -> "_WindowAccum":
        idx = int(when // self.window_ns)
        per_tenant = self._archive[tenant]
        acc = per_tenant.get(idx)
        if acc is None:
            acc = per_tenant[idx] = _WindowAccum()
            insort(self._indices[tenant], idx)
        return acc

    def observe(self, record: CompletionRecord, payload: int) -> None:
        """Feed one completion from the runtime."""
        self.observe_rows(record.tenant, ((
            record.start_ns, record.end_ns,
            OK * record.ok | DEGRADED * record.degraded),), payload)

    def observe_rows(self, tenant: str,
                     rows: Iterable[Tuple[float, float, int]],
                     payload: int) -> None:
        """Feed one tenant's ``(start_ns, end_ns, flags)`` rows, in
        completion order; ``flags`` as in
        :class:`~repro.sched.tenant.CompletionLog`.

        The one feed loop: the rolling window, the archive and the
        totals are updated together, and consecutive rows in the same
        fixed window share one archive lookup.
        """
        rolling = self._rolling[tenant]
        events = rolling.events
        latencies = rolling.latencies
        deadline = rolling.deadline
        window_ns = self.window_ns
        archive = self._archive[tenant]
        first = self.first_start[tenant]
        last = self.last_end[tenant]
        ok_n = lost_n = degraded_n = 0
        idx = acc = None
        for start, end, flags in rows:
            latency = end - start
            ok = flags & OK != 0
            events.append((end, latency, payload, ok))
            index = int(end // window_ns)
            if index != idx:
                acc = archive.get(index)
                if acc is None:
                    acc = self._accum(tenant, end)
                idx = index
            if ok:
                ok_n += 1
                insort(latencies, latency)
                acc.latencies.append(latency)
                if latency <= deadline:
                    rolling.good_bytes += payload
                    acc.good_bytes += payload
                else:
                    rolling.violations += 1
                    acc.violations += 1
            else:
                lost_n += 1
                acc.lost += 1
            if flags & DEGRADED:
                degraded_n += 1
            if start < first:
                first = start
            if end > last:
                last = end
        self.completed[tenant] += ok_n
        if lost_n:
            self.lost[tenant] += lost_n
        if degraded_n:
            self.degraded[tenant] += degraded_n
        self.first_start[tenant] = first
        self.last_end[tenant] = last

    def observe_reject(self, tenant: str, now: float) -> None:
        """Feed one bounced arrival (queue full)."""
        self._rolling[tenant].rejects.append(now)
        self.rejected[tenant] += 1
        self._accum(tenant, now).rejected += 1

    def ok_latencies(self, tenant: str) -> List[float]:
        """Every ok completion's latency for ``tenant``, sorted."""
        return sorted(itertools.chain.from_iterable(
            acc.latencies for acc in self._archive[tenant].values()))

    def merge(self, other: "SloTracker") -> "SloTracker":
        """Fold another tracker's observations into this one, in place.

        Sharded runs give each shard its own tracker; the parent merges
        them into one report-wide view.  Window sizes must agree.  For
        tenants present on both sides the event and reject streams are
        merged in time order, so :meth:`window` pruning stays monotone
        and quantiles over the union window come out the same as if one
        tracker had observed every completion.  Merged tenants get their
        rolling state rebuilt from the merged streams.
        """
        if other.window_ns != self.window_ns:
            raise ValueError(
                f"cannot merge trackers with different windows: "
                f"{self.window_ns} vs {other.window_ns}")
        for name, spec in other._specs.items():
            if name not in self._specs:
                self._specs[name] = spec
                theirs = other._rolling[name]
                self._rolling[name] = _Rolling(
                    theirs.deadline, theirs.events, theirs.rejects)
                self.completed[name] = other.completed[name]
                self.rejected[name] = other.rejected[name]
                self.lost[name] = other.lost[name]
                self.first_start[name] = other.first_start[name]
                self.last_end[name] = other.last_end[name]
                self.degraded[name] = other.degraded[name]
                self._archive[name] = {
                    idx: acc.copy()
                    for idx, acc in other._archive[name].items()}
                self._indices[name] = list(other._indices[name])
                continue
            ours, theirs = self._rolling[name], other._rolling[name]
            self._rolling[name] = _Rolling(
                ours.deadline,
                heapq.merge(ours.events, theirs.events, key=lambda ev: ev[0]),
                heapq.merge(ours.rejects, theirs.rejects))
            self.completed[name] += other.completed[name]
            self.rejected[name] += other.rejected[name]
            self.lost[name] += other.lost[name]
            self.first_start[name] = min(self.first_start[name],
                                         other.first_start[name])
            self.last_end[name] = max(self.last_end[name],
                                      other.last_end[name])
            self.degraded[name] += other.degraded[name]
            mine = self._archive[name]
            for idx, acc in other._archive[name].items():
                if idx in mine:
                    mine[idx].fold(acc)
                else:
                    mine[idx] = acc.copy()
                    insort(self._indices[name], idx)
        return self

    def window_series(self, tenant: str) -> Tuple[RawWindow, ...]:
        """Every archived fixed window for ``tenant``, oldest first.

        Quantiles use the same order-statistic convention as
        :meth:`window`, so a single-window series reconciles with the
        rolling view.  The export is deterministic: latencies are
        sorted within each window, windows ordered by index.
        """
        out = []
        archive = self._archive[tenant]
        for idx in self._indices[tenant]:
            acc = archive[idx]
            latencies = sorted(acc.latencies)
            n = len(latencies)
            if latencies:
                p50 = latencies[max(0, int(0.50 * n) - 1) if n > 1 else 0]
                p99 = latencies[min(n - 1, max(0, int(0.99 * n)))]
            else:
                p50 = p99 = 0.0
            out.append(RawWindow(
                tenant=tenant,
                index=idx,
                end_ns=(idx + 1) * self.window_ns,
                count=n,
                latency_sum_ns=sum(latencies),
                p50_ns=p50,
                p99_ns=p99,
                good_bytes=acc.good_bytes,
                goodput_gbps=to_gbps(acc.good_bytes / self.window_ns),
                rejected=acc.rejected,
                lost=acc.lost,
                violations=acc.violations,
            ))
        return tuple(out)

    def closed_window_digest(self, tenant: str, now: float
                             ) -> Optional[Tuple[int, int, float, int, int]]:
        """``(index, count, p99_ns, rejected, violations)`` for the most
        recent *closed* fixed window, or ``None`` before the first one.

        Built for barrier-time heartbeats: it reads the archive only —
        no pruning side effects like :meth:`window`, no O(all-windows)
        walk like :meth:`window_series`, one bisect of the sorted window
        indices — so calling it every sync window is cheap and cannot
        perturb the rolling view.
        """
        indices = self._indices[tenant]
        closed = bisect_left(indices, int(now // self.window_ns))
        if not closed:
            return None
        idx = indices[closed - 1]
        acc = self._archive[tenant][idx]
        latencies = sorted(acc.latencies)
        n = len(latencies)
        p99 = (latencies[min(n - 1, max(0, int(0.99 * n)))]
               if latencies else 0.0)
        return (idx, n, p99, acc.rejected, acc.violations)

    def window(self, tenant: str, now: float) -> WindowStats:
        """The tenant's stats over ``[now - window, now]``."""
        rolling = self._rolling[tenant]
        rolling.prune(now - self.window_ns)
        latencies = rolling.latencies
        n = len(latencies)
        if latencies:
            p50 = latencies[max(0, int(0.50 * n) - 1) if n > 1 else 0]
            p99 = latencies[min(n - 1, max(0, int(0.99 * n)))]
        else:
            p50 = p99 = 0.0
        span = min(self.window_ns, now) or 1.0
        return WindowStats(
            tenant=tenant,
            window_ns=self.window_ns,
            count=n,
            p50_ns=p50,
            p99_ns=p99,
            goodput_gbps=to_gbps(rolling.good_bytes / span),
            rejected=len(rolling.rejects),
            violations=rolling.violations,
        )
