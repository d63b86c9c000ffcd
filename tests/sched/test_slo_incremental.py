"""Property test: the incremental rolling window equals a brute-force one.

:class:`SloTracker` keeps each tenant's window as a sorted latency list
plus running good-byte and violation counters, updated as events are
observed and pruned.  The reference below is the straightforward
implementation it replaced: keep the live deque, and on every read sort
it and make three passes.  Random interleavings of observations (ok and
lost, latencies below/at/above the deadline, duplicates, end times out
of order as splice-back stubs produce them), rejections, window reads at
increasing ``now`` and merges must give equal :class:`WindowStats`.
"""

import heapq
import pickle
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.paths import CommPath
from repro.sched import SloSpec, SloTracker, TenantSpec
from repro.sched.slo import WindowStats
from repro.sched.tenant import CompletionRecord
from repro.units import to_gbps
from repro.workloads import OpMix

WINDOW = 10_000.0
DEADLINE = 4_000.0
LATENCIES = (500.0, 1_000.0, 1_000.0, DEADLINE - 1, DEADLINE, DEADLINE + 1,
             9_000.0, 25_000.0)


class BruteForceWindows:
    """The rolling half of the original tracker: a sort and three
    passes over the live deque on every read."""

    def __init__(self, tenants, window_ns):
        self.window_ns = window_ns
        self.specs = {t.name: t for t in tenants}
        self.events = {t.name: deque() for t in tenants}
        self.rejects = {t.name: deque() for t in tenants}

    def observe(self, record, payload):
        self.events[record.tenant].append(
            (record.end_ns, record.latency_ns, payload, record.ok))

    def observe_reject(self, tenant, now):
        self.rejects[tenant].append(now)

    def merge(self, other):
        for name, spec in other.specs.items():
            if name not in self.specs:
                self.specs[name] = spec
                self.events[name] = deque(other.events[name])
                self.rejects[name] = deque(other.rejects[name])
                continue
            self.events[name] = deque(heapq.merge(
                self.events[name], other.events[name],
                key=lambda ev: ev[0]))
            self.rejects[name] = deque(heapq.merge(
                self.rejects[name], other.rejects[name]))

    def window(self, tenant, now):
        deadline = self.specs[tenant].slo.deadline
        horizon = now - self.window_ns
        events = self.events[tenant]
        while events and events[0][0] < horizon:
            events.popleft()
        rejects = self.rejects[tenant]
        while rejects and rejects[0] < horizon:
            rejects.popleft()
        latencies = sorted(lat for _end, lat, _p, ok in events if ok)
        good_bytes = sum(p for _end, lat, p, ok in events
                         if ok and lat <= deadline)
        violations = sum(1 for _end, lat, _p, ok in events
                         if ok and lat > deadline)
        if latencies:
            p50 = latencies[max(0, int(0.50 * len(latencies)) - 1)
                            if len(latencies) > 1 else 0]
            p99 = latencies[min(len(latencies) - 1,
                                max(0, int(0.99 * len(latencies))))]
        else:
            p50 = p99 = 0.0
        span = min(self.window_ns, now) or 1.0
        return WindowStats(
            tenant=tenant, window_ns=self.window_ns, count=len(latencies),
            p50_ns=p50, p99_ns=p99, goodput_gbps=to_gbps(good_bytes / span),
            rejected=len(rejects), violations=violations)


def _spec(name):
    return TenantSpec(name=name, payload=512, interval_ns=1_000.0,
                      requests=100, mix=OpMix(read=1.0, write=0.0),
                      slo=SloSpec(p99_ns=DEADLINE))


def _pair(names):
    specs = [_spec(n) for n in names]
    return SloTracker(specs, window_ns=WINDOW), BruteForceWindows(specs,
                                                                  WINDOW)


_observe = st.tuples(
    st.just("observe"),
    st.sampled_from(("a", "b")),            # which tracker
    st.integers(0, 2),                       # tenant index on that side
    st.integers(-2 * int(WINDOW), 500),      # end offset from now
    st.sampled_from(LATENCIES),
    st.booleans(),                           # ok (False: lost)
    st.sampled_from((64, 512, 4096)))
_reject = st.tuples(st.just("reject"), st.sampled_from(("a", "b")),
                    st.integers(0, 2), st.integers(-2 * int(WINDOW), 0))
_window = st.tuples(st.just("window"), st.integers(0, 3),
                    st.integers(0, int(WINDOW)))
_merge = st.tuples(st.just("merge"))
_ops = st.lists(st.one_of(_observe, _observe, _reject, _window, _merge),
                max_size=80)

#: Tenants per side: "t1" lives on both, so merges exercise the
#: interleaving path as well as the disjoint copy.
_SIDES = {"a": ("t0", "t1", "t1"), "b": ("t1", "t2", "t2")}


def _check_all(tracker, oracle, now):
    for name in sorted(oracle.specs):
        assert tracker.window(name, now) == oracle.window(name, now)


@settings(max_examples=200, deadline=None)
@given(_ops)
def test_incremental_window_matches_brute_force(ops):
    a, a_ref = _pair(("t0", "t1"))
    b, b_ref = _pair(("t1", "t2"))
    now = 0.0
    for op in ops:
        kind = op[0]
        if kind == "observe":
            _, side, idx, offset, latency, ok, payload = op
            end = max(0.0, now + offset)
            name = _SIDES[side][idx]
            record = CompletionRecord(tenant=name, seq=0, op="read",
                                      path=CommPath.SNIC2,
                                      start_ns=end - latency, end_ns=end,
                                      ok=ok)
            tracker, oracle = (a, a_ref) if side == "a" else (b, b_ref)
            tracker.observe(record, payload)
            oracle.observe(record, payload)
        elif kind == "reject":
            _, side, idx, offset = op
            name = _SIDES[side][idx]
            tracker, oracle = (a, a_ref) if side == "a" else (b, b_ref)
            tracker.observe_reject(name, max(0.0, now + offset))
            oracle.observe_reject(name, max(0.0, now + offset))
        elif kind == "window":
            _, idx, step = op
            now += step
            names = sorted(a_ref.specs)
            name = names[idx % len(names)]
            assert a.window(name, now) == a_ref.window(name, now)
        else:
            a.merge(b)
            a_ref.merge(b_ref)
            _check_all(a, a_ref, now)
            b, b_ref = _pair(("t1", "t2"))
    _check_all(a, a_ref, now)
    _check_all(a, a_ref, now + WINDOW / 2)


def test_tracker_round_trips_through_pickle():
    """Shard workers ship trackers back to the parent by pickle."""
    tracker, oracle = _pair(("t0",))
    for i, latency in enumerate(LATENCIES):
        record = CompletionRecord(tenant="t0", seq=i, op="read",
                                  path=CommPath.SNIC2,
                                  start_ns=1_000.0 * i, end_ns=1_000.0 * i
                                  + latency, ok=i % 3 != 0)
        tracker.observe(record, 512)
        oracle.observe(record, 512)
    clone = pickle.loads(pickle.dumps(tracker))
    for now in (5_000.0, 15_000.0, 30_000.0):
        assert clone.window("t0", now) == oracle.window("t0", now)
