"""Property tests for the tracker's merge aggregates and the
closed-window digest.

* Merging per-shard trackers must give the report aggregates (totals,
  first start, last end, degraded count, ok latencies, window series)
  of one tracker that saw every record.
* ``closed_window_digest`` answers from a sorted window index; it must
  equal the walk over every archived window it replaced.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.paths import CommPath
from repro.sched import SloSpec, SloTracker, TenantSpec
from repro.sched.tenant import CompletionRecord
from repro.workloads import OpMix

WINDOW = 10_000.0
DEADLINE = 4_000.0
NAMES = ("t0", "t1")
DIGEST_NAMES = ("t0", "t1", "t2")


def _spec(name):
    return TenantSpec(name=name, payload=512, interval_ns=1_000.0,
                      requests=100, mix=OpMix(read=1.0, write=0.0),
                      slo=SloSpec(p99_ns=DEADLINE))


def _tracker(names=NAMES):
    return SloTracker([_spec(n) for n in names], window_ns=WINDOW)


def _aggregates(tracker, name):
    return (tracker.completed[name], tracker.rejected[name],
            tracker.lost[name], tracker.first_start[name],
            tracker.last_end[name], tracker.degraded[name],
            tracker.ok_latencies(name), tracker.window_series(name))


_record = st.builds(
    lambda end, latency, ok, degraded: (end, latency, ok, degraded),
    st.floats(0.0, 8 * WINDOW, allow_nan=False),
    st.sampled_from((0.0, 500.0, DEADLINE, DEADLINE + 1, 25_000.0)),
    st.booleans(), st.booleans())


def _records(name, raw):
    return [CompletionRecord(tenant=name, seq=i, op="read",
                             path=CommPath.SNIC2, start_ns=end - latency,
                             end_ns=end, ok=ok, degraded=degraded)
            for i, (end, latency, ok, degraded) in enumerate(raw)]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.sampled_from(NAMES),
                          _record), max_size=40),
       st.lists(st.tuples(st.integers(0, 2), st.sampled_from(NAMES),
                          st.floats(0.0, 8 * WINDOW, allow_nan=False)),
                max_size=8))
def test_merged_shard_trackers_give_single_tracker_aggregates(records,
                                                              rejects):
    whole = _tracker()
    shards = [_tracker() for _ in range(3)]
    for i, (shard, name, raw) in enumerate(records):
        record = _records(name, [raw])[0]._replace(seq=i)
        whole.observe(record, 512)
        shards[shard].observe(record, 512)
    for shard, name, now in rejects:
        whole.observe_reject(name, now)
        shards[shard].observe_reject(name, now)
    merged = shards[0]
    for other in shards[1:]:
        merged.merge(other)
    for name in NAMES:
        assert _aggregates(merged, name) == _aggregates(whole, name)


def _brute_force_digest(tracker, name, now):
    """The walk over every archived window the digest replaced."""
    cutoff = int(now // tracker.window_ns)
    closed = [idx for idx in tracker._archive[name] if idx < cutoff]
    if not closed:
        return None
    idx = max(closed)
    acc = tracker._archive[name][idx]
    latencies = sorted(acc.latencies)
    n = len(latencies)
    p99 = (latencies[min(n - 1, max(0, int(0.99 * n)))]
           if latencies else 0.0)
    return (idx, n, p99, acc.rejected, acc.violations)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.tuples(st.just("observe"), st.integers(0, 1),
              st.sampled_from(DIGEST_NAMES), _record),
    st.tuples(st.just("reject"), st.integers(0, 1),
              st.sampled_from(DIGEST_NAMES),
              st.floats(0.0, 8 * WINDOW, allow_nan=False)),
    st.tuples(st.just("merge")),
    st.tuples(st.just("digest"), st.sampled_from(DIGEST_NAMES),
              st.floats(0.0, 10 * WINDOW, allow_nan=False))),
    max_size=50))
def test_closed_window_digest_equals_brute_force_walk(ops):
    # "t1" lives on both sides (merges fold its windows); "t2" only on
    # the right (the first merge copies it).
    sides = [_tracker(), _tracker(("t1", "t2"))]
    for op in ops:
        if op[0] == "observe":
            _, side, name, raw = op
            if name in sides[side]._specs:
                sides[side].observe(_records(name, [raw])[0], 512)
        elif op[0] == "reject":
            _, side, name, now = op
            if name in sides[side]._specs:
                sides[side].observe_reject(name, now)
        elif op[0] == "merge":
            sides[0].merge(sides[1])
            sides[1] = _tracker(("t1", "t2"))
        else:
            _, name, now = op
            for tracker in sides:
                if name in tracker._specs:
                    assert (tracker.closed_window_digest(name, now)
                            == _brute_force_digest(tracker, name, now))
    for tracker in sides:
        for name in tracker._specs:
            assert tracker._indices[name] == sorted(tracker._archive[name])
            for k in range(11):
                now = k * WINDOW
                assert (tracker.closed_window_digest(name, now)
                        == _brute_force_digest(tracker, name, now))
