"""The completion log: typed columns that read back as records.

* Round trip: whatever is written — through ``append`` (one record,
  the DES path, buffered) or ``add_batch`` (one tenant's batch, the
  hybrid path) — reads back as the same records, floats bitwise equal,
  through iteration, positive and negative indexing, slices and a
  pickle round trip, also with records still buffered.  Tenant codes
  go past one byte.
* Size: a hybrid serving run stores at most 40 bytes of column data
  per record (a ``CompletionRecord`` on the heap costs ~196).
"""

import pickle
import struct
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.paths import CommPath
from repro.sched.serve import ServeSession, mixed_tenant_workload
from repro.sched.tenant import DEGRADED, OK, CompletionLog, CompletionRecord

#: More tenant names than one byte of codes can tell apart.
NAMES = tuple(f"tenant{i:03d}" for i in range(300))
OPS = ("read", "write", "send")

_float = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((0.0, -0.0, 5e-324, 2.2250738585072014e-308,
                     2.0 ** 53 + 2.0, 1e300)))
_seq = st.integers(-(2 ** 63), 2 ** 63 - 1)
_row = st.tuples(_seq, st.sampled_from(OPS), _float, _float,
                 st.booleans(), st.booleans())
_one = st.tuples(st.just("one"), st.sampled_from(NAMES),
                 st.sampled_from(tuple(CommPath)), _row,
                 st.integers(0, 0xFFFF))
_batch = st.tuples(st.just("batch"), st.sampled_from(NAMES),
                   st.sampled_from(tuple(CommPath)),
                   st.lists(_row, max_size=6))


def _bits(record):
    """A record with its floats as their bit patterns (-0.0 != 0.0)."""
    return record._replace(start_ns=struct.pack("<d", record.start_ns),
                           end_ns=struct.pack("<d", record.end_ns))


def _assert_reads_back(log, expected):
    n = len(expected)
    assert len(log) == n
    assert [_bits(r) for r in log] == [_bits(r) for r in expected]
    for i, record in enumerate(expected):
        assert _bits(log[i]) == _bits(record)
        assert _bits(log[i - n]) == _bits(record)
        assert type(log[i]) is CompletionRecord
    assert [_bits(r) for r in log[1::2]] == [_bits(r)
                                             for r in expected[1::2]]
    assert all(type(r.ok) is bool and type(r.degraded) is bool
               for r in log)


@settings(max_examples=150, deadline=None)
@given(st.permutations(NAMES), st.lists(st.one_of(_one, _batch),
                                        max_size=30))
def test_every_write_reads_back_bit_equal(intern_order, writes):
    log = CompletionLog()
    for name in intern_order:              # codes 0..299, drawn order
        log.tenant_code(name)
    expected = []
    for write in writes:
        if write[0] == "one":
            _, name, path, (seq, op, start, end, ok, degraded), attempts = \
                write
            record = CompletionRecord(name, seq, op, path, start, end, ok,
                                      attempts, degraded)
            log.append(record)
            expected.append(record)
            continue
        _, name, path, rows = write
        log.add_batch(log.tenant_code(name), log.path_code(path),
                      [row[0] for row in rows],
                      [log.op_code(row[1]) for row in rows],
                      [row[2] for row in rows], [row[3] for row in rows],
                      [OK * row[4] | DEGRADED * row[5] for row in rows])
        expected.extend(
            CompletionRecord(name, seq, op, path, start, end, ok, 1,
                             degraded)
            for seq, op, start, end, ok, degraded in rows)
    copy = pickle.loads(pickle.dumps(log))     # before any read encodes
    _assert_reads_back(log, expected)
    _assert_reads_back(copy, expected)


def test_records_past_the_append_buffer_keep_their_order():
    log = CompletionLog()
    expected = []
    for i in range(1_000):
        name = NAMES[i % len(NAMES)]
        path = tuple(CommPath)[i % len(CommPath)]
        if i % 300 == 299:              # a batch lands between buffered rows
            log.add_batch(log.tenant_code(name), log.path_code(path), [i],
                          [log.op_code("send")], [i / 3], [i / 7], [OK])
            expected.append(CompletionRecord(name, i, "send", path, i / 3,
                                             i / 7, True, 1, False))
        else:
            expected.append(CompletionRecord(name, i, "read", path, i / 3,
                                             i / 7, False, 2, True))
            log.append(expected[-1])
        if i % 97 == 0:                 # reads in between see every row
            assert len(log) == i + 1
            assert log[-1] == expected[-1]
    _assert_reads_back(log, expected)


def test_a_hybrid_run_stores_at_most_40_bytes_per_record():
    session = ServeSession(mixed_tenant_workload(duration_ns=2_000_000.0),
                           engine="hybrid")
    session.run_to_completion()
    log = session.runtime.completions
    tracker = session.tracker
    assert session.controller.analytic_completions > 0
    assert len(log) == (sum(tracker.completed.values())
                        + sum(tracker.lost.values()))
    column_bytes = sum(sys.getsizeof(column) for column in log.columns())
    assert column_bytes / len(log) <= 40
