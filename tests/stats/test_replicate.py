"""Cross-seed replication: caching, pooling, and the estimates.

The pool path must produce the same reports as the serial path, the
cache must make a re-replication free, and the estimates must read the
window archive the serving layer now exports.
"""

import math

import pytest

from repro.stats.kernels import Estimate
from repro.stats.replicate import (
    METRICS,
    REPLICATE_CACHE,
    Replication,
    replicate,
    replicate_families,
    report_estimate,
)

DURATION_NS = 300_000.0


@pytest.fixture(scope="module")
def adaptive_rep():
    return replicate("adaptive", seeds=(0, 1, 2), duration_ns=DURATION_NS)


def test_one_report_per_seed(adaptive_rep):
    assert adaptive_rep.n == 3
    assert adaptive_rep.seeds == (0, 1, 2)
    assert len(adaptive_rep.reports) == 3
    assert adaptive_rep.tenant_names() == ("alpha", "beta", "delta",
                                           "gamma")


def test_replicate_accepts_count_or_sequence():
    by_count = replicate("adaptive", seeds=3, duration_ns=DURATION_NS)
    by_seq = replicate("adaptive", seeds=(0, 1, 2),
                       duration_ns=DURATION_NS)
    assert by_count.seeds == by_seq.seeds
    for a, b in zip(by_count.reports, by_seq.reports):
        assert a.total_slo_goodput_gbps == b.total_slo_goodput_gbps


def test_second_replication_is_cache_hits(adaptive_rep):
    hits_before = REPLICATE_CACHE.hits
    again = replicate("adaptive", seeds=(0, 1, 2),
                      duration_ns=DURATION_NS)
    assert REPLICATE_CACHE.hits >= hits_before + 3
    for a, b in zip(adaptive_rep.reports, again.reports):
        assert a is b   # literally the cached object


def test_pool_matches_serial(adaptive_rep):
    pooled = replicate("adaptive", seeds=(0, 1, 2),
                       duration_ns=DURATION_NS, jobs=2, use_cache=False)
    for serial, parallel in zip(adaptive_rep.reports, pooled.reports):
        for name in serial.tenants:
            a, b = serial.tenants[name], parallel.tenants[name]
            assert (a.completed, a.rejected, a.lost) == \
                (b.completed, b.rejected, b.lost)
            assert a.p99_ns == b.p99_ns


def test_pool_folds_worker_cache_counters():
    # A worker returns its cache-counter delta with each report; the
    # parent absorbs it so --cache-stats counts work done in the pool.
    from repro.core.paths import CommPath, Opcode
    from repro.core.throughput import (RESULT_CACHE, Flow, Scenario,
                                       ThroughputSolver)
    from repro.net.topology import paper_testbed
    from repro.stats import replicate as rep

    before = rep._counter_state()
    ThroughputSolver().solve(Scenario(paper_testbed(), [Flow(
        CommPath.SNIC2, Opcode.WRITE, payload=12_345, requesters=7)]))
    delta = rep._counter_delta(before)
    assert delta["solver"][1] == 1
    misses = RESULT_CACHE.misses
    rep._absorb_counters(delta)
    assert RESULT_CACHE.misses == misses + 1


def test_estimates_cover_every_metric(adaptive_rep):
    for metric in METRICS:
        est = adaptive_rep.estimate("alpha", metric)
        assert isinstance(est, Estimate)
        assert est.n == 3
        assert math.isfinite(est.mean)
    with pytest.raises(ValueError):
        adaptive_rep.estimate("alpha", "no-such-metric")


def test_within_run_reads_the_window_archive(adaptive_rep):
    est = adaptive_rep.within_run("gamma", field="p99_ns")
    assert est.n >= 2
    assert est.mean > 0
    assert math.isfinite(est.half_width)


def test_report_estimate_empty_tenant_is_unbounded(adaptive_rep):
    est = report_estimate(adaptive_rep.reports[0], "no-such-tenant")
    assert est.n == 0 and math.isinf(est.half_width)


def test_invariants_qualify_the_seed(adaptive_rep):
    results = adaptive_rep.invariants()
    assert results
    assert all(r.ok for r in results)
    subjects = {r.subject for r in results}
    assert any(s.endswith("@seed0") for s in subjects)
    assert any(s.endswith("@seed2") for s in subjects)


def test_broken_counter_family_fails_loudly():
    rep = replicate("broken-counter", seeds=1, duration_ns=DURATION_NS)
    bad = [r for r in rep.invariants() if not r.ok]
    assert bad
    assert {r.name for r in bad} >= {"flow-conservation", "littles-law"}
    assert any(r.subject == "alpha@seed0" for r in bad)


def test_family_catalog_and_unknown_family():
    families = replicate_families(duration_ns=DURATION_NS)
    assert "adaptive" in families and "broken-counter" in families
    with pytest.raises(ValueError):
        replicate("no-such-family", seeds=1, duration_ns=DURATION_NS)
    with pytest.raises(ValueError):
        replicate("adaptive", seeds=0)


def test_custom_testbed_runs_every_family(adaptive_rep):
    # A custom testbed skips the cache and the pool but runs the same
    # families as the default one: the injected broken-counter family,
    # the ValueError that names the families, and the same answers.
    from repro.net.topology import paper_testbed

    testbed = paper_testbed()
    broken = replicate("broken-counter", seeds=1, duration_ns=DURATION_NS,
                       testbed=testbed)
    assert {r.name for r in broken.invariants() if not r.ok} \
        >= {"flow-conservation", "littles-law"}
    with pytest.raises(ValueError, match="broken-counter"):
        replicate("nope", seeds=1, duration_ns=DURATION_NS,
                  testbed=testbed)
    custom = replicate("adaptive", seeds=(0,), duration_ns=DURATION_NS,
                       testbed=testbed)
    assert custom.reports[0] is not adaptive_rep.reports[0]
    assert custom.reports[0].tenants == adaptive_rep.reports[0].tenants


def test_replication_requires_matched_lengths(adaptive_rep):
    with pytest.raises(ValueError):
        Replication(family="adaptive", duration_ns=DURATION_NS,
                    engine="event", seeds=(0, 1),
                    reports=adaptive_rep.reports)
