"""Stochastic user populations: sampling, purity, tenant expansion."""

import pytest

from repro.codec import decode, encode
from repro.workloads.population import (PopulationSample, PopulationSpec,
                                        RandomVar, sample_population)

_DURATION = 200_000.0


def _cohorts():
    return (
        PopulationSpec(name="web", tenants=5,
                       active_users=RandomVar("normal", 1000, std=200,
                                              lo=100),
                       req_per_min=RandomVar("poisson", 600),
                       payload=512, slo_p99_ns=60_000.0),
        PopulationSpec(name="bulk", tenants=2,
                       active_users=RandomVar.fixed(500),
                       req_per_min=RandomVar.fixed(240),
                       payload=65536, read_fraction=0.0, bulk=True,
                       slo_p99_ns=250_000.0),
    )


def test_randomvar_validation():
    with pytest.raises(ValueError):
        RandomVar("zipf", 10.0)
    with pytest.raises(ValueError):
        RandomVar("normal", -1.0)
    with pytest.raises(ValueError):
        RandomVar("normal", 1.0, std=-0.5)
    with pytest.raises(ValueError):
        RandomVar("fixed", 1.0, lo=5.0, hi=2.0)


def test_randomvar_clamps_and_roundtrips():
    var = RandomVar("normal", 10.0, std=100.0, lo=0.0, hi=20.0)
    rng = __import__("random").Random(0)
    draws = [var.sample(rng) for _ in range(200)]
    assert all(0.0 <= d <= 20.0 for d in draws)
    assert decode(RandomVar, encode(var)) == var
    # Bare numbers parse as fixed variables.
    assert decode(RandomVar, 7) == RandomVar.fixed(7.0)


def test_sample_population_expands_cohorts():
    sample = sample_population(_cohorts(), seed=3, duration_ns=_DURATION)
    assert isinstance(sample, PopulationSample)
    assert len(sample.tenants) == 7
    names = [t.name for t in sample.tenants]
    assert names == ["web000", "web001", "web002", "web003", "web004",
                     "bulk000", "bulk001"]
    assert set(sample.users) == set(names)
    assert sample.total_users == sum(sample.users.values())
    assert sample.offered_rps > 0
    # Fixed cohort: interval is exactly 60e9 / (users × req/min).
    bulk = next(t for t in sample.tenants if t.name == "bulk000")
    assert sample.users["bulk000"] == 500
    assert bulk.interval_ns == pytest.approx(60e9 / (500 * 240))
    assert bulk.requests == max(1, int(_DURATION / bulk.interval_ns))
    assert bulk.bulk and bulk.mix.write == 1.0


def test_sample_population_is_pure():
    a = sample_population(_cohorts(), seed=11, duration_ns=_DURATION)
    b = sample_population(_cohorts(), seed=11, duration_ns=_DURATION)
    assert a == b
    c = sample_population(_cohorts(), seed=12, duration_ns=_DURATION)
    assert c != a


def test_ingress_applies_to_non_bulk_only():
    sample = sample_population(_cohorts(), seed=0, duration_ns=_DURATION,
                               ingress_ns=10_000.0)
    for tenant in sample.tenants:
        expected = 0.0 if tenant.bulk else 10_000.0
        assert tenant.ingress_ns == expected


def test_sample_population_rejects_bad_input():
    with pytest.raises(ValueError):
        sample_population(_cohorts(), seed=0, duration_ns=0.0)
    dupes = (_cohorts()[0], _cohorts()[0])
    with pytest.raises(ValueError):
        sample_population(dupes, seed=0, duration_ns=_DURATION)
    with pytest.raises(ValueError):
        PopulationSpec(name="x", tenants=0,
                       active_users=RandomVar.fixed(1),
                       req_per_min=RandomVar.fixed(1))


def test_population_spec_roundtrips():
    for spec in _cohorts():
        assert decode(PopulationSpec, encode(spec)) == spec
