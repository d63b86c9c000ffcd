"""The statistical kernels against known values and stated laws.

The t quantiles are checked against the standard table, the estimators
against synthetic streams with known means, and the hypothesis
properties pin the laws the validation layer leans on: confidence
intervals cover the truth at roughly the nominal rate, half-widths
shrink as replication grows, and deterministic data yields exactly
zero width (the seed-invariance signature the reports rely on).
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.stats.kernels import (
    Estimate,
    agreement,
    batch_means,
    mean_estimate,
    normal_ppf,
    quantile,
    student_t_cdf,
    student_t_ppf,
)

# -- Student-t quantiles vs the table -----------------------------------------

#: (df, two-sided 95% critical value) from any t table.
T_TABLE_95 = [(1, 12.706), (2, 4.303), (4, 2.776), (9, 2.262),
              (29, 2.045), (120, 1.980)]


@pytest.mark.parametrize("df,critical", T_TABLE_95)
def test_t_ppf_matches_table(df, critical):
    assert student_t_ppf(0.975, df) == pytest.approx(critical, abs=2e-3)


def test_t_ppf_large_df_is_normal():
    assert student_t_ppf(0.975, 1000) == pytest.approx(1.959964, abs=1e-3)
    assert normal_ppf(0.975) == pytest.approx(1.959964, abs=1e-4)


def test_t_cdf_symmetry_and_median():
    assert student_t_cdf(0.0, 7) == 0.5
    assert student_t_cdf(1.3, 7) + student_t_cdf(-1.3, 7) == \
        pytest.approx(1.0, abs=1e-12)


def test_t_ppf_inverts_cdf():
    for p in (0.6, 0.9, 0.975, 0.995):
        for df in (1, 3, 10, 50):
            t = student_t_ppf(p, df)
            assert student_t_cdf(t, df) == pytest.approx(p, abs=1e-9)


def test_t_rejects_bad_arguments():
    with pytest.raises(ValueError):
        student_t_ppf(0.0, 5)
    with pytest.raises(ValueError):
        student_t_ppf(0.5, 0)
    with pytest.raises(ValueError):
        normal_ppf(1.0)


# -- Estimate -----------------------------------------------------------------


def test_estimate_interval_algebra():
    est = Estimate(mean=10.0, half_width=2.0, n=5)
    assert est.lo == 8.0 and est.hi == 12.0
    assert est.contains(11.9) and not est.contains(12.1)
    assert est.overlaps(Estimate(mean=13.0, half_width=1.5, n=5))
    assert not est.overlaps(Estimate(mean=15.0, half_width=1.0, n=5))
    assert est.rel_half_width() == pytest.approx(0.2)
    assert est.fmt("Gbps") == "10.0 ± 2.0 Gbps"


def test_single_sample_bounds_nothing():
    est = mean_estimate([42.0])
    assert est.mean == 42.0 and math.isinf(est.half_width) and est.n == 1


def test_mean_estimate_known_interval():
    # x̄ = 3, s = 1.5811, t_{0.975,4} = 2.776: hw = 2.776·s/√5.
    est = mean_estimate([1.0, 2.0, 3.0, 4.0, 5.0])
    assert est.mean == pytest.approx(3.0)
    assert est.half_width == pytest.approx(2.776 * est.sd / math.sqrt(5),
                                           rel=1e-3)


def test_mean_estimate_rejects_empty():
    with pytest.raises(ValueError):
        mean_estimate([])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=2, max_size=30),
       st.integers(min_value=2, max_value=5))
def test_half_width_shrinks_with_replication(values, k):
    """More replicates of the same spread → a tighter interval."""
    base = mean_estimate(values)
    grown = mean_estimate(values * k)
    assert grown.mean == pytest.approx(base.mean, rel=1e-9, abs=1e-9)
    if base.sd == 0.0:
        assert grown.half_width == 0.0
    else:
        assert grown.half_width < base.half_width


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
       st.integers(min_value=2, max_value=40))
def test_deterministic_data_has_zero_width(value, n):
    est = mean_estimate([value] * n)
    assert est.half_width == 0.0
    assert est.mean == pytest.approx(value)


def test_coverage_is_roughly_nominal():
    """95% intervals over known-mean draws cover ≈ 95% of the time.

    300 experiments of n=10 unit-normal draws around mean 5.0, fixed
    RNG: the binomial 99.9% band around 0.95 is roughly [0.90, 0.99].
    """
    rng = random.Random(0xC0FFEE)
    covered = 0
    trials = 300
    for _ in range(trials):
        sample = [rng.gauss(5.0, 1.0) for _ in range(10)]
        covered += mean_estimate(sample).contains(5.0)
    assert 0.90 <= covered / trials <= 0.99


# -- batch means --------------------------------------------------------------


def test_batch_means_preserves_the_trimmed_mean():
    series = list(range(1, 41))
    est = batch_means(series, batches=10)
    assert est.n == 10
    assert est.mean == pytest.approx(sum(series) / len(series))


def test_batch_means_degrades_to_two_batches():
    est = batch_means([1.0, 2.0, 3.0], batches=10)
    assert est.n == 2


def test_batch_means_drops_front_remainder():
    # 11 points into 2 batches of 5: the lone front point is dropped.
    series = [1000.0] + [2.0] * 10
    est = batch_means(series, batches=2)
    assert est.mean == pytest.approx(2.0)


def test_batch_means_rejects_bad_input():
    with pytest.raises(ValueError):
        batch_means([])
    with pytest.raises(ValueError):
        batch_means([1.0, 2.0], batches=1)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False), min_size=4, max_size=80))
def test_batch_means_interval_is_well_formed(series):
    est = batch_means(series)
    assert 2 <= est.n <= 10
    assert est.half_width >= 0.0
    assert min(series) - 1e-6 <= est.mean <= max(series) + 1e-6


# -- quantiles + agreement ----------------------------------------------------


def test_quantile_matches_serving_convention():
    values = list(range(100))
    # sorted[min(n-1, int(q*n))] — the TenantReport pick.
    assert quantile(values, 0.99) == 99
    assert quantile(values, 0.5) == 50
    assert quantile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        quantile([], 0.5)


def test_agreement_overlap_and_tolerance_fallback():
    a = Estimate(mean=100.0, half_width=5.0, n=4)
    ok, detail = agreement(a, Estimate(mean=104.0, half_width=2.0, n=4),
                           tolerance=0.01)
    assert ok and "overlap" in detail
    # Degenerate zero-width intervals: the relative-gap fallback.
    ok, _ = agreement(Estimate(100.0, 0.0, 3), Estimate(101.0, 0.0, 3),
                      tolerance=0.05)
    assert ok
    ok, detail = agreement(Estimate(100.0, 0.0, 3),
                           Estimate(130.0, 0.0, 3), tolerance=0.05)
    assert not ok and "disjoint" in detail
