"""Unit tests for the sample histogram."""

import math

import pytest

from repro.sim import Histogram


def test_histogram_stats():
    h = Histogram()
    for v in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]:
        h.record(v)
    assert h.mean == pytest.approx(5.5)
    assert h.min == 1 and h.max == 10
    assert h.p50 == 5
    assert h.percentile(100) == 10
    assert h.p99 == 10
    assert len(h) == 10


def test_histogram_empty_is_nan():
    h = Histogram()
    assert math.isnan(h.mean)
    assert math.isnan(h.p50)


def test_histogram_percentile_validation():
    with pytest.raises(ValueError):
        Histogram().percentile(101)
