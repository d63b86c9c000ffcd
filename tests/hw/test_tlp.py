"""Unit and property tests for TLP segmentation math."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.hw.pcie import (
    TLP_HEADER_BYTES,
    Tlp,
    TlpKind,
    segment_count,
    segment_sizes,
    wire_bytes,
)
from repro.units import MB


def test_tlp_wire_bytes():
    tlp = Tlp(TlpKind.MEM_WRITE, payload=128)
    assert tlp.wire_bytes == 128 + TLP_HEADER_BYTES


def test_tlp_negative_payload_rejected():
    with pytest.raises(ValueError):
        Tlp(TlpKind.MEM_WRITE, payload=-1)


def test_segment_count_matches_paper_table3():
    # Table 3: ceil(N / MTU); host 512 B, SoC 128 B.
    assert segment_count(4096, 512) == 8
    assert segment_count(4096, 128) == 32
    assert segment_count(1, 512) == 1
    assert segment_count(0, 512) == 0


def test_segment_count_paper_example_200gbps():
    # S3.3 Advice #3: 25 GB/s at 128 B -> ~195 M TLPs; at 512 B -> ~49 M.
    bytes_per_second = 25_000_000_000
    assert segment_count(bytes_per_second, 128) == pytest.approx(195e6, rel=0.01)
    assert segment_count(bytes_per_second, 512) == pytest.approx(49e6, rel=0.01)


def test_segment_sizes_sum_and_shape():
    sizes = segment_sizes(1000, 512)
    assert sizes == [512, 488]
    assert sum(sizes) == 1000


def test_wire_bytes_adds_header_per_tlp():
    assert wire_bytes(1024, 512) == 1024 + 2 * TLP_HEADER_BYTES


@given(st.integers(min_value=0, max_value=64 * MB),
       st.sampled_from([128, 256, 512, 4096]))
def test_segment_count_is_ceil(nbytes, mps):
    assert segment_count(nbytes, mps) == math.ceil(nbytes / mps)


@given(st.integers(min_value=1, max_value=64 * MB),
       st.sampled_from([128, 256, 512, 4096]))
def test_segment_sizes_invariants(nbytes, mps):
    sizes = segment_sizes(nbytes, mps)
    assert sum(sizes) == nbytes
    assert all(0 < s <= mps for s in sizes)
    assert len(sizes) == segment_count(nbytes, mps)
    # Only the final TLP may be short.
    assert all(s == mps for s in sizes[:-1])


@given(st.integers(min_value=0, max_value=64 * MB))
def test_smaller_mtu_never_needs_fewer_tlps(nbytes):
    # The SoC's 128 B MTU always costs at least as many TLPs as 512 B —
    # the root cause of the Fig 8 collapse.
    assert segment_count(nbytes, 128) >= segment_count(nbytes, 512)
