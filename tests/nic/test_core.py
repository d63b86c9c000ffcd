"""Tests for NIC core capacity models: partitioning and HOL blocking."""

import pytest

from repro.nic import BLUEFIELD2, NICCores
from repro.units import MB, KB, to_mpps

CORES = NICCores(BLUEFIELD2.cores)


def test_read_capacity_host_only():
    rate = BLUEFIELD2.cores.verb_rate_host_only
    assert to_mpps(rate) == pytest.approx(195.0)


def test_read_capacity_soc_only_is_lower():
    # S3.2: "SoC can only utilize a portion of NIC cores".
    rate = BLUEFIELD2.cores.verb_rate_soc_only
    assert to_mpps(rate) == pytest.approx(157.0)


def test_read_capacity_concurrent_unlocks_reserved_cores():
    both = BLUEFIELD2.cores.verb_rate_concurrent
    host = BLUEFIELD2.cores.verb_rate_host_only
    soc = BLUEFIELD2.cores.verb_rate_soc_only
    # S4: concurrent is 4-13 % above either path alone...
    assert 1.04 <= both / host <= 1.13
    assert 1.05 <= both / soc <= 1.40
    # ...but far below the sum of separately measured peaks (352 vs 195).
    assert both < 0.7 * (host + soc)


def test_write_capacity_is_almost_flat():
    # S4: "For WRITE, all results are almost the same" — concurrent use
    # buys under 3 % over the host path alone.
    host = BLUEFIELD2.cores.verb_rate_write_host
    both = BLUEFIELD2.cores.verb_rate_write_concurrent
    assert 1.0 <= both / host <= 1.03


def test_verb_ops_per_request_counts_network_packets():
    assert CORES.verb_ops_per_request(0) == 1
    assert CORES.verb_ops_per_request(64) == 1
    assert CORES.verb_ops_per_request(4096) == 1
    assert CORES.verb_ops_per_request(4097) == 2
    assert CORES.verb_ops_per_request(64 * KB) == 16
    with pytest.raises(ValueError):
        CORES.verb_ops_per_request(-1)


def test_hol_collapse_above_9mb_with_nonposted_leg():
    # S3.2 Advice #2: READ to SoC collapses above 9 MB.
    ok = CORES.dma_pps_capacity(8 * MB, nonposted_leg=True)
    collapsed = CORES.dma_pps_capacity(10 * MB, nonposted_leg=True)
    assert to_mpps(ok) == pytest.approx(330.0)
    assert to_mpps(collapsed) == pytest.approx(120.0)
    assert CORES.hol_collapsed(10 * MB, nonposted_leg=True)
    assert not CORES.hol_collapsed(8 * MB, nonposted_leg=True)


def test_posted_only_flows_never_collapse():
    # WRITE to SoC stays fine at any size: "DMA does not wait for the
    # completion" (S3.2).
    assert not CORES.hol_collapsed(64 * MB, nonposted_leg=False)


def test_s2h_collapses_earlier_than_h2s():
    # S3.3: "the performance of S2H collapses earlier than H2S".
    payload = 4 * MB
    assert CORES.hol_collapsed(payload, nonposted_leg=True, s2h=True)
    assert not CORES.hol_collapsed(payload, nonposted_leg=True, s2h=False)


def test_dma_pps_validation():
    with pytest.raises(ValueError):
        CORES.dma_pps_capacity(-1, nonposted_leg=True)


def test_network_goodput_is_sub_nominal():
    spec = BLUEFIELD2.cores
    goodput = spec.network_goodput(4096)
    assert goodput < spec.network_bandwidth
    # ~190 Gbps of 200 Gbps at 4 KB (Fig 5b "same direction" bars).
    from repro.units import to_gbps
    assert 185 < to_gbps(goodput) < 195


def test_network_goodput_small_payloads_pay_headers():
    spec = BLUEFIELD2.cores
    assert spec.network_goodput(64) < 0.7 * spec.network_goodput(4096)
    with pytest.raises(ValueError):
        spec.network_goodput(0)
