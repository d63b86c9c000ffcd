"""Tests for the demand builder and max-min throughput solver.

The quantitative assertions mirror the paper's §3/§4 claims; see
EXPERIMENTS.md for the full paper-vs-model table.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.paths import CommPath, Opcode
from repro.core.throughput import Flow, Scenario, ThroughputSolver
from repro.net.topology import paper_testbed
from repro.units import GB, KB, MB

TB = paper_testbed()
SOLVER = ThroughputSolver()


def peak(path, op, payload, requesters=11, **kw):
    flow = Flow(path=path, op=op, payload=payload, requesters=requesters, **kw)
    return SOLVER.solve(Scenario(TB, [flow]))


# -- Flow validation -----------------------------------------------------------


def test_flow_validation():
    with pytest.raises(ValueError):
        Flow(CommPath.SNIC1, Opcode.READ, payload=-1)
    with pytest.raises(ValueError):
        Flow(CommPath.SNIC1, Opcode.READ, payload=64, requesters=0)
    with pytest.raises(ValueError):
        Flow(CommPath.SNIC1, Opcode.READ, payload=64, range_bytes=32)
    with pytest.raises(ValueError):
        Flow(CommPath.SNIC1, Opcode.READ, payload=64, doorbell_batch=0)
    with pytest.raises(ValueError):
        Flow(CommPath.SNIC1, Opcode.READ, payload=64, weight=0)
    with pytest.raises(ValueError):
        Flow(CommPath.SNIC1, Opcode.READ, payload=64, rate_cap=0)


def test_flow_name():
    flow = Flow(CommPath.SNIC1, Opcode.READ, 64, label="custom")
    assert flow.name == "custom"
    assert "read" in Flow(CommPath.SNIC1, Opcode.READ, 64).name


def test_scenario_needs_flows():
    with pytest.raises(ValueError):
        Scenario(TB, [])


# -- S2.1 / S4 verb-limited small requests ----------------------------------------


def test_0b_read_saturates_at_195_mpps():
    result = peak(CommPath.SNIC1, Opcode.READ, 0)
    assert result.mrps_of(0) == pytest.approx(195.0, rel=0.01)


def test_0b_read_soc_path_saturates_at_157_mpps():
    result = peak(CommPath.SNIC2, Opcode.READ, 0)
    assert result.mrps_of(0) == pytest.approx(157.0, rel=0.01)


def test_five_clients_saturate_the_nic():
    four = peak(CommPath.SNIC1, Opcode.READ, 0, requesters=4)
    five = peak(CommPath.SNIC1, Opcode.READ, 0, requesters=5)
    assert four.mrps_of(0) < 195.0 * 0.9
    assert five.mrps_of(0) == pytest.approx(195.0, rel=0.01)


# -- S3.1: the SmartNIC performance tax --------------------------------------------


def test_snic1_read_small_is_19_to_26_percent_below_rnic():
    rnic = peak(CommPath.RNIC1, Opcode.READ, 64).mrps_of(0)
    snic = peak(CommPath.SNIC1, Opcode.READ, 64).mrps_of(0)
    assert 0.74 <= snic / rnic <= 0.81


def test_snic1_write_small_is_15_to_22_percent_below_rnic():
    rnic = peak(CommPath.RNIC1, Opcode.WRITE, 64).mrps_of(0)
    snic = peak(CommPath.SNIC1, Opcode.WRITE, 64).mrps_of(0)
    assert 0.78 <= snic / rnic <= 0.85


def test_snic1_send_small_is_below_rnic():
    rnic = peak(CommPath.RNIC1, Opcode.SEND, 64).mrps_of(0)
    snic = peak(CommPath.SNIC1, Opcode.SEND, 64).mrps_of(0)
    assert 0.64 <= snic / rnic <= 0.97


def test_large_requests_converge_to_network_bound():
    # "The result of larger requests is similar to using RNIC" (S3.1).
    rnic = peak(CommPath.RNIC1, Opcode.READ, 16 * KB).gbps_of(0)
    snic = peak(CommPath.SNIC1, Opcode.READ, 16 * KB).gbps_of(0)
    assert snic == pytest.approx(rnic, rel=0.02)
    assert 185 <= snic <= 195


# -- S3.2: path 2 beats path 1 for one-sided ----------------------------------------


def test_snic2_read_small_beats_snic1_by_8_to_48_percent():
    snic1 = peak(CommPath.SNIC1, Opcode.READ, 64).mrps_of(0)
    snic2 = peak(CommPath.SNIC2, Opcode.READ, 64).mrps_of(0)
    assert 1.08 <= snic2 / snic1 <= 1.48


def test_snic2_read_small_observably_above_rnic():
    rnic = peak(CommPath.RNIC1, Opcode.READ, 64).mrps_of(0)
    snic2 = peak(CommPath.SNIC2, Opcode.READ, 64).mrps_of(0)
    assert snic2 > rnic


def test_snic2_write_between_snic1_and_rnic():
    rnic = peak(CommPath.RNIC1, Opcode.WRITE, 64).mrps_of(0)
    snic1 = peak(CommPath.SNIC1, Opcode.WRITE, 64).mrps_of(0)
    snic2 = peak(CommPath.SNIC2, Opcode.WRITE, 64).mrps_of(0)
    assert snic1 < snic2 < rnic


def test_snic2_send_drops_up_to_64_percent():
    snic1 = peak(CommPath.SNIC1, Opcode.SEND, 64).mrps_of(0)
    snic2 = peak(CommPath.SNIC2, Opcode.SEND, 64).mrps_of(0)
    assert 0.34 <= snic2 / snic1 <= 0.45
    assert snic2 == pytest.approx(31.2, rel=0.02)


# -- S3.2 Advice #1: skew ------------------------------------------------------------


def test_soc_write_collapses_to_22_7_mrps_on_narrow_range():
    narrow = peak(CommPath.SNIC2, Opcode.WRITE, 64, range_bytes=1536)
    assert narrow.mrps_of(0) == pytest.approx(22.7, rel=0.01)
    assert narrow.bottlenecks[0] == "mem:soc"


def test_soc_read_floor_is_50_mrps():
    narrow = peak(CommPath.SNIC2, Opcode.READ, 64, range_bytes=1536)
    assert narrow.mrps_of(0) == pytest.approx(50.0, rel=0.01)


def test_host_path_immune_to_narrow_range():
    # DDIO absorbs the skew (Fig 7's flat host lines).
    narrow = peak(CommPath.SNIC1, Opcode.WRITE, 64, range_bytes=1536)
    wide = peak(CommPath.SNIC1, Opcode.WRITE, 64, range_bytes=10 * GB)
    assert narrow.mrps_of(0) == pytest.approx(wide.mrps_of(0), rel=0.01)


# -- S3.2 Advice #2: large READs to the SoC -------------------------------------------


def test_snic2_read_collapses_above_9mb():
    below = peak(CommPath.SNIC2, Opcode.READ, 8 * MB)
    above = peak(CommPath.SNIC2, Opcode.READ, 16 * MB)
    assert below.gbps_of(0) > 180
    assert above.gbps_of(0) < 130
    assert above.bottlenecks[0] == "dma:tlps"


def test_snic2_write_does_not_collapse():
    above = peak(CommPath.SNIC2, Opcode.WRITE, 16 * MB)
    assert above.gbps_of(0) > 180


def test_snic1_large_read_does_not_collapse():
    # The host's 512 B MTU avoids the issue (S3.2).
    above = peak(CommPath.SNIC1, Opcode.READ, 16 * MB)
    assert above.gbps_of(0) > 180


# -- S3.3: path 3 ----------------------------------------------------------------------


def test_h2s_small_reads_bound_by_host_requester_at_51_mrps():
    result = peak(CommPath.SNIC3_H2S, Opcode.READ, 64, requesters=24)
    assert result.mrps_of(0) == pytest.approx(51.3, rel=0.01)
    assert result.bottlenecks[0] == "issue:host"


def test_s2h_small_reads_bound_by_soc_requester_at_29_mrps():
    result = peak(CommPath.SNIC3_S2H, Opcode.READ, 64, requesters=8)
    assert result.mrps_of(0) == pytest.approx(29.0, rel=0.01)
    assert result.bottlenecks[0] == "issue:soc"


def test_path3_peak_bandwidth_is_204_gbps():
    # Fig 9: ~204 Gbps at 256 KB, above the 191 Gbps network-bound paths.
    result = peak(CommPath.SNIC3_S2H, Opcode.WRITE, 256 * KB, requesters=8)
    assert result.gbps_of(0) == pytest.approx(204, rel=0.01)
    path1 = peak(CommPath.SNIC1, Opcode.WRITE, 256 * KB).gbps_of(0)
    assert result.gbps_of(0) > path1


def test_path3_collapses_to_about_100_gbps_for_large():
    s2h = peak(CommPath.SNIC3_S2H, Opcode.WRITE, 16 * MB, requesters=8)
    h2s = peak(CommPath.SNIC3_H2S, Opcode.READ, 16 * MB, requesters=24)
    assert 85 <= s2h.gbps_of(0) <= 110
    assert 85 <= h2s.gbps_of(0) <= 110


def test_s2h_collapses_earlier_than_h2s():
    # 4 MB: data leaving the SoC already collapsed, data entering not yet.
    payload = 4 * MB
    s2h = peak(CommPath.SNIC3_S2H, Opcode.WRITE, payload, requesters=8)
    h2s = peak(CommPath.SNIC3_H2S, Opcode.WRITE, payload, requesters=24)
    assert s2h.gbps_of(0) < 0.75 * h2s.gbps_of(0)


# -- doorbell batching (Advice #4) -------------------------------------------------------


def test_doorbell_batching_helps_soc_side():
    base = peak(CommPath.SNIC3_S2H, Opcode.READ, 0, requesters=8)
    batched = peak(CommPath.SNIC3_S2H, Opcode.READ, 0, requesters=8,
                   doorbell_batch=16)
    assert batched.mrps_of(0) / base.mrps_of(0) == pytest.approx(2.7, rel=0.02)


def test_doorbell_batching_hurts_host_side():
    base = peak(CommPath.SNIC3_H2S, Opcode.READ, 0, requesters=24)
    batched = peak(CommPath.SNIC3_H2S, Opcode.READ, 0, requesters=24,
                   doorbell_batch=16)
    assert batched.mrps_of(0) / base.mrps_of(0) == pytest.approx(0.91, rel=0.02)


# -- solver mechanics ----------------------------------------------------------------------


def test_rate_cap_is_respected():
    result = peak(CommPath.SNIC1, Opcode.READ, 64, rate_cap=0.001)
    assert result.rate_of(0) == pytest.approx(0.001)
    assert result.bottlenecks[0] == "cap:0"


def test_weights_bias_allocation():
    flows = [Flow(CommPath.SNIC1, Opcode.READ, 0, requesters=11, weight=2.0),
             Flow(CommPath.SNIC1, Opcode.READ, 0, requesters=11, weight=1.0)]
    result = ThroughputSolver().solve(Scenario(TB, flows))
    assert result.rates[0] == pytest.approx(2 * result.rates[1])


def test_result_accessors():
    result = peak(CommPath.SNIC1, Opcode.READ, 4 * KB)
    assert result.total_rate == result.rate_of(0)
    assert result.total_mrps == pytest.approx(result.mrps_of(0))
    assert result.goodput_of(0) == result.rate_of(0) * 4 * KB
    assert result.total_gbps == pytest.approx(result.gbps_of(0))


def test_every_flow_gets_a_bottleneck():
    flows = [Flow(CommPath.SNIC1, Opcode.READ, 64),
             Flow(CommPath.SNIC2, Opcode.WRITE, 64),
             Flow(CommPath.SNIC3_H2S, Opcode.READ, 64, requesters=24)]
    result = ThroughputSolver().solve(Scenario(TB, flows))
    assert all(result.bottlenecks)
    assert all(rate > 0 for rate in result.rates)


def test_solver_utilization_never_exceeds_one():
    flows = [Flow(CommPath.SNIC1, Opcode.READ, 4 * KB),
             Flow(CommPath.SNIC1, Opcode.WRITE, 4 * KB),
             Flow(CommPath.SNIC3_H2S, Opcode.WRITE, 4 * KB, requesters=24)]
    result = ThroughputSolver().solve(Scenario(TB, flows))
    assert all(u <= 1.0 + 1e-9 for u in result.utilization.values())


def test_throughput_monotone_in_requesters():
    rates = [peak(CommPath.SNIC1, Opcode.READ, 0, requesters=m).mrps_of(0)
             for m in range(1, 12)]
    assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))


def test_tied_bottlenecks_do_not_depend_on_the_hash_seed():
    # RNIC READ+WRITE saturates both network directions at once; the
    # tie must break the same way in every process (first-seen key
    # order), not by string-hash order.
    script = (
        "from repro.core.paths import CommPath, Opcode\n"
        "from repro.core.throughput import Flow, Scenario, ThroughputSolver\n"
        "from repro.net.topology import paper_testbed\n"
        "flows = [Flow(path=CommPath.RNIC1, op=op, payload=4096)\n"
        "         for op in (Opcode.READ, Opcode.WRITE)]\n"
        "r = ThroughputSolver().solve(Scenario(paper_testbed(), flows))\n"
        "print(r.bottlenecks, list(r.utilization))\n")
    src = str(Path(__file__).resolve().parents[2] / "src")
    outputs = {subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": src,
                         "PYTHONHASHSEED": str(seed)}).stdout
        for seed in range(4)}
    assert len(outputs) == 1, outputs
    assert outputs.pop().startswith("['rnet:c2s', 'rnet:c2s']")
