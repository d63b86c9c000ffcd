"""Checks of one modelling session driven through the direct calls.

The paths and verbs a session names go through the one parser
(``CommPath.parse``/``Opcode.parse``) into :class:`LatencyModel`, and
a profiled sweep is a bench built on a :class:`SweepRunner` that
carries :class:`StageTimings`.
"""

from repro import CommPath, Opcode
from repro.cli import main
from repro.core.harness import LatencyBench, ThroughputBench
from repro.core.latency import LatencyModel
from repro.core.sweeps import StageTimings, SweepRunner
from repro.net.topology import paper_testbed


def test_string_spellings_match_enums():
    model = LatencyModel(paper_testbed())
    enum = model.latency(CommPath.SNIC1, Opcode.READ, 64)
    for path in ("snic-1", "SNIC1", "1"):
        for op in ("read", "READ"):
            parsed = model.latency(CommPath.parse(path), Opcode.parse(op), 64)
            assert parsed.total == enum.total


def test_latency_matches_model(capsys):
    direct = LatencyModel(paper_testbed()).latency(
        CommPath.SNIC2, Opcode.WRITE, 4096)
    assert main(["latency", "--path", "2", "--op", "write",
                 "--payload", "4096"]) == 0
    out = capsys.readouterr().out
    assert f"{direct.total_us:.2f} us" in out
    totals = [line.split() for line in out.splitlines()
              if line.startswith("TOTAL")]
    assert totals == [["TOTAL", f"{direct.total:.0f}"]]


def test_sweeps_run_through_the_session_options():
    testbed = paper_testbed()
    runner = SweepRunner(testbed, timings=StageTimings())
    sweep = ThroughputBench(testbed, runner).payload_sweep(
        CommPath.SNIC1, Opcode.READ, [64, 512, 4096])
    assert sweep.xs() == [64, 512, 4096]
    lat = LatencyBench(testbed, runner).payload_sweep(
        CommPath.SNIC2, Opcode.READ, [64, 4096])
    assert len(lat.points) == 2
    assert all(v > 0 for v in lat.values())
    assert "grid_build" in runner.timings.seconds
