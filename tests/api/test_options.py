"""Tests for the sweep options: ``repro sweep --profile`` is the one."""

import pytest

from repro.cli import _build_parser, main
from repro.core.harness import LatencyBench, ThroughputBench
from repro.core.sweeps import SweepRunner
from repro.net.topology import paper_testbed


def _sweep_args(*flags):
    return _build_parser().parse_args(["sweep", "fig4", *flags])


def test_defaults():
    assert not _sweep_args().profile


def test_runner_carries_the_options():
    # A bench built without a runner gets a plain one: no timings.
    for bench in (LatencyBench, ThroughputBench):
        runner = bench(paper_testbed()).runner
        assert isinstance(runner, SweepRunner)
        assert runner.timings is None


def test_validation():
    # Serving and cluster settings are ``serve`` flags and the solver
    # memo has no switch: ``sweep`` refuses the old spellings.
    for gone in (["--engine", "vector"], ["--jobs", "2"],
                 ["--chunk-size", "8"], ["--machines", "4"],
                 ["--population-seed", "1"]):
        with pytest.raises(SystemExit):
            _sweep_args(*gone)


def test_profile_attaches_timings(capsys):
    assert main(["sweep", "fig4", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "sweep stage profile" in out
    assert "grid_build" in out and "solve" in out


def test_argparse_round_trip():
    assert _sweep_args("--profile").profile
    for gone in (["--no-cache"], ["--disk-cache", "/nonexistent"]):
        with pytest.raises(SystemExit):
            _sweep_args(*gone)
