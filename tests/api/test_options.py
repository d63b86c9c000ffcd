"""Tests for the run-options dataclass."""

import argparse
import dataclasses

import pytest

from repro.core.options import RunOptions
from repro.core.paths import CommPath, Opcode
from repro.core.sweeps import SweepRunner
from repro.core.throughput import Flow, Scenario, configure_result_cache
from repro.net.topology import paper_testbed


@pytest.fixture(autouse=True)
def default_cache():
    yield
    configure_result_cache(enabled=True, disk_dir=None)


def test_defaults():
    options = RunOptions()
    assert [f.name for f in dataclasses.fields(options)] == [
        "cache", "disk_cache", "profile"]
    assert options.cache
    assert options.disk_cache is None
    assert not options.profile


def test_validation():
    # Serving and cluster settings are Session.serve/serve_cluster
    # keywords, not run options: the old spellings are refused.
    for knob in ("engine", "jobs", "chunk_size", "machines",
                 "population_seed"):
        with pytest.raises(TypeError):
            RunOptions(**{knob: 1})


def test_runner_carries_the_options():
    testbed = paper_testbed()
    runner = RunOptions(cache=False).runner(testbed)
    assert isinstance(runner, SweepRunner)
    assert runner.timings is None
    # cache=False reached the solver: a repeated point is re-solved.
    scenario = Scenario(testbed, [Flow(CommPath.SNIC1, Opcode.READ, 64)])
    assert runner.solver.solve(scenario) is not runner.solver.solve(scenario)


def test_profile_attaches_timings():
    runner = RunOptions(profile=True).runner(paper_testbed())
    assert runner.timings is not None


def test_argparse_round_trip():
    parser = argparse.ArgumentParser()
    RunOptions.add_arguments(parser)
    args = parser.parse_args(["--no-cache", "--profile",
                              "--disk-cache", "/nonexistent"])
    options = RunOptions.from_args(args)
    assert options == RunOptions(cache=False, disk_cache="/nonexistent",
                                 profile=True)


def test_from_args_tolerates_missing_attributes():
    options = RunOptions.from_args(argparse.Namespace())
    assert options == RunOptions()
