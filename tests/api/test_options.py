"""Tests for the run-options dataclass."""

import argparse
import dataclasses

import pytest

from repro.core.options import RunOptions
from repro.core.sweeps import SweepRunner
from repro.net.topology import paper_testbed


def test_defaults():
    options = RunOptions()
    assert [f.name for f in dataclasses.fields(options)] == ["profile"]
    assert not options.profile


def test_validation():
    # Serving and cluster settings are Session.serve/serve_cluster
    # keywords, not run options, and the solver memo has no switch:
    # the old spellings are refused.
    for knob in ("engine", "jobs", "chunk_size", "machines",
                 "population_seed", "cache", "disk_cache"):
        with pytest.raises(TypeError):
            RunOptions(**{knob: 1})


def test_runner_carries_the_options():
    runner = RunOptions().runner(paper_testbed())
    assert isinstance(runner, SweepRunner)
    assert runner.timings is None


def test_profile_attaches_timings():
    runner = RunOptions(profile=True).runner(paper_testbed())
    assert runner.timings is not None


def test_argparse_round_trip():
    parser = argparse.ArgumentParser()
    RunOptions.add_arguments(parser)
    options = RunOptions.from_args(parser.parse_args(["--profile"]))
    assert options == RunOptions(profile=True)
    for gone in (["--no-cache"], ["--disk-cache", "/nonexistent"]):
        with pytest.raises(SystemExit):
            parser.parse_args(gone)


def test_from_args_tolerates_missing_attributes():
    options = RunOptions.from_args(argparse.Namespace())
    assert options == RunOptions()
