"""Behaviour with numpy absent: the [fast] extra must stay optional.

These tests simulate an uninstalled numpy by planting ``None`` in
``sys.modules`` (which makes ``import numpy`` raise ``ImportError``)
and resetting the batch module's lazy import cache.  They run in every
environment — with numpy installed they prove the gate, without it
they prove the fallback.
"""

import sys

import pytest

from repro.core import batch
from repro.core.harness import ThroughputBench
from repro.core.paths import CommPath, Opcode
from repro.core.sweeps import SweepGrid, SweepRunner
from repro.core.throughput import RESULT_CACHE, Scenario, ThroughputSolver
from repro.net.topology import paper_testbed
from repro.units import GB, KB, MB


@pytest.fixture
def no_numpy(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)
    batch._reset_numpy_cache()
    yield
    batch._reset_numpy_cache()


@pytest.fixture(autouse=True)
def fresh_caches():
    RESULT_CACHE.clear()
    batch.ENGINE_STATS.clear()
    yield
    RESULT_CACHE.clear()
    batch.ENGINE_STATS.clear()
    batch._reset_numpy_cache()


@pytest.fixture(scope="module")
def testbed():
    return paper_testbed()


def test_numpy_unavailable_detected(no_numpy):
    assert not batch.numpy_available()


def test_require_numpy_names_the_extra(no_numpy):
    with pytest.raises(ValueError, match=r"repro\[fast\]"):
        batch.require_numpy()


def test_vector_engine_refused_without_numpy(no_numpy, testbed):
    with pytest.raises(ValueError, match=r"repro\[fast\]"):
        batch.BatchSolver().solve(testbed, SweepGrid(
            CommPath.SNIC1, Opcode.READ, [64, 64]))


def test_auto_engine_falls_back_to_scalar(no_numpy, testbed):
    grid = SweepGrid(CommPath.SNIC1, Opcode.READ, [64, 256, 1024])
    rates = SweepRunner(testbed).solve_flows(grid)
    counters = batch.ENGINE_STATS.counters()
    assert counters["engine.scalar.points"] == len(grid)
    assert "engine.vector.points" not in counters
    RESULT_CACHE.clear()                    # the reference solves cold
    assert rates == [ThroughputSolver().solve(Scenario(testbed, [flow]))
                     .rates[0] for flow in grid.flows()]


def test_solve_batch_auto_falls_back(no_numpy, testbed):
    rates = SweepRunner(testbed).solve_flows(
        SweepGrid(CommPath.SNIC2, Opcode.WRITE, [64, 4096]))
    assert len(rates) == 2
    assert all(rate > 0 for rate in rates)
    assert batch.ENGINE_STATS.points == {"scalar": 2}


def _every_sweep(bench):
    """Each ThroughputBench sweep kind on each path and verb."""
    payloads = [0, 64, 4 * KB, 1 * MB, 16 * MB]
    sweeps = []
    for path in CommPath:
        for op in Opcode:
            sweeps += [
                bench.payload_sweep(path, op, payloads),
                bench.payload_sweep(path, op, payloads, metric="gbps"),
                bench.pps_sweep(path, op, payloads),
                bench.pps_sweep(path, op, payloads, scope="fabric"),
                bench.range_sweep(path, op, 64, [1536.0, 48 * KB, 10 * GB]),
                bench.requester_sweep(path, op, 0, [1, 6, 11]),
                bench.doorbell_sweep(path, op, 0, [1, 16, 64]),
            ]
    return [(sweep.xs(), sweep.values(),
             [m.name for _x, m in sweep.points]) for sweep in sweeps]


def test_every_sweep_same_without_numpy(monkeypatch, testbed):
    pytest.importorskip("numpy")
    vector = _every_sweep(ThroughputBench(testbed))
    assert batch.ENGINE_STATS.points.keys() == {"vector"}
    monkeypatch.setitem(sys.modules, "numpy", None)
    batch._reset_numpy_cache()
    batch.ENGINE_STATS.clear()
    assert _every_sweep(ThroughputBench(testbed)) == vector
    assert batch.ENGINE_STATS.points.keys() == {"scalar"}


def test_cli_sweep_reports_missing_numpy(no_numpy, capsys):
    # Without numpy the sweep still succeeds, on the scalar solver, and
    # --cache-stats reports which backend did the work.
    from repro.cli import main

    status = main(["sweep", "fig8", "--cache-stats"])
    assert status == 0
    backends = capsys.readouterr().out.split("solver backends")[1]
    assert "\nscalar " in backends
    assert "\nvector " not in backends
