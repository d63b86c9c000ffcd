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
from repro.core.cache import clear_all
from repro.core.paths import CommPath, Opcode
from repro.core.sweeps import SweepRunner
from repro.core.throughput import (
    Flow,
    Scenario,
    ThroughputSolver,
    configure_result_cache,
)
from repro.net.topology import paper_testbed


@pytest.fixture
def no_numpy(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)
    batch._reset_numpy_cache()
    yield
    batch._reset_numpy_cache()


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_all()
    configure_result_cache(enabled=True, disk_dir=None)
    batch.ENGINE_STATS.clear()
    yield
    clear_all()
    configure_result_cache(enabled=True, disk_dir=None)
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
        batch.BatchSolver().solve(testbed, [[Flow(path=CommPath.SNIC1,
                                                  op=Opcode.READ,
                                                  payload=64)]] * 2)


def test_auto_engine_falls_back_to_scalar(no_numpy, testbed):
    flows = [Flow(path=CommPath.SNIC1, op=Opcode.READ, payload=p,
                  requesters=11) for p in (64, 256, 1024)]
    results = SweepRunner(testbed).solve_flows(flows)
    counters = batch.ENGINE_STATS.counters()
    assert counters["engine.scalar.points"] == len(flows)
    assert "engine.vector.points" not in counters
    reference = [ThroughputSolver().solve(Scenario(testbed, [flow]),
                                          use_cache=False)
                 for flow in flows]
    for got, want in zip(results, reference):
        assert got.rates == want.rates
        assert got.bottlenecks == want.bottlenecks


def test_solve_batch_auto_falls_back(no_numpy, testbed):
    flow_sets = [[Flow(path=CommPath.SNIC2, op=Opcode.WRITE, payload=p)]
                 for p in (64, 4096)]
    results = Scenario.solve_batch(testbed, flow_sets)
    assert len(results) == 2
    assert all(result.rates[0] > 0 for result in results)
    assert batch.ENGINE_STATS.points == {"scalar": 2}


def test_cli_sweep_reports_missing_numpy(no_numpy, capsys):
    # Without numpy the sweep still succeeds, on the scalar solver, and
    # --cache-stats reports which backend did the work.
    from repro.cli import main

    status = main(["sweep", "fig8", "--cache-stats"])
    assert status == 0
    backends = capsys.readouterr().out.split("solver backends")[1]
    assert "\nscalar " in backends
    assert "\nvector " not in backends
