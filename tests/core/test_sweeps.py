"""Correctness of the sweep engine and the scalar solver's memo.

The memo must be invisible: a memoized result is the exact
``SolverResult`` a cold solve would produce, and a different testbed
never reads another testbed's entry.
"""

import dataclasses

import pytest

from repro.core.harness import Measurement, Sweep
from repro.core.paths import CommPath, Opcode
from repro.core.sweeps import SweepGrid, SweepRunner
from repro.core.throughput import (
    RESULT_CACHE,
    Flow,
    Scenario,
    ThroughputSolver,
)
from repro.net.topology import paper_testbed
from repro.nic.smartnic import SmartNIC
from repro.nic.specs import BLUEFIELD2
from repro.units import MB


@pytest.fixture(autouse=True)
def fresh_caches():
    """Each test starts with an empty memo."""
    RESULT_CACHE.clear()
    yield
    RESULT_CACHE.clear()


@pytest.fixture(scope="module")
def testbed():
    return paper_testbed()


def assert_results_identical(a, b):
    """Bit-identical: same rates, bottlenecks, utilization and flows."""
    assert a.rates == b.rates
    assert a.bottlenecks == b.bottlenecks
    assert a.utilization == b.utilization
    assert a.flows == b.flows


# ---------------------------------------------------------------------------
# Memoization correctness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("path", list(CommPath))
@pytest.mark.parametrize("op", list(Opcode))
def test_memoized_result_bit_identical_to_cold_solve(testbed, path, op):
    solver = ThroughputSolver()
    flow = Flow(path=path, op=op, payload=512, requesters=8)
    first = solver.solve(Scenario(testbed, [flow]))    # fills the memo
    warm = solver.solve(Scenario(testbed, [flow]))     # hits the memo
    assert warm is first                                # a real memo hit
    RESULT_CACHE.clear()
    cold = solver.solve(Scenario(testbed, [flow]))
    assert cold is not warm
    assert_results_identical(cold, warm)


def test_cache_hit_counted(testbed):
    solver = ThroughputSolver()
    flow = Flow(path=CommPath.SNIC1, op=Opcode.READ, payload=64)
    before = (RESULT_CACHE.hits, RESULT_CACHE.misses)
    solver.solve(Scenario(testbed, [flow]))
    solver.solve(Scenario(testbed, [flow]))
    assert RESULT_CACHE.misses == before[1] + 1
    assert RESULT_CACHE.hits == before[0] + 1


def test_separately_built_testbeds_do_not_share_entries():
    # The memo keys on the testbed object, whose NICs compare by
    # identity: two equal-looking testbeds each get a cold solve.
    solver = ThroughputSolver()
    flow = Flow(path=CommPath.RNIC1, op=Opcode.WRITE, payload=256)
    a = solver.solve(Scenario(paper_testbed(), [flow]))
    b = solver.solve(Scenario(paper_testbed(), [flow]))
    assert (RESULT_CACHE.hits, RESULT_CACHE.misses) == (0, 2)
    assert a is not b
    assert_results_identical(a, b)


def test_mutated_spec_changes_key(testbed):
    # An edited spec is a different testbed, so a different key.
    solver = ThroughputSolver()
    flow = Flow(path=CommPath.SNIC1, op=Opcode.READ, payload=64)
    solver.solve(Scenario(testbed, [flow]))
    faster_switch = dataclasses.replace(BLUEFIELD2, switch_hop_ns=10.0)
    mutated = dataclasses.replace(testbed, snic=SmartNIC(faster_switch))
    solver.solve(Scenario(mutated, [flow]))
    assert (RESULT_CACHE.hits, RESULT_CACHE.misses) == (0, 2)


def test_mutated_flow_changes_key(testbed):
    solver = ThroughputSolver()
    base = Flow(path=CommPath.SNIC1, op=Opcode.READ, payload=64)
    solver.solve(Scenario(testbed, [base]))
    solver.solve(Scenario(testbed, [dataclasses.replace(base, payload=128)]))
    assert (RESULT_CACHE.hits, RESULT_CACHE.misses) == (0, 2)


def test_mutated_spec_changes_result(testbed):
    # The key change must matter: a different spec reaches a different
    # cold solve, never a stale cached one.
    solver = ThroughputSolver()
    # A large-payload point, so the internal PCIe bandwidth (scaled by
    # switch_derate) is the binding resource.
    flow = Flow(path=CommPath.SNIC1, op=Opcode.READ, payload=1 * MB,
                requesters=11)
    base = solver.solve(Scenario(testbed, [flow]))
    derated = dataclasses.replace(BLUEFIELD2, switch_derate=0.5)
    mutated = dataclasses.replace(testbed, snic=SmartNIC(derated))
    other = solver.solve(Scenario(mutated, [flow]))
    assert other.rates != base.rates


# ---------------------------------------------------------------------------
# Sweep runner
# ---------------------------------------------------------------------------


def test_small_batch_stays_serial(testbed):
    # One point is below the batch threshold: the scalar reference
    # solver runs it, and the rate is the cold solve's.
    from repro.core.batch import ENGINE_STATS

    ENGINE_STATS.clear()
    grid = SweepGrid(CommPath.RNIC1, Opcode.READ, [64])
    (rate,) = SweepRunner(testbed).solve_flows(grid)
    assert len(RESULT_CACHE) == 1           # the runner filled the memo
    assert ENGINE_STATS.points == {"scalar": 1}
    RESULT_CACHE.clear()
    cold = ThroughputSolver().solve(Scenario(testbed, grid.flows()))
    assert rate == cold.rates[0]


# ---------------------------------------------------------------------------
# Sweep.value_at float tolerance
# ---------------------------------------------------------------------------


def _sweep(points):
    return Sweep("x", "unit", [(x, Measurement("m", v, "u"))
                               for x, v in points])


def test_value_at_exact_match():
    assert _sweep([(1.0, 10.0), (2.0, 20.0)]).value_at(2.0) == 20.0


def test_value_at_tolerates_float_roundoff():
    # 0.1 + 0.2 != 0.3 exactly; a ratio-valued x must still be found.
    sweep = _sweep([(0.1 + 0.2, 42.0)])
    assert sweep.value_at(0.3) == 42.0


def test_value_at_missing_raises_keyerror():
    with pytest.raises(KeyError):
        _sweep([(1.0, 10.0)]).value_at(3.0)
