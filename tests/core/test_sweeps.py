"""Correctness of the sweep engine and the content-keyed result caches.

The performance layer must be invisible: a memoized result is the exact
``SolverResult`` a cold solve would produce, and cache keys track
testbed *content* (not object identity).
"""

import dataclasses

import pytest

from repro.core.harness import Measurement, Sweep
from repro.core.cache import ScenarioKey, clear_all
from repro.core.paths import CommPath, Opcode
from repro.core.sweeps import SweepRunner
from repro.core.throughput import (
    RESULT_CACHE,
    Flow,
    Scenario,
    ThroughputSolver,
    configure_result_cache,
)
from repro.net.topology import Testbed, paper_testbed
from repro.nic.smartnic import SmartNIC
from repro.nic.specs import BLUEFIELD2
from repro.units import KB, MB


@pytest.fixture(autouse=True)
def fresh_caches():
    """Each test starts cold, with the default cache configuration."""
    clear_all()
    configure_result_cache(enabled=True, disk_dir=None)
    yield
    clear_all()
    configure_result_cache(enabled=True, disk_dir=None)


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
    cold = solver.solve(Scenario(testbed, [flow]), use_cache=False)
    first = solver.solve(Scenario(testbed, [flow]))    # fills the cache
    warm = solver.solve(Scenario(testbed, [flow]))     # hits the cache
    assert warm is first                                # a real cache hit
    assert_results_identical(cold, warm)


def test_cache_hit_counted(testbed):
    solver = ThroughputSolver()
    flow = Flow(path=CommPath.SNIC1, op=Opcode.READ, payload=64)
    before = (RESULT_CACHE.hits, RESULT_CACHE.misses)
    solver.solve(Scenario(testbed, [flow]))
    solver.solve(Scenario(testbed, [flow]))
    assert RESULT_CACHE.misses == before[1] + 1
    assert RESULT_CACHE.hits == before[0] + 1


def test_cache_disabled_resolves_cold(testbed):
    solver = ThroughputSolver()
    flow = Flow(path=CommPath.RNIC1, op=Opcode.WRITE, payload=256)
    configure_result_cache(enabled=False)
    a = solver.solve(Scenario(testbed, [flow]))
    b = solver.solve(Scenario(testbed, [flow]))
    assert a is not b
    assert_results_identical(a, b)


# ---------------------------------------------------------------------------
# Key content-sensitivity
# ---------------------------------------------------------------------------


def test_equal_content_gives_equal_key():
    flow = Flow(path=CommPath.SNIC2, op=Opcode.READ, payload=1024)
    key_a = ScenarioKey.of(paper_testbed(), [flow])
    key_b = ScenarioKey.of(paper_testbed(), [flow])
    assert key_a == key_b
    assert key_a.digest == key_b.digest


def test_mutated_spec_changes_key(testbed):
    flow = Flow(path=CommPath.SNIC1, op=Opcode.READ, payload=64)
    base_key = ScenarioKey.of(testbed, [flow])
    faster_switch = dataclasses.replace(BLUEFIELD2, switch_hop_ns=10.0)
    mutated = dataclasses.replace(testbed, snic=SmartNIC(faster_switch))
    assert ScenarioKey.of(mutated, [flow]) != base_key


def test_mutated_flow_changes_key(testbed):
    base = Flow(path=CommPath.SNIC1, op=Opcode.READ, payload=64)
    assert (ScenarioKey.of(testbed, [base])
            != ScenarioKey.of(testbed,
                              [dataclasses.replace(base, payload=128)]))


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
# Disk cache
# ---------------------------------------------------------------------------


def test_disk_cache_roundtrip_bit_identical(testbed, tmp_path):
    solver = ThroughputSolver()
    flow = Flow(path=CommPath.SNIC2, op=Opcode.WRITE, payload=4 * KB,
                requesters=11)
    cold = solver.solve(Scenario(testbed, [flow]), use_cache=False)

    configure_result_cache(enabled=True, disk_dir=str(tmp_path))
    solver.solve(Scenario(testbed, [flow]))
    assert list(tmp_path.glob("*.json")), "disk layer wrote nothing"

    # Drop the in-memory layer: the next solve must come from disk.
    RESULT_CACHE.clear()
    from_disk = solver.solve(Scenario(testbed, [flow]))
    assert RESULT_CACHE.disk_hits >= 1
    assert_results_identical(cold, from_disk)


# ---------------------------------------------------------------------------
# Sweep runner
# ---------------------------------------------------------------------------


def test_lru_absorb_adds_foreign_counters():
    from repro.core.cache import LRUCache, SolverCache

    cache = LRUCache(name="absorb-test", register=False)
    cache.absorb(hits=3, misses=2, disk_hits=7)   # disk_hits ignored
    assert (cache.hits, cache.misses) == (3, 2)

    solver_cache = SolverCache(name="absorb-disk-test", register=False)
    solver_cache.absorb(hits=1, misses=1, disk_hits=4)
    assert solver_cache.disk_hits == 4


def test_small_batch_stays_serial(testbed):
    # One point is below the batch threshold: the scalar reference
    # solver runs it, and the answer is the cold solve's.
    from repro.core.batch import ENGINE_STATS

    ENGINE_STATS.clear()
    flows = [Flow(path=CommPath.RNIC1, op=Opcode.READ, payload=64)]
    (result,) = SweepRunner(testbed).solve_flows(flows)
    cold = ThroughputSolver().solve(Scenario(testbed, flows),
                                    use_cache=False)
    assert_results_identical(cold, result)
    assert ENGINE_STATS.points == {"scalar": 1}


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
