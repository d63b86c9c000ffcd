"""The vector batch solver against the scalar reference.

The batch engine is a performance layer, not a second model: every
rate it produces must match the scalar water-filling solver (the same
IEEE-754 arithmetic, evaluated elementwise), its demand tensor must
hold exactly the scalar per-flow demand dicts, and it must solve every
point cold, leaving the scalar solver's memo untouched.
"""

import pytest

np = pytest.importorskip("numpy")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.batch import (
    ENGINE_STATS,
    BatchSolver,
    assemble_demand_tensor,
    numpy_available,
    waterfill,
)
from repro.core.paths import CommPath, Opcode
from repro.core.sweeps import StageTimings, SweepRunner
from repro.core.throughput import (
    RESULT_CACHE,
    Flow,
    Scenario,
    ThroughputSolver,
)
from repro.net.topology import paper_testbed
from repro.units import GB, KB, MB

REL_TOL = 1e-9


@pytest.fixture(autouse=True)
def fresh_caches():
    RESULT_CACHE.clear()
    ENGINE_STATS.clear()
    yield
    RESULT_CACHE.clear()
    ENGINE_STATS.clear()


@pytest.fixture(scope="module")
def testbed():
    return paper_testbed()


def rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def assert_equivalent(scalar, vector):
    """Rates and utilization agree to 1e-9 relative.

    Max-min fair rates are unique, so they must match; bottleneck
    *labels* may differ when two resources saturate at the same delta
    (the engines break ties differently), so they are not compared.
    """
    assert len(scalar.rates) == len(vector.rates)
    for a, b in zip(scalar.rates, vector.rates):
        assert rel_close(a, b), (a, b)
    keys = set(scalar.utilization) | set(vector.utilization)
    for key in keys:
        assert rel_close(scalar.utilization.get(key, 0.0),
                         vector.utilization.get(key, 0.0)), key


# ---------------------------------------------------------------------------
# Property: vector == scalar on randomized flow sets
# ---------------------------------------------------------------------------

PAYLOADS = [0, 1, 64, 256, 1024, 4 * KB, 64 * KB, 1 * MB,
            9 * MB, 9 * MB + 1, 10 * MB]


@st.composite
def flow_st(draw):
    payload = draw(st.sampled_from(PAYLOADS))
    range_bytes = max(float(max(1, payload)),
                      draw(st.sampled_from([512.0, float(1 << 16),
                                            float(32 * MB), 10.0 * GB])))
    return Flow(
        path=draw(st.sampled_from(list(CommPath))),
        op=draw(st.sampled_from(list(Opcode))),
        payload=payload,
        requesters=draw(st.integers(min_value=1, max_value=50)),
        range_bytes=range_bytes,
        doorbell_batch=draw(st.sampled_from([1, 4, 16])),
        weight=draw(st.sampled_from([0.2, 1.0, 1.5])),
        rate_cap=draw(st.sampled_from([None, 1e-3, 5e-2])),
    )


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(flow_st(), min_size=1, max_size=3),
                min_size=1, max_size=5))
def test_vector_matches_scalar_property(flow_sets):
    testbed = paper_testbed()
    solver = ThroughputSolver()
    scalar = [solver.solve(Scenario(testbed, flows))
              for flows in flow_sets]
    vector = BatchSolver().solve(testbed, flow_sets)
    for s, v in zip(scalar, vector):
        assert_equivalent(s, v)


def test_vector_bit_identical_on_payload_grid(testbed):
    # On the Fig-4 grid the engines agree not just to tolerance but to
    # the bit: identical expressions, identical evaluation order.
    grid = [[Flow(path=path, op=op, payload=payload, requesters=11)]
            for path in CommPath for op in Opcode for payload in PAYLOADS]
    solver = ThroughputSolver()
    scalar = [solver.solve(Scenario(testbed, flows))
              for flows in grid]
    vector = BatchSolver().solve(testbed, grid)
    for s, v in zip(scalar, vector):
        assert s.rates == v.rates
        assert s.utilization == v.utilization


# ---------------------------------------------------------------------------
# Demand tensor structure
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.lists(flow_st(), min_size=1, max_size=3))
@example([
    Flow(path=CommPath.SNIC1, op=Opcode.READ, payload=4 * KB,
         requesters=11),
    Flow(path=CommPath.SNIC3_H2S, op=Opcode.WRITE, payload=64,
         requesters=24, weight=0.2),
    Flow(path=CommPath.RNIC1, op=Opcode.SEND, payload=256,
         doorbell_batch=16),
])
def test_demand_tensor_matches_scalar_dicts(testbed, flows):
    # Both backends evaluate one builder, so every entry is equal, not
    # merely close; absent resources are exact zeros in the tensor.
    scenario = Scenario(testbed, flows)
    tensor = assemble_demand_tensor(testbed, [scenario])
    names = tensor.resources
    for i, demand in enumerate(scenario.demands):
        for name, value in demand.items():
            assert name in names
            assert tensor.demand[0, i, names.index(name)] == value
        for j, name in enumerate(names):
            if name not in demand:
                assert tensor.demand[0, i, j] == 0.0


def test_tensor_slots_follow_flow_order(testbed):
    flows = [Flow(path=CommPath.SNIC1, op=Opcode.READ, payload=64),
             Flow(path=CommPath.SNIC1, op=Opcode.WRITE, payload=64)]
    tensor = assemble_demand_tensor(testbed, [Scenario(testbed, flows)])
    assert tensor.valid.shape == (1, 2)
    assert tensor.valid.all()
    assert (tensor.weights == 1.0).all()


def test_waterfill_shapes(testbed):
    flow_sets = [[Flow(path=CommPath.SNIC1, op=Opcode.READ, payload=64)],
                 [Flow(path=CommPath.SNIC2, op=Opcode.READ, payload=64),
                  Flow(path=CommPath.SNIC2, op=Opcode.WRITE, payload=64)]]
    tensor = assemble_demand_tensor(
        testbed, [Scenario(testbed, flows) for flows in flow_sets])
    rates, bottlenecks, usage = waterfill(tensor)
    assert rates.shape == tensor.valid.shape
    assert bottlenecks.shape == tensor.valid.shape
    assert usage.shape == (2, len(tensor.resources))
    assert (rates[tensor.valid] > 0).all()
    assert bottlenecks[0, 1] == -1          # no second flow at point 0
    assert (bottlenecks[tensor.valid] >= 0).all()


def test_unbounded_flow_rejected_like_scalar(testbed):
    # A flow whose demand vector is all-zero cannot be rate-bounded;
    # the vector engine mirrors the scalar solver's refusal.
    flows = [Flow(path=CommPath.SNIC1, op=Opcode.READ, payload=64)]
    tensor = assemble_demand_tensor(testbed, [Scenario(testbed, flows)])
    tensor.demand[:] = 0.0
    with pytest.raises(ValueError, match="no demand"):
        BatchSolver._check_bounded(np, tensor)


# ---------------------------------------------------------------------------
# Cache interop
# ---------------------------------------------------------------------------


def _grid(n=6):
    return [[Flow(path=CommPath.SNIC1, op=Opcode.READ, payload=64 * (i + 1),
                  requesters=11)] for i in range(n)]


def test_vector_sweep_leaves_the_memo_alone(testbed):
    # A sweep grid rarely repeats a point, so the vector path neither
    # consults nor fills the scalar solver's memo, and solves every
    # point itself, even ones the scalar solver has seen.
    grid = _grid()
    solver = ThroughputSolver()
    scalar = [solver.solve(Scenario(testbed, flows)) for flows in grid[:3]]
    lookups = RESULT_CACHE.hits + RESULT_CACHE.misses
    ENGINE_STATS.clear()
    vector = BatchSolver().solve(testbed, grid)
    SweepRunner(testbed).solve_flows([flows[0] for flows in grid])
    assert RESULT_CACHE.hits + RESULT_CACHE.misses == lookups
    assert ENGINE_STATS.points == {"vector": 2 * len(grid)}
    for s, v in zip(scalar, vector):
        assert s is not v
        assert s.rates == v.rates


# ---------------------------------------------------------------------------
# Engine selection and plumbing
# ---------------------------------------------------------------------------


def test_numpy_available_true_here():
    assert numpy_available()


def test_solve_batch_engines_agree(testbed):
    grid = _grid()
    solver = ThroughputSolver()
    scalar = [solver.solve(Scenario(testbed, flows))
              for flows in grid]
    vector = BatchSolver().solve(testbed, grid)
    for s, v in zip(scalar, vector):
        assert s.rates == v.rates


def test_runner_engine_selection(testbed):
    # The runner picks the backend itself: a sweep of two or more
    # points runs as one tensor, a single point on the scalar solver.
    runner = SweepRunner(testbed)
    runner.solve_flows([flows[0] for flows in _grid(10)])
    assert ENGINE_STATS.points == {"vector": 10}
    runner.solve_flows([Flow(path=CommPath.SNIC2, op=Opcode.READ,
                             payload=64)])
    assert ENGINE_STATS.points == {"vector": 10, "scalar": 1}
    Scenario.solve_batch(testbed, _grid(3)[:1])
    assert ENGINE_STATS.points["scalar"] == 2


def test_runner_vector_matches_scalar_solve_flows(testbed):
    flows = [Flow(path=CommPath.SNIC2, op=Opcode.WRITE, payload=p,
                  requesters=11) for p in (64, 1024, 16 * KB)]
    vector = SweepRunner(testbed).solve_flows(flows)
    assert ENGINE_STATS.points == {"vector": 3}
    solver = ThroughputSolver()
    for flow, v in zip(flows, vector):
        s = solver.solve(Scenario(testbed, [flow]))
        assert s.rates == v.rates
        assert s.bottlenecks == v.bottlenecks


def test_engine_stats_record_both_backends(testbed):
    flows = [Flow(path=CommPath.SNIC1, op=Opcode.READ, payload=p)
             for p in (64, 128, 256)]
    SweepRunner(testbed).solve_flows(flows)
    runner = SweepRunner(testbed)
    for flow in flows:
        runner.solve_flows([flow])
    counters = ENGINE_STATS.counters()
    assert counters["engine.vector.points"] == 3
    assert counters["engine.scalar.points"] == 3
    assert counters["engine.vector.batches"] == 1
    assert counters["engine.scalar.batches"] == 3


def test_stage_timings_collected(testbed):
    timings = StageTimings()
    runner = SweepRunner(testbed, timings=timings)
    flows = [Flow(path=CommPath.SNIC1, op=Opcode.READ, payload=p)
             for p in (64, 256)]
    runner.solve_flows(flows)
    assert timings.seconds["demand_assembly"] > 0
    assert timings.seconds["solve"] > 0
    report = timings.report()
    assert "demand_assembly" in report and "total" in report
