"""The vector batch solver against the scalar reference.

The batch engine is a performance layer, not a second model: every
one-flow point it solves must match the scalar water-filling solver
bit for bit (the same IEEE-754 arithmetic, evaluated elementwise), its
demand columns must hold exactly the scalar per-flow demand dicts, a
point's answer must not depend on what else shares its batch, and it
must solve every point cold, leaving the scalar solver's memo
untouched.  Multi-flow points never reach it: ``Scenario.solve_batch``
sends them to the scalar solver.
"""

import itertools
import random

import pytest

np = pytest.importorskip("numpy")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arrays import namespace_of
from repro.core.batch import (
    ENGINE_STATS,
    BatchSolver,
    _FlowColumns,
    numpy_available,
)
from repro.core.demand import DemandModel, demand_model
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


def as_tuple(result):
    return (result.flows, result.rates, result.bottlenecks,
            list(result.utilization.items()))


def assert_matches_scalar(testbed, flows, vector):
    """Every result equals the scalar solver's, bit for bit: rates,
    bottleneck names and utilization items in order (both break ties
    by the demand builder's key order)."""
    solver = ThroughputSolver()
    assert len(vector) == len(flows)
    for flow, v in zip(flows, vector):
        s = solver.solve(Scenario(testbed, [flow]))
        assert as_tuple(s) == as_tuple(v)


# ---------------------------------------------------------------------------
# Property: vector == scalar on randomized one-flow points
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
@given(st.lists(flow_st(), min_size=1, max_size=8))
def test_vector_matches_scalar_property(flows):
    testbed = paper_testbed()
    vector = BatchSolver().solve(testbed, [[flow] for flow in flows])
    assert_matches_scalar(testbed, flows, vector)


def test_vector_bit_identical_on_payload_grid(testbed):
    # The engines agree not just to tolerance but to the bit: identical
    # expressions, identical evaluation order, across weights, rate
    # caps, zero payloads, in-cache and 10 GB ranges and 1-50 requesters.
    flows = [Flow(path=path, op=op, payload=payload, requesters=requesters,
                  range_bytes=max(range_bytes, float(max(1, payload))),
                  weight=weight, rate_cap=cap)
             for path, op, payload, weight, cap, range_bytes, requesters
             in itertools.product(CommPath, Opcode, PAYLOADS,
                                  (0.2, 1.0, 1.5), (None, 5e-2),
                                  (64.0 * KB, 10.0 * GB), (1, 11, 50))]
    vector = BatchSolver().solve(testbed, [[flow] for flow in flows])
    assert_matches_scalar(testbed, flows, vector)


def test_mixed_batch_matches_group_at_a_time(testbed):
    # One shuffled batch over several (path, op, cap) groups gives every
    # point the very answer its group gives alone: rates, bottlenecks
    # and utilization items in order.
    groups = [[Flow(path=path, op=op, payload=payload, rate_cap=cap)
               for payload in (0, 64, 4 * KB, 1 * MB)]
              for path, op, cap in ((CommPath.SNIC1, Opcode.READ, None),
                                    (CommPath.SNIC3_H2S, Opcode.WRITE, None),
                                    (CommPath.RNIC1, Opcode.SEND, 5e-2),
                                    (CommPath.SNIC2, Opcode.READ, 1e-3))]
    alone = {}
    for group in groups:
        for flow, result in zip(group, BatchSolver().solve(
                testbed, [[flow] for flow in group])):
            alone[flow] = as_tuple(result)
    mixed = [flow for group in groups for flow in group]
    random.Random(7).shuffle(mixed)
    results = BatchSolver().solve(testbed, [[flow] for flow in mixed])
    assert [as_tuple(result) for result in results] == \
        [alone[flow] for flow in mixed]


def test_batch_solver_takes_one_flow_per_point(testbed):
    flows = [Flow(path=CommPath.SNIC1, op=Opcode.READ, payload=64),
             Flow(path=CommPath.SNIC1, op=Opcode.WRITE, payload=64)]
    with pytest.raises(ValueError, match="one flow per point"):
        BatchSolver().solve(testbed, [flows[:1], flows])


# ---------------------------------------------------------------------------
# Demand columns
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
def test_demand_columns_match_scalar_dicts(testbed, flows):
    # Both backends evaluate one builder, so every entry is equal, not
    # merely close; a resource a flow does not use is an exact zero.
    scenario = Scenario(testbed, flows)
    duplex = scenario._network_duplex_loaded()
    model = demand_model(testbed)
    for i, (flow, demand) in enumerate(zip(flows, scenario.demands)):
        columns = _FlowColumns(np, [flow], flow.rate_cap is not None)
        cols = model.build(flow.path, flow.op, i, duplex, columns)
        for name, value in demand.items():
            assert np.broadcast_to(cols[name], (1,))[0] == value
        for name in cols.keys() - demand.keys():
            assert np.broadcast_to(cols[name], (1,))[0] == 0.0


def test_unbounded_flow_rejected_like_scalar(testbed, monkeypatch):
    # A flow whose demand vector is all-zero cannot be rate-bounded;
    # the vector engine mirrors the scalar solver's refusal.
    def probe_only(self, path, op, idx, duplex, flow):
        xp = namespace_of(flow.payload)
        terms = xp.terms()
        terms.add("probe", xp.where(flow.payload > 0, 1.0, 0.0))
        return terms

    flows = [Flow(path=CommPath.SNIC1, op=Opcode.READ, payload=p)
             for p in (64, 0)]
    monkeypatch.setattr(DemandModel, "build", probe_only)
    with pytest.raises(ValueError, match="read 0B' has no demand"):
        BatchSolver().solve(testbed, [[flow] for flow in flows])
    with pytest.raises(ValueError, match="read 0B' has no demand"):
        ThroughputSolver().solve(Scenario(testbed, flows[1:]))


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
    # one-flow points runs in closed form, a single point, or a batch
    # holding any multi-flow point, on the scalar solver.
    runner = SweepRunner(testbed)
    runner.solve_flows([flows[0] for flows in _grid(10)])
    assert ENGINE_STATS.points == {"vector": 10}
    runner.solve_flows([Flow(path=CommPath.SNIC2, op=Opcode.READ,
                             payload=64)])
    assert ENGINE_STATS.points == {"vector": 10, "scalar": 1}
    Scenario.solve_batch(testbed, _grid(3)[:1])
    assert ENGINE_STATS.points["scalar"] == 2
    pair = [Flow(path=CommPath.SNIC1, op=op, payload=4 * KB)
            for op in (Opcode.READ, Opcode.WRITE)]
    results = Scenario.solve_batch(testbed, [pair[:1], pair])
    assert ENGINE_STATS.points == {"vector": 10, "scalar": 4}
    RESULT_CACHE.clear()
    solver = ThroughputSolver()
    for got, flows in zip(results, [pair[:1], pair]):
        want = solver.solve(Scenario(testbed, flows))
        assert got.rates == want.rates
        assert got.bottlenecks == want.bottlenecks


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
