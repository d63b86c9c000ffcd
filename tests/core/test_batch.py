"""The vector batch solver against the scalar reference.

The batch engine is a performance layer, not a second model: every
point of a sweep grid it solves must get the scalar water-filling
solver's rate bit for bit (the same IEEE-754 arithmetic, evaluated
elementwise), the demand builder's columns must hold exactly the scalar
per-flow demand dicts, a point's rate must not depend on what else
shares its grid, a grid must refuse every point a :class:`Flow` would
refuse, with the same message, and the solver must solve every point
cold, leaving the scalar solver's memo untouched.

The batch solver answers rates only; bottleneck names and utilization
are the scalar solver's (``tests/core/test_throughput.py``).
"""

import itertools
import random
from types import SimpleNamespace

import pytest

np = pytest.importorskip("numpy")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arrays import namespace_of
from repro.core.batch import ENGINE_STATS, BatchSolver, numpy_available
from repro.core.demand import DemandModel, demand_model
from repro.core.harness import ThroughputBench
from repro.core.paths import CommPath, Opcode
from repro.core.sweeps import StageTimings, SweepGrid, SweepRunner
from repro.core.throughput import (
    RESULT_CACHE,
    Flow,
    Scenario,
    ThroughputSolver,
)
from repro.net.topology import paper_testbed
from repro.units import GB, KB, MB, to_gbps


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


def scalar_rates(testbed, grid):
    """Each point of ``grid`` solved alone by the scalar reference."""
    solver = ThroughputSolver()
    return [solver.solve(Scenario(testbed, [flow])).rates[0]
            for flow in grid.flows()]


# ---------------------------------------------------------------------------
# Property: vector == scalar on randomized sweep grids
# ---------------------------------------------------------------------------

PAYLOADS = [0, 1, 64, 256, 1024, 4 * KB, 64 * KB, 1 * MB,
            9 * MB, 9 * MB + 1, 10 * MB]
RANGES = [512.0, float(1 << 16), float(32 * MB), 10.0 * GB]
REQUESTERS = st.integers(min_value=1, max_value=50)
DOORBELLS = [1, 4, 16]


@st.composite
def grid_st(draw):
    """A grid sweeping one column; the range always covers the payload."""
    swept = draw(st.sampled_from(["payload", "requesters", "range_bytes",
                                  "doorbell_batch"]))
    n = draw(st.integers(min_value=1, max_value=8))
    fields = {
        "payload": draw(st.sampled_from(PAYLOADS)),
        "requesters": draw(REQUESTERS),
        "doorbell_batch": draw(st.sampled_from(DOORBELLS)),
    }
    if swept == "payload":
        fields["payload"] = draw(st.lists(st.sampled_from(PAYLOADS),
                                          min_size=n, max_size=n))
    elif swept == "requesters":
        fields["requesters"] = draw(st.lists(REQUESTERS, min_size=n,
                                             max_size=n))
    elif swept == "doorbell_batch":
        fields["doorbell_batch"] = draw(st.lists(
            st.sampled_from(DOORBELLS), min_size=n, max_size=n))
    largest = max(1, max(fields["payload"]) if swept == "payload"
                  else fields["payload"])
    if swept == "range_bytes":
        fields["range_bytes"] = [max(r, float(largest)) for r in draw(
            st.lists(st.sampled_from(RANGES), min_size=n, max_size=n))]
    else:
        fields["range_bytes"] = max(draw(st.sampled_from(RANGES)),
                                    float(largest))
    return SweepGrid(draw(st.sampled_from(list(CommPath))),
                     draw(st.sampled_from(list(Opcode))), **fields)


@settings(max_examples=100, deadline=None)
@given(grid_st())
def test_vector_matches_scalar_property(grid):
    testbed = paper_testbed()
    assert BatchSolver().solve(testbed, grid) == scalar_rates(testbed, grid)


def test_vector_bit_identical_on_payload_grid(testbed):
    # The engines agree not just to tolerance but to the bit: identical
    # expressions, identical evaluation order, across zero payloads,
    # in-cache and 10 GB ranges, 1-50 requesters and doorbell batches,
    # with each of the four fields swept in turn.
    for path, op in itertools.product(CommPath, Opcode):
        grids = [SweepGrid(path, op, PAYLOADS, requesters=requesters,
                           range_bytes=10.0 * GB)
                 for requesters in (1, 11, 50)]
        grids += [SweepGrid(path, op, payload, range_bytes=[
                      max(r, float(max(1, payload))) for r in RANGES])
                  for payload in (0, 64, 4 * KB)]
        grids += [SweepGrid(path, op, 64, requesters=[1, 5, 11, 24, 50]),
                  SweepGrid(path, op, 64, requesters=24,
                            doorbell_batch=[1, 2, 8, 16, 64])]
        for grid in grids:
            assert BatchSolver().solve(testbed, grid) == \
                scalar_rates(testbed, grid)


def test_point_rate_does_not_depend_on_its_grid(testbed):
    # Shuffling a grid shuffles its rates, and every point gets the very
    # rate a one-point grid of it gets alone.
    payloads = [0, 64, 4 * KB, 1 * MB, 9 * MB + 1, 256, 16 * KB]
    random.Random(7).shuffle(payloads)
    grid = SweepGrid(CommPath.SNIC2, Opcode.READ, payloads)
    alone = [BatchSolver().solve(testbed, SweepGrid(CommPath.SNIC2,
                                                    Opcode.READ, [p]))[0]
             for p in payloads]
    assert BatchSolver().solve(testbed, grid) == alone


# ---------------------------------------------------------------------------
# Every ThroughputBench sweep: grid values == scalar-solver values
# ---------------------------------------------------------------------------

SWEEP_PAYLOADS = [0, 64, 256, 4 * KB, 64 * KB, 1 * MB, 16 * MB]


@pytest.mark.parametrize("path", list(CommPath))
@pytest.mark.parametrize("op", list(Opcode))
def test_every_sweep_kind_matches_scalar(testbed, path, op):
    bench = ThroughputBench(testbed)
    packets = bench.packets

    def rate(**fields):
        flow = Flow(path=path, op=op, **fields)
        return ThroughputSolver().solve(Scenario(testbed, [flow])).rates[0]

    assert bench.payload_sweep(path, op, SWEEP_PAYLOADS).values() == [
        rate(payload=p) * 1e3 for p in SWEEP_PAYLOADS]
    assert bench.payload_sweep(path, op, SWEEP_PAYLOADS, requesters=3,
                               metric="gbps").values() == [
        to_gbps(rate(payload=p, requesters=3) * p) for p in SWEEP_PAYLOADS]
    for scope in ("nic", "fabric"):
        want = []
        for p in SWEEP_PAYLOADS:
            counts = packets.counts(path, op, p)
            tlps = (counts.total if scope == "fabric"
                    else counts.pcie0_total if path is CommPath.RNIC1
                    else counts.pcie1_total)
            want.append(rate(payload=p) * tlps * 1e3)
        assert bench.pps_sweep(path, op, SWEEP_PAYLOADS,
                               scope=scope).values() == want
    ranges = [1536.0, 48 * KB, 3 * MB, 10.0 * GB]
    assert bench.range_sweep(path, op, 64, ranges).values() == [
        rate(payload=64, range_bytes=r) * 1e3 for r in ranges]
    machines = [1, 2, 6, 11, 16]
    assert bench.requester_sweep(path, op, 0, machines).values() == [
        rate(payload=0, requesters=m) * 1e3 for m in machines]
    batches = [1, 8, 32, 64]
    assert bench.doorbell_sweep(path, op, 0, batches).values() == [
        rate(payload=0, requesters=24, doorbell_batch=b) * 1e3
        for b in batches]
    assert ENGINE_STATS.points == {"vector": 4 * len(SWEEP_PAYLOADS)
                                   + len(ranges) + len(machines)
                                   + len(batches)}


# ---------------------------------------------------------------------------
# Grid validation: Flow's rules and messages
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fields", [
    {"payload": -1},
    {"requesters": 0},
    {"payload": 4 * KB, "range_bytes": 1 * KB},
    {"payload": 0, "range_bytes": 0.5},
    {"doorbell_batch": 0},
], ids=["negative-payload", "no-requester", "range-below-payload",
        "range-below-one-byte", "no-doorbell"])
@pytest.mark.parametrize("swept", ["payload", "requesters", "range_bytes",
                                   "doorbell_batch"])
def test_invalid_point_raises_flows_message(fields, swept):
    point = {"payload": 64, "requesters": 11, "range_bytes": 10 * GB,
             "doorbell_batch": 1, **fields}
    with pytest.raises(ValueError) as flow_error:
        Flow(path=CommPath.SNIC1, op=Opcode.READ, **point)
    # The bad point sits in the middle of the swept column.
    good = {"payload": 64, "requesters": 11, "range_bytes": 10 * GB,
            "doorbell_batch": 1}
    point[swept] = [good[swept], point[swept], good[swept]]
    with pytest.raises(ValueError) as grid_error:
        SweepGrid(CommPath.SNIC1, Opcode.READ, **point)
    assert str(grid_error.value) == str(flow_error.value)


def test_grid_sweeps_exactly_one_column():
    with pytest.raises(ValueError, match="got none"):
        SweepGrid(CommPath.SNIC1, Opcode.READ, 64)
    with pytest.raises(ValueError, match="got payload, requesters"):
        SweepGrid(CommPath.SNIC1, Opcode.READ, [64, 128], requesters=[1, 2])
    grid = SweepGrid(CommPath.SNIC1, Opcode.READ, 64, range_bytes=(1e3, 1e6))
    assert grid.swept == "range_bytes" and len(grid) == 2
    assert grid.flows() == [
        Flow(path=CommPath.SNIC1, op=Opcode.READ, payload=64,
             range_bytes=r) for r in (1e3, 1e6)]


# ---------------------------------------------------------------------------
# Demand columns
# ---------------------------------------------------------------------------


def flow_columns(flow):
    """One flow's fields as length-1 float64 columns."""
    def column(value):
        return np.array([value], dtype=np.float64)

    return SimpleNamespace(
        payload=column(flow.payload), requesters=column(flow.requesters),
        range_bytes=column(flow.range_bytes),
        doorbell_batch=column(flow.doorbell_batch),
        rate_cap=None if flow.rate_cap is None else column(flow.rate_cap))


@st.composite
def flow_st(draw):
    payload = draw(st.sampled_from(PAYLOADS))
    range_bytes = max(float(max(1, payload)), draw(st.sampled_from(RANGES)))
    return Flow(
        path=draw(st.sampled_from(list(CommPath))),
        op=draw(st.sampled_from(list(Opcode))),
        payload=payload,
        requesters=draw(REQUESTERS),
        range_bytes=range_bytes,
        doorbell_batch=draw(st.sampled_from(DOORBELLS)),
        weight=draw(st.sampled_from([0.2, 1.0, 1.5])),
        rate_cap=draw(st.sampled_from([None, 1e-3, 5e-2])),
    )


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
        cols = model.build(flow.path, flow.op, i, duplex,
                           flow_columns(flow))
        for name, value in demand.items():
            assert np.broadcast_to(cols[name], (1,))[0] == value
        for name in cols.keys() - demand.keys():
            assert np.broadcast_to(cols[name], (1,))[0] == 0.0


def test_unbounded_flow_rejected_like_scalar(testbed, monkeypatch):
    # A point whose demand vector is all-zero cannot be rate-bounded;
    # the vector engine mirrors the scalar solver's refusal and names
    # the point as Flow.name does.
    def probe_only(self, path, op, idx, duplex, flow):
        xp = namespace_of(flow.payload)
        terms = xp.terms()
        terms.add("probe", xp.where(flow.payload > 0, 1.0, 0.0))
        return terms

    grid = SweepGrid(CommPath.SNIC1, Opcode.READ, [64, 0, 128])
    monkeypatch.setattr(DemandModel, "build", probe_only)
    with pytest.raises(ValueError, match="'SNIC ① read 0B' has no demand"):
        BatchSolver().solve(testbed, grid)
    with pytest.raises(ValueError, match="'SNIC ① read 0B' has no demand"):
        ThroughputSolver().solve(Scenario(testbed, grid.flows()[1:2]))


# ---------------------------------------------------------------------------
# Cache interop
# ---------------------------------------------------------------------------


def _grid(n=6):
    return SweepGrid(CommPath.SNIC1, Opcode.READ,
                     [64 * (i + 1) for i in range(n)])


def test_vector_sweep_leaves_the_memo_alone(testbed):
    # A sweep grid rarely repeats a point, so the vector path neither
    # consults nor fills the scalar solver's memo, and solves every
    # point itself, even ones the scalar solver has seen.
    grid = _grid()
    scalar = scalar_rates(testbed, _grid(3))
    lookups = RESULT_CACHE.hits + RESULT_CACHE.misses
    ENGINE_STATS.clear()
    vector = BatchSolver().solve(testbed, grid)
    SweepRunner(testbed).solve_flows(grid)
    assert RESULT_CACHE.hits + RESULT_CACHE.misses == lookups
    assert ENGINE_STATS.points == {"vector": 2 * len(grid)}
    assert vector[:3] == scalar


# ---------------------------------------------------------------------------
# Engine selection and plumbing
# ---------------------------------------------------------------------------


def test_numpy_available_true_here():
    assert numpy_available()


def test_solve_batch_engines_agree(testbed):
    grid = _grid()
    assert BatchSolver().solve(testbed, grid) == scalar_rates(testbed, grid)


def test_runner_engine_selection(testbed):
    # The runner picks the backend itself: a grid of two or more points
    # runs in closed form, a one-point grid on the scalar solver (and
    # its memo).
    runner = SweepRunner(testbed)
    runner.solve_flows(_grid(10))
    assert ENGINE_STATS.points == {"vector": 10}
    (rate,) = runner.solve_flows(SweepGrid(CommPath.SNIC2, Opcode.READ,
                                           [64]))
    assert ENGINE_STATS.points == {"vector": 10, "scalar": 1}
    assert RESULT_CACHE.misses == 1
    runner.solve_flows(SweepGrid(CommPath.SNIC2, Opcode.READ, [64]))
    assert ENGINE_STATS.points == {"vector": 10, "scalar": 2}
    assert RESULT_CACHE.hits == 1
    assert runner.solve_flows(SweepGrid(CommPath.SNIC2, Opcode.READ,
                                        [])) == []
    assert rate == BatchSolver().solve(
        testbed, SweepGrid(CommPath.SNIC2, Opcode.READ, [64]))[0]


def test_runner_vector_matches_scalar_solve_flows(testbed):
    grid = SweepGrid(CommPath.SNIC2, Opcode.WRITE, [64, 1024, 16 * KB])
    vector = SweepRunner(testbed).solve_flows(grid)
    assert ENGINE_STATS.points == {"vector": 3}
    assert vector == scalar_rates(testbed, grid)


def test_engine_stats_record_both_backends(testbed):
    payloads = (64, 128, 256)
    SweepRunner(testbed).solve_flows(
        SweepGrid(CommPath.SNIC1, Opcode.READ, payloads))
    runner = SweepRunner(testbed)
    for payload in payloads:
        runner.solve_flows(SweepGrid(CommPath.SNIC1, Opcode.READ, [payload]))
    counters = ENGINE_STATS.counters()
    assert counters["engine.vector.points"] == 3
    assert counters["engine.scalar.points"] == 3
    assert counters["engine.vector.batches"] == 1
    assert counters["engine.scalar.batches"] == 3


def test_stage_timings_collected(testbed):
    timings = StageTimings()
    runner = SweepRunner(testbed, timings=timings)
    runner.solve_flows(SweepGrid(CommPath.SNIC1, Opcode.READ, [64, 256]))
    assert timings.seconds["demand_assembly"] > 0
    assert timings.seconds["solve"] > 0
    report = timings.report()
    assert "demand_assembly" in report and "total" in report
