"""A serving process that raises must fail the run, not vanish.

Nobody waits on the serving stack's own processes (arrivals, workers,
the scheduler and hybrid control loops, splice-back stubs, fabric
deliveries and timeouts).  A plain ``Simulator.process`` that raises
with no waiter drops its exception and the run goes on with
half-updated state; ``Simulator.spawn`` raises it out of ``run``.
"""

import pytest

from repro.sched.runtime import ServingRuntime
from repro.sched.serve import ServeSession, mixed_tenant_workload
from repro.sim.crosscheck import standard_scenarios
from repro.sim.engine import Simulator
from repro.sim.hybrid import HybridController


def _raises(sim):
    yield sim.timeout(5.0)
    raise KeyError("lost key")


def _ticks(sim, n):
    for _ in range(n):
        yield sim.timeout(1.0)


def test_spawned_process_that_raises_fails_the_run():
    sim = Simulator()
    sim.spawn(_ticks(sim, 20))
    sim.spawn(_raises(sim))
    with pytest.raises(KeyError, match="lost key"):
        sim.run()
    assert sim.now == 5.0


def test_process_semantics_are_unchanged():
    sim = Simulator()
    sim.process(_raises(sim))
    sim.run()                         # a plain process still swallows it
    assert sim.now == 5.0


def test_spawn_adds_no_event():
    counts = []
    for start in (Simulator.process, Simulator.spawn):
        sim = Simulator()
        start(sim, _ticks(sim, 7))
        sim.run()
        counts.append(sim.events_executed)
    assert counts[0] == counts[1]


def _bounded(session, horizon_ns):
    """Fail the test, not hang it, if the run outlives ``horizon_ns``:
    a swallowed exception leaves requests unfinished and the control
    loops ticking forever."""
    def overran(_event):
        pytest.fail(f"the run went on past {horizon_ns} ns")
    session.cluster.sim.timeout(horizon_ns).callbacks.append(overran)


@pytest.mark.parametrize("engine", ["event", "hybrid"])
def test_a_raising_finish_fails_the_serving_run(monkeypatch, engine):
    original = ServingRuntime._finish
    calls = []

    def finish(self, *args, **kwargs):
        calls.append(1)
        if len(calls) == 10:
            raise RuntimeError("finish #10")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ServingRuntime, "_finish", finish)
    session = ServeSession(mixed_tenant_workload(duration_ns=100_000.0),
                           engine=engine)
    _bounded(session, 10_000_000.0)
    with pytest.raises(RuntimeError, match="finish #10"):
        session.run_to_completion()


def test_a_raising_splice_stub_fails_the_hybrid_run(monkeypatch):
    def stub(self, t, end, seq, op, arrived, flags):
        yield self.sim.timeout(0.0)
        raise AttributeError("stub")

    monkeypatch.setattr(HybridController, "_stub", stub)
    kwargs = dict(standard_scenarios(duration_ns=900_000.0)["soc-crash"])
    factory = kwargs.pop("factory")
    session = ServeSession(factory(), engine="hybrid", **kwargs)
    _bounded(session, 10_000_000.0)
    with pytest.raises(AttributeError, match="stub"):
        session.run_to_completion()
