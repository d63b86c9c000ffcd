"""Pinned event counts and per-tenant answers of two small serving runs.

The event kernel may get cheaper per event, but it must fire exactly
the same events: a change that adds, drops or reorders one moves
``events_executed`` or a tenant's ``(completed, rejected, lost,
p99_ns)`` here.  The answers are asserted first, so a change that only
moves the count reads as one.  The answers were recorded from the
one-heap kernel before its hot path was inlined; never re-record them
to absorb a drift.  The counts were re-pinned twice, each time with
every answer unchanged: when verbs stopped scheduling unobservable
events (DMA child processes and their bootstraps, uncontended grants
and takes, unawaited store puts), and when serving workers began to
run their verbs inline (no verb process, its bootstrap and completion
hops taken only when another event is due).
"""

import json
from pathlib import Path

from repro.api.schema import ClusterScenario
from repro.cluster import run_cluster
from repro.sched.serve import ServeSession, mixed_tenant_workload

RACK_DOC = Path(__file__).resolve().parents[2] / "examples" / "rack_scenario.json"

SERVE_EVENTS = 7653
SERVE_TENANTS = {
    "alpha": (50, 0, 0, 5120.099999999991),
    "beta": (243, 0, 0, 5314.440000000002),
    "delta": (243, 0, 0, 5559.16),
    "gamma": (17, 5, 0, 73033.49999999997),
}

CLUSTER_EVENTS = [14390, 3157]          # per machine, web00 then web01
CLUSTER_MOVES = 4
CLUSTER_TENANTS = {
    "analytics000": (4, 0, 0, 9465.2802750829),
    "hot0": (482, 5, 0, 31551.119999999384),
    "hot1": (481, 6, 0, 31716.399999999383),
    "hot2": (285, 202, 0, 161556.8557373041),
    "mobile000": (9, 0, 0, 13052.910000000003),
    "mobile001": (12, 0, 0, 13052.910000000003),
    "mobile002": (6, 0, 0, 13064.549723861324),
    "mobile003": (11, 0, 0, 13183.66146714476),
    "mobile004": (10, 0, 0, 13052.910000000003),
    "web000": (24, 0, 0, 14561.414931554173),
    "web001": (16, 0, 0, 12834.086138737926),
    "web002": (21, 0, 0, 14545.599577256056),
    "web003": (20, 0, 0, 12639.11733368229),
    "web004": (19, 0, 0, 14612.183592444504),
    "web005": (24, 0, 0, 12593.15191856278),
    "web006": (16, 0, 0, 12781.503149399003),
}


def _answers(report):
    return {name: (t.completed, t.rejected, t.lost, t.p99_ns)
            for name, t in sorted(report.tenants.items())}


def test_serve_des_event_count_is_pinned():
    """The four-tenant mix for 100 us on the default DES."""
    session = ServeSession(mixed_tenant_workload(100_000.0, seed=0))
    session.run_to_completion()
    report = session.finalize()
    assert _answers(report) == SERVE_TENANTS
    assert session.cluster.sim.events_executed == SERVE_EVENTS


def _two_machine_scenario():
    """The rack document shrunk to two SNIC machines, an eighth of its
    population and 200 us, with three 4 KB WRITE streams pinned to
    ``web00`` so the cluster scheduler moves tenants."""
    raw = json.loads(RACK_DOC.read_text())
    raw["duration_ns"] = 200_000.0
    raw["machines"] = [{"name": "web", "nic": "snic", "count": 2}]
    for population in raw["populations"]:
        population["tenants"] = max(1, population["tenants"] // 8)
    raw["tenants"] = [
        {"name": f"hot{i}", "machine": "web00", "payload": 4096,
         "interval_ns": 410.0, "requests": 487, "read_fraction": 0.0,
         "slo_p99_ns": 150000.0, "workers": 16, "queue_limit": 32}
        for i in range(3)]
    raw["scheduler"].update(patience=1, cooldown_windows=2, min_samples=1)
    return ClusterScenario.from_dict(raw)


def test_two_machine_cluster_event_counts_are_pinned(monkeypatch):
    events = []
    finalize = ServeSession.finalize

    def counting(session):
        events.append(session.cluster.sim.events_executed)
        return finalize(session)

    monkeypatch.setattr(ServeSession, "finalize", counting)
    report = run_cluster(_two_machine_scenario(), jobs=1)
    assert _answers(report.serve) == CLUSTER_TENANTS
    assert len(report.cluster_decisions) == CLUSTER_MOVES
    assert events == CLUSTER_EVENTS
