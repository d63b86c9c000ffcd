"""Cluster scheduling: adaptive placement + migration vs static round-robin.

Runs one rack scenario twice through :func:`repro.cluster.run_cluster`:

* **adaptive** — bin-packed placement against the Fig-11 concurrent
  budgets, with the :class:`~repro.cluster.ClusterScheduler` free to
  offload SLO-breaching machines over the LB fabric mid-run;
* **static** — budget-blind round-robin placement, no migration (the
  classic "spread by count, not by load" baseline).

The workload is adversarial for round-robin by construction: three
~80 Gbps write streams interleaved with light tenants, in an order
that round-robin stacks onto one machine while first-fit-decreasing
spreads them one per machine.  The stacked machine oversubscribes its
fabric and melts, so the static rack loses aggregate SLO-goodput —
the headline the cluster layer is asserted to win.
"""

import dataclasses

import pytest

from repro.api.schema import ClusterScenario, MachineDoc, SchedulerDoc, TenantDoc
from repro.cluster import run_cluster
from repro.core.report import format_table
from repro.units import GB, MB

from conftest import emit

DURATION_NS = 300_000.0

_HEAVY = dict(payload=4096, interval_ns=410.0,
              requests=int(DURATION_NS / 410.0), read_fraction=0.0,
              slo_p99_ns=150_000.0, working_set_bytes=32 * GB,
              workers=16, queue_limit=32)
_LIGHT = dict(payload=512, interval_ns=4_000.0,
              requests=int(DURATION_NS / 4_000.0), read_fraction=1.0,
              slo_p99_ns=60_000.0, working_set_bytes=4 * MB)


def scenario() -> ClusterScenario:
    # Tenant order is the round-robin ring order: every third tenant is
    # heavy, and with three machines the cursor lands all three heavies
    # on the same one.  The bin-packer sorts by offered load first and
    # never does that.
    tenants = (
        TenantDoc(name="heavy0", **_HEAVY),
        TenantDoc(name="light0", **_LIGHT),
        TenantDoc(name="light1", **_LIGHT),
        TenantDoc(name="heavy1", **_HEAVY),
        TenantDoc(name="light2", **_LIGHT),
        TenantDoc(name="light3", **_LIGHT),
        TenantDoc(name="heavy2", **_HEAVY),
        TenantDoc(name="light4", **_LIGHT),
        TenantDoc(name="light5", **_LIGHT),
    )
    return ClusterScenario(
        name="rr-adversarial", duration_ns=DURATION_NS,
        machines=(MachineDoc(name="rack", count=3),),
        tenants=tenants,
        scheduler=SchedulerDoc(patience=1, cooldown_windows=2,
                               min_samples=1))


def generate(_testbed):
    doc = scenario()
    return {
        "adaptive": run_cluster(doc, jobs=1),
        "static": run_cluster(dataclasses.replace(
            doc, scheduler=dataclasses.replace(
                doc.scheduler, placement="round-robin", migrate=False)),
            jobs=1),
    }


def report(results) -> str:
    rows = []
    for mode, rep in results.items():
        heavies = {n: m for n, m in rep.placement.items()
                   if n.startswith("heavy")}
        rows.append([
            mode,
            len(set(heavies.values())),
            f"{rep.total_slo_goodput_gbps:.1f}",
            f"{100 * rep.slo_attainment:.1f}%",
            sum(t.rejected for t in rep.tenants.values()),
            len(rep.cluster_decisions),
        ])
    return format_table(
        ["mode", "machines w/ heavies", "slo-gbps", "slo-att", "rej",
         "moves"],
        rows, title="Adaptive cluster scheduling vs static round-robin")


def test_adaptive_placement_beats_static_round_robin(benchmark, testbed):
    results = benchmark(generate, testbed)
    emit("\n" + report(results))
    adaptive, static = results["adaptive"], results["static"]

    # Round-robin really did stack the heavy streams on one machine
    # while the bin-packer spread them.
    static_heavies = {static.placement[f"heavy{i}"] for i in range(3)}
    adaptive_heavies = {adaptive.placement[f"heavy{i}"] for i in range(3)}
    assert len(static_heavies) == 1
    assert len(adaptive_heavies) == 3

    # The headline: adaptive placement wins aggregate SLO-goodput.
    assert (adaptive.total_slo_goodput_gbps
            > 1.1 * static.total_slo_goodput_gbps)
    assert adaptive.slo_attainment >= static.slo_attainment
    # The stacked machine visibly sheds load under round-robin
    # (admission control rejects what three stacked 80 Gbps streams
    # cannot carry); the spread rack serves everything within SLO.
    assert sum(t.rejected for t in static.tenants.values()) > 0
    assert sum(t.rejected for t in adaptive.tenants.values()) == 0
    for t in adaptive.tenants.values():
        assert t.slo_attainment == pytest.approx(1.0, abs=0.02)


if __name__ == "__main__":
    from repro.net.topology import paper_testbed

    results = generate(paper_testbed())
    print(report(results))
