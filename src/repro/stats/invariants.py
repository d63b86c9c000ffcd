"""Machine-checked invariants over serving reports.

Every quantity the toolkit reports is tied to others by operational
laws that hold regardless of workload, seed, engine or fault plan.
This module asserts them over a finished :class:`~repro.sched.serve.
ServeReport` (duck-typed — anything with ``tenants``, ``windows``,
``conservation``, ``path_gbps`` and ``elapsed_ns`` works, including the
merged report of a sharded run):

* **flow-conservation** — every arrival is accounted for exactly once:
  ``arrivals = completed + rejected + lost + in_flight``, and nothing
  is in flight once the run has drained.  This generalizes the sharded
  supervisor's per-window :class:`~repro.sim.supervise.
  ConservationWatchdog` audit to unsharded runs, using the same
  heartbeat terms.
* **littles-law** — time-average occupancy equals arrival rate times
  mean sojourn time, ``L = λ·W``.  ``L`` and ``W`` come from the
  window archive's latency sums while ``λ`` comes from the tracker's
  completion *counter*, so the identity only closes when the counter
  agrees with the archived events — a tampered or drifted counter
  breaks it.
* **utilization** — delivered bandwidth cannot exceed capacity: on
  each machine the network paths (①/②) together stay within its
  200 Gbps fabric, and each PCIe-only path-③ direction within its
  256 Gbps root complex.  A merged multi-machine report
  (``machine_path_gbps``) is checked machine by machine, plus the
  rack's network total against the summed fabric capacity.
* **cluster-flow** — sharded/rack runs only: every message put onto
  the cross-shard fabric (``xshard.sent`` plus the cluster scheduler's
  ``clustersched.ctl_sent`` directives) is delivered to some shard or
  accounted dropped by the fault injector, ``sent + injected =
  delivered + dropped``.  Skipped when the report carries no fabric
  counters.
* **sanity** — per-tenant report algebra: SLO-goodput ≤ goodput,
  p50 ≤ p99, attainment in [0, 1], counters non-negative.

``check_report`` returns one :class:`InvariantResult` per (invariant,
subject) pair; ``repro validate`` turns each into a report row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

__all__ = ["InvariantResult", "check_report", "violations"]

#: Relative slack on capacity bounds — delivered rates are measured
#: over finite spans, so allow rounding at the margin but nothing real.
_CAPACITY_SLACK = 5e-3
#: Relative tolerance on the Little's-law closure.  The identity is
#: exact when counters and archive agree; anything beyond float noise
#: means a counter was mutated or an event went unarchived.
_LITTLE_TOL = 1e-9


@dataclass(frozen=True)
class InvariantResult:
    """One invariant evaluated for one subject (tenant or path)."""

    name: str       # e.g. "flow-conservation"
    subject: str    # tenant name, path name, or "*"
    ok: bool
    detail: str

    def __str__(self) -> str:
        verdict = "ok" if self.ok else "VIOLATED"
        return f"{self.name}[{self.subject}]: {verdict} — {self.detail}"


def _check_conservation(report) -> List[InvariantResult]:
    results = []
    for name, terms in sorted(report.conservation.items()):
        arrivals, completed, rejected, lost, in_flight = terms
        balance = completed + rejected + lost + in_flight
        ok = arrivals == balance and in_flight == 0
        detail = (f"arrivals {arrivals} vs completed {completed} + "
                  f"rejected {rejected} + lost {lost} + "
                  f"in-flight {in_flight} = {balance}")
        results.append(InvariantResult(
            name="flow-conservation", subject=name, ok=ok, detail=detail))
    return results


def _check_little(report) -> List[InvariantResult]:
    results = []
    elapsed = report.elapsed_ns or 1.0
    for name in sorted(report.windows):
        windows = report.windows[name]
        archived = sum(w.count for w in windows)
        latency_sum = math.fsum(w.latency_sum_ns for w in windows)
        if archived == 0:
            continue
        completed = report.tenants[name].completed
        occupancy = latency_sum / elapsed                    # L
        rate = completed / elapsed                           # λ (counter)
        sojourn = latency_sum / archived                     # W (archive)
        predicted = rate * sojourn
        gap = abs(occupancy - predicted) / max(occupancy, 1e-12)
        ok = gap <= _LITTLE_TOL
        detail = (f"L {occupancy:.6f} vs λW {predicted:.6f} "
                  f"(λ from counter {completed}, W from {archived} "
                  f"archived events; gap {gap:.2e})")
        results.append(InvariantResult(
            name="littles-law", subject=name, ok=ok, detail=detail))
    return results


def _check_utilization(report, network_gbps: float,
                       pcie_gbps: float) -> List[InvariantResult]:
    machines = (getattr(report, "machine_path_gbps", None)
                or {"": report.path_gbps})
    results = []
    rack_total = 0.0
    for machine, path_gbps in machines.items():
        prefix = f"{machine}/" if len(machines) > 1 else ""
        net_total, checks = _machine_utilization(prefix, path_gbps,
                                                 network_gbps, pcie_gbps)
        rack_total += net_total
        results.extend(checks)
    if len(machines) > 1:
        capacity = network_gbps * len(machines)
        results.append(InvariantResult(
            name="utilization", subject="rack/network",
            ok=rack_total <= capacity * (1 + _CAPACITY_SLACK),
            detail=f"network paths deliver {rack_total:.1f} Gbps <= "
                   f"{len(machines)} fabrics {capacity:.0f} Gbps"))
    return results


def _machine_utilization(prefix: str, path_gbps, network_gbps: float,
                         pcie_gbps: float):
    """(network Gbps, checks) of one machine's delivered path rates."""
    from repro.core.paths import CommPath

    results = []
    net_total = 0.0
    for path in CommPath:
        gbps = path_gbps.get(path.value, 0.0)
        if path.uses_network:
            net_total += gbps
        else:
            cap = pcie_gbps * (1 + _CAPACITY_SLACK)
            results.append(InvariantResult(
                name="utilization", subject=prefix + path.value,
                ok=gbps <= cap,
                detail=f"delivered {gbps:.1f} Gbps <= PCIe "
                       f"{pcie_gbps:.0f} Gbps"))
    cap = network_gbps * (1 + _CAPACITY_SLACK)
    results.insert(0, InvariantResult(
        name="utilization", subject=prefix + "network", ok=net_total <= cap,
        detail=f"network paths deliver {net_total:.1f} Gbps <= fabric "
               f"{network_gbps:.0f} Gbps"))
    return net_total, results


def _check_cluster_flow(report) -> List[InvariantResult]:
    """Cluster-level message conservation for sharded/rack runs.

    Every message put onto the cross-shard fabric — by a shard's
    channel (``xshard.sent``) or injected by the cluster scheduler
    (``clustersched.ctl_sent``) — must end up delivered to some shard
    (``xshard.delivered``) or accounted dropped by the fault injector
    (``cluster.dropped``).  The per-window
    :class:`~repro.sim.supervise.ConservationWatchdog` audits the same
    balance live (with the router's pending count as the in-flight
    term); here the run has drained, so pending must be zero and the
    totals must close exactly.  Reports without fabric counters (an
    unsharded run) have nothing to check.
    """
    counters = getattr(report, "counters", None) or {}
    sent = counters.get("xshard.sent")
    delivered = counters.get("xshard.delivered")
    if sent is None and delivered is None:
        return []
    sent = sent or 0
    delivered = delivered or 0
    injected = counters.get("clustersched.ctl_sent", 0)
    dropped = counters.get("cluster.dropped", 0)
    ok = sent + injected == delivered + dropped
    detail = (f"sent {sent:.0f} + injected {injected:.0f} vs "
              f"delivered {delivered:.0f} + dropped {dropped:.0f}")
    return [InvariantResult(name="cluster-flow", subject="fabric",
                            ok=ok, detail=detail)]


def _check_sanity(report) -> List[InvariantResult]:
    results = []
    for name in sorted(report.tenants):
        t = report.tenants[name]
        problems = []
        if t.slo_goodput_gbps > t.goodput_gbps * (1 + 1e-9) + 1e-9:
            problems.append(
                f"slo-goodput {t.slo_goodput_gbps:.2f} > "
                f"goodput {t.goodput_gbps:.2f}")
        if t.p50_ns > t.p99_ns:
            problems.append(f"p50 {t.p50_ns:.0f} > p99 {t.p99_ns:.0f}")
        if not 0.0 <= t.slo_attainment <= 1.0:
            problems.append(f"attainment {t.slo_attainment:.3f} not in "
                            "[0, 1]")
        if min(t.completed, t.rejected, t.lost) < 0:
            problems.append("negative counter")
        results.append(InvariantResult(
            name="sanity", subject=name, ok=not problems,
            detail="; ".join(problems) or
                   f"p50 {t.p50_ns:.0f} <= p99 {t.p99_ns:.0f}, "
                   f"attainment {t.slo_attainment:.2f}"))
    return results


def check_report(report, testbed=None) -> List[InvariantResult]:
    """Evaluate the full invariant catalog against one serving report.

    ``testbed`` supplies the capacity bounds; ``None`` uses the paper
    testbed (200 Gbps fabric, 256 Gbps PCIe root complex).
    """
    if testbed is None:
        from repro.net.topology import paper_testbed
        testbed = paper_testbed()
    from repro.units import to_gbps
    network_gbps = to_gbps(testbed.snic.spec.cores.network_bandwidth)
    pcie_gbps = to_gbps(testbed.snic.spec.pcie_bandwidth)

    results: List[InvariantResult] = []
    results.extend(_check_conservation(report))
    results.extend(_check_little(report))
    results.extend(_check_utilization(report, network_gbps, pcie_gbps))
    results.extend(_check_cluster_flow(report))
    results.extend(_check_sanity(report))
    return results


def violations(results: List[InvariantResult],
               ) -> List[InvariantResult]:
    """The failing subset, for error messages and exit codes."""
    return [r for r in results if not r.ok]
