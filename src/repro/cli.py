"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``paths`` — describe the communication paths.
* ``latency`` — end-to-end latency of one request shape.
* ``throughput`` — peak throughput and the binding resource.
* ``sweep`` — regenerate a figure's series (fig4/fig7/fig8/fig9/fig10/fig11).
* ``compare`` — RNIC-vs-SmartNIC summary for any catalog device.
* ``advise`` — run the offload advisor on a workload profile.
* ``audit`` — run the anomaly detectors over flows described in JSON.
* ``faults`` — goodput/latency of an RC verb stream under injected
  faults (``--fault-plan FILE`` or a ``--rates`` loss sweep).
* ``trace`` — nanosecond span trace of one verb through the simulated
  datapath; emits Chrome/Perfetto JSON, ``--report`` attribution
  tables, or a ``--tree`` rendering (see docs/observability.md).
* ``trace-gen`` / ``trace-solve`` — generate a JSONL request trace and
  solve its aggregate throughput.
* ``serve`` — run the online path scheduler over a multi-tenant
  workload (adaptive vs ``--static``; ``--engine hybrid`` fast-forwards
  steady state analytically; see docs/scheduling.md).
* ``crosscheck`` — grade the hybrid serving engine against the pure-DES
  reference over the standard scenario families (exact counts +
  toleranced latencies; see docs/performance.md), plus the
  ``cluster-fault`` determinism family: sharded chaos runs must be
  bit-identical across executors and through worker kill/respawn
  (docs/robustness.md).
* ``validate`` — the statistical verification report: scenario
  families replicated across seeds, invariant checks (flow
  conservation, Little's law, utilization bounds), CI-overlap engine
  agreement, and the Fig-4/9/11 reproductions quoted as mean ± CI
  (``--out verification_report.md``; see docs/validation.md).

``compare`` accepts ``--nic`` to pick a catalog device
(bluefield-2 default, bluefield-3, stingray-ps225).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from typing import List, Optional, Tuple

from repro.core.advisor import Advisor, WorkloadProfile
from repro.core.anomalies import detect_all
from repro.core.harness import LatencyBench, ThroughputBench
from repro.core.latency import LatencyModel
from repro.core.paths import CommPath, Opcode
from repro.core.plot import plot_sweeps
from repro.core.report import format_table
from repro.core.sweeps import StageTimings, SweepRunner
from repro.core.throughput import Flow, Scenario, ThroughputSolver
from repro.net.topology import paper_testbed
from repro.nic.catalog import CATALOG, lookup
from repro.nic.smartnic import SmartNIC
from repro.sched.serve import ENGINE_CHOICES
from repro.units import GB, fmt_size
from repro.workloads import (
    FIG4_PAYLOADS,
    FIG7_RANGES,
    FIG8_PAYLOADS,
    FIG9_PAYLOADS,
    FIG10_BATCHES,
    FIG11_MACHINES,
)

def _parse_size(text: str) -> int:
    """Parse ``64``, ``4K``, ``9M``, ``10G`` into bytes."""
    text = text.strip().upper().rstrip("B")
    multiplier = 1
    for suffix, value in (("K", 1 << 10), ("M", 1 << 20), ("G", 1 << 30)):
        if text.endswith(suffix):
            multiplier = value
            text = text[:-1]
            break
    try:
        return int(float(text) * multiplier)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse size: {text!r}")


def _spelling(parse):
    """An argparse ``type=`` over ``CommPath.parse``/``Opcode.parse``."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


_path = _spelling(CommPath.parse)
_op = _spelling(Opcode.parse)


def _duration(text: str) -> float:
    """A ``--duration`` in ns: finite and positive."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid duration: {text!r}") from None
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"must be a positive number of ns: {text!r}")
    return value


def _positive_int(text: str) -> int:
    """A count that must be at least 1 (``--machines``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Off-path SmartNIC characterization (OSDI'23), in simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("paths", help="describe the communication paths")

    for name in ("latency", "throughput"):
        p = sub.add_parser(name, help=f"{name} of one request shape")
        p.add_argument("--path", type=_path, default=CommPath.SNIC1)
        p.add_argument("--op", type=_op, default=Opcode.READ)
        p.add_argument("--payload", type=_parse_size, default="64")
        if name == "throughput":
            p.add_argument("--requesters", type=int, default=11)
            p.add_argument("--range", dest="range_bytes", type=_parse_size,
                           default=str(10 * GB))
            p.add_argument("--doorbell-batch", type=int, default=1)

    p = sub.add_parser("sweep", help="regenerate a figure's series")
    p.add_argument("figure", choices=["fig4", "fig7", "fig8", "fig9",
                                      "fig10", "fig11"])
    p.add_argument("--plot", action="store_true",
                   help="render an ASCII chart instead of a table")
    p.add_argument("--profile", action="store_true",
                   help="append a per-stage wall-time breakdown "
                        "(grid build / demand assembly / solve / aggregate)")
    p.add_argument("--cache-stats", action="store_true",
                   help="append the solver memo's hit/miss counters and "
                        "per-backend solve stats to the output")

    p = sub.add_parser("compare", help="RNIC vs SmartNIC summary")
    p.add_argument("--nic", choices=sorted(CATALOG), default="bluefield-2")

    p = sub.add_parser("advise", help="offload advisor for a workload")
    p.add_argument("--payload", type=_parse_size, required=True)
    p.add_argument("--read-fraction", type=float, default=0.5)
    p.add_argument("--two-sided-fraction", type=float, default=0.0)
    p.add_argument("--working-set", type=_parse_size, default=str(10 * GB))
    p.add_argument("--hot-range", type=_parse_size, default=None)
    p.add_argument("--host-soc-transfer", action="store_true")

    p = sub.add_parser("audit", help="anomaly audit over flows (JSON)")
    p.add_argument("flows_json",
                   help="path to a JSON list of flow objects, or '-' for stdin")

    p = sub.add_parser("faults",
                       help="goodput/latency under injected faults (DES)")
    p.add_argument("--fault-plan", metavar="FILE", default=None,
                   help="JSON fault plan (see docs/robustness.md); "
                        "overrides --rates")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed of the injector's RNG streams")
    p.add_argument("--rates", default="0,0.001,0.01",
                   help="comma-separated loss rates for the sweep "
                        "(ignored with --fault-plan)")
    p.add_argument("--ops", type=int, default=200,
                   help="closed-loop verbs per run")
    p.add_argument("--payload", type=_parse_size, default="4K")
    p.add_argument("--op", choices=["read", "write"], default="write")
    p.add_argument("--json", action="store_true",
                   help="emit the raw rows as JSON instead of a table")

    p = sub.add_parser("trace",
                       help="span-trace one verb through the DES datapath")
    p.add_argument("--path", type=_path, default=CommPath.SNIC1,
                   help="communication path (accepts 1/2/3 shorthand; "
                        "3 = host->SoC)")
    p.add_argument("--verb", type=_op, default=Opcode.READ,
                   help="read, write or send")
    p.add_argument("--size", type=_parse_size, default="64",
                   help="payload bytes (accepts 4K style suffixes)")
    p.add_argument("--count", type=int, default=1,
                   help="closed-loop verbs to trace")
    p.add_argument("--seed", type=int, default=0,
                   help="payload-content seed (timing is data-independent)")
    p.add_argument("--report", action="store_true",
                   help="print the latency-attribution tables instead of "
                        "Chrome JSON")
    p.add_argument("--tree", action="store_true",
                   help="print the span tree(s) instead of Chrome JSON")
    p.add_argument("--telemetry", action="store_true",
                   help="snapshot hardware counters around each verb and "
                        "attach the deltas")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the Chrome trace JSON to FILE (open in "
                        "chrome://tracing or https://ui.perfetto.dev)")

    p = sub.add_parser("trace-gen", help="generate a JSONL request trace")
    p.add_argument("out", help="output path")
    p.add_argument("--path", type=_path, default=CommPath.SNIC2)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--payload", type=_parse_size, default="256")
    p.add_argument("--read-fraction", type=float, default=0.5)
    p.add_argument("--region", type=_parse_size, default="64M")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("trace-solve",
                       help="peak throughput of a JSONL trace's mix")
    p.add_argument("trace", help="trace path")
    p.add_argument("--requesters", type=int, default=11)

    p = sub.add_parser("serve",
                       help="online path scheduling of tenant streams (DES)")
    p.add_argument("--cluster", metavar="FILE", default=None,
                   help="run a declarative rack-scale cluster scenario "
                        "(JSON ClusterScenario document, e.g. "
                        "examples/rack_scenario.json; docs/cluster.md)")
    p.add_argument("--machines", type=_positive_int, default=None,
                   help="with --cluster: override the document's machine "
                        "count (the SNIC/RNIC mix is cycled)")
    p.add_argument("--population-seed", type=int, default=None,
                   help="with --cluster: resample the user population "
                        "under this seed")
    p.add_argument("--placement", choices=["binpack", "round-robin"],
                   default=None,
                   help="with --cluster: override the document's tenant "
                        "placement policy")
    p.add_argument("--no-migrate", action="store_true",
                   help="with --cluster: disable the cluster scheduler's "
                        "SLO/crash migrations (static placement only)")
    p.add_argument("--check", action="store_true",
                   help="audit the finished run against the invariant "
                        "catalog (flow conservation, cluster-flow, "
                        "Little's law, capacity bounds) and exit "
                        "non-zero on any violation")
    p.add_argument("--duration", type=_duration, default=None,
                   help="arrival-window length in ns of the built-in mix "
                        "(default 1.5 ms)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed of the built-in mix's request streams "
                        "(default 0)")
    p.add_argument("--static", action="store_true",
                   help="pin the advisor's initial placements instead of "
                        "scheduling online (the non-adaptive baseline)")
    p.add_argument("--fault-plan", metavar="FILE", default=None,
                   help="JSON fault plan (e.g. a soc-crash) injected "
                        "into the run")
    p.add_argument("--fault-seed", type=int, default=None,
                   help="seed of the injector's RNG streams (default 0)")
    p.add_argument("--engine", choices=ENGINE_CHOICES, default=None,
                   help="serving engine: 'event' is pure DES (default), "
                        "'hybrid' fast-forwards steady-state windows "
                        "analytically (docs/performance.md); overrides "
                        "a --cluster document's engine")
    p.add_argument("--shards", type=int, default=None,
                   help="partition the built-in mix over N lockstep "
                        "machines (repro.sim.shard; default 1)")
    p.add_argument("--jobs", type=int, default=None,
                   help="1 = every shard in-process, >1 = one worker "
                        "process per shard (default)")
    p.add_argument("--cross-traffic", action="store_true",
                   help="bulk tenants ship their completions to the next "
                        "machine over the cross-shard fabric "
                        "(repro.sim.xshard; nothing to ship on one shard)")
    p.add_argument("--cluster-fault-plan", metavar="FILE", default=None,
                   help="JSON cluster fault plan (machine-crash, "
                        "fabric-loss/-delay/-partition/-reorder; see "
                        "docs/robustness.md); replaces a --cluster "
                        "document's faults")
    p.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                   help="write the window-log checkpoint here at every "
                        "barrier")
    p.add_argument("--resume", action="store_true",
                   help="resume from the checkpoint in --checkpoint-dir "
                        "instead of starting fresh")
    p.add_argument("--kill-shard", metavar="NAME", default=None,
                   help="chaos hook: kill this shard (its worker, or its "
                        "in-process session) at --kill-window and "
                        "respawn it from the log")
    p.add_argument("--kill-window", type=int, default=1,
                   help="lockstep window at which --kill-shard strikes "
                        "(default 1)")
    p.add_argument("--incident-report", metavar="FILE", default=None,
                   help="write the supervisor's incident log (kills, "
                        "respawns) as JSON")
    p.add_argument("--decisions", action="store_true",
                   help="append the scheduler's decision log")
    p.add_argument("--json", action="store_true",
                   help="emit the per-tenant rows as JSON instead of a table")

    p = sub.add_parser("crosscheck",
                       help="grade the hybrid serving engine against "
                            "pure DES")
    p.add_argument("--duration", type=_duration, default=1_500_000.0,
                   help="arrival-window length in ns (default 1.5 ms)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the tenants' request streams")
    p.add_argument("--scenario", action="append", dest="scenarios",
                   metavar="NAME", default=None,
                   help="run only this scenario family (repeatable; "
                        "default: all of adaptive, static, soc-crash, "
                        "crash-recover, packet-loss, fault-transient, "
                        "cluster-fault)")
    p.add_argument("--json", action="store_true",
                   help="emit the graded results as JSON instead of a table")

    p = sub.add_parser("validate",
                       help="statistical verification report: replicated "
                            "scenarios, invariants, CIs, figure gates")
    p.add_argument("--families", action="append", metavar="NAME",
                   default=None,
                   help="validate only this family (repeatable; 'all' or "
                        "default: every serving + figure family; "
                        "'broken-counter' — the injected violation — "
                        "only runs when named explicitly)")
    p.add_argument("--seeds", type=int, default=3,
                   help="replicates per serving family (default 3)")
    p.add_argument("--duration", type=_duration, default=400_000.0,
                   help="serving arrival-window length in ns "
                        "(default 400 us)")
    p.add_argument("--jobs", type=int, default=0,
                   help="worker processes for replication (default: "
                        "serial)")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="also write the report as markdown to FILE")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON instead of a table")
    p.add_argument("--check", action="store_true",
                   help="fail (exit 1) unless every row is PASS")
    return parser


# -- command implementations -----------------------------------------------------


def _cmd_paths(args) -> str:
    rows = []
    for path in CommPath:
        ends = path.ends
        rows.append([path.value, path.label, ends.requester,
                     ends.responder.value,
                     "network" if path.uses_network else "internal PCIe"])
    return format_table(
        ["id", "paper label", "requester", "responder memory", "medium"],
        rows, title="Communication paths (Fig 2)")


def _cmd_latency(args) -> str:
    model = LatencyModel(paper_testbed())
    breakdown = model.latency(args.path, args.op, args.payload)
    rows = [[name, f"{value:.0f}"] for name, value in breakdown.segments]
    rows.append(["TOTAL", f"{breakdown.total:.0f}"])
    return format_table(
        ["segment", "ns"], rows,
        title=f"{args.path.label} {args.op.value.upper()} "
              f"{fmt_size(args.payload)}: {breakdown.total_us:.2f} us")


def _cmd_throughput(args) -> str:
    flow = Flow(path=args.path, op=args.op, payload=args.payload,
                requesters=args.requesters, range_bytes=args.range_bytes,
                doorbell_batch=args.doorbell_batch)
    result = ThroughputSolver().solve(Scenario(paper_testbed(), [flow]))
    rows = [
        ["request rate", f"{result.mrps_of(0):.1f} M reqs/s"],
        ["payload bandwidth", f"{result.gbps_of(0):.1f} Gbps"],
        ["bottleneck", result.bottlenecks[0]],
    ]
    return format_table(["metric", "value"], rows, title=flow.name)


def _cmd_compare(args) -> str:
    from dataclasses import replace as _replace

    from repro.nic.rnic import RNIC
    from repro.nic.specs import RNICSpec

    spec = lookup(args.nic)
    # The paper's methodology: the RNIC baseline shares the SmartNIC's
    # NIC cores (Bluefield-2 vs ConnectX-6), so build a matched one.
    baseline = RNICSpec(name=f"{args.nic}-rnic-baseline", cores=spec.cores)
    testbed = _replace(paper_testbed(), snic=SmartNIC(spec),
                       rnic=RNIC(baseline))
    latency = LatencyModel(testbed)
    solver = ThroughputSolver()
    rows = []
    for op in Opcode:
        rnic_lat = latency.latency(CommPath.RNIC1, op, 64).total_us
        snic_lat = latency.latency(CommPath.SNIC1, op, 64).total_us
        rnic_tp = solver.solve(Scenario(testbed, [
            Flow(CommPath.RNIC1, op, 64)])).mrps_of(0)
        snic_tp = solver.solve(Scenario(testbed, [
            Flow(CommPath.SNIC1, op, 64)])).mrps_of(0)
        rows.append([op.value.upper(), f"{rnic_lat:.2f}", f"{snic_lat:.2f}",
                     f"{(snic_lat / rnic_lat - 1) * 100:+.0f}%",
                     f"{rnic_tp:.1f}", f"{snic_tp:.1f}",
                     f"{(snic_tp / rnic_tp - 1) * 100:+.0f}%"])
    return format_table(
        ["verb", "RNIC us", "SNIC us", "lat tax", "RNIC M/s", "SNIC M/s",
         "tput tax"],
        rows, title=f"64 B requests: the {args.nic} performance tax (S3.1)")


def _cmd_sweep(args) -> str:
    testbed = paper_testbed()
    runner = SweepRunner(testbed,
                         timings=StageTimings() if args.profile else None)
    tp = ThroughputBench(testbed, runner)
    out = _run_sweep(args, testbed, tp, runner)
    if args.profile:
        out += "\n\nsweep stage profile\n" + runner.timings.report()
    if args.cache_stats:
        from repro.telemetry import perf_report
        out += "\n\n" + perf_report()
    return out


def _run_sweep(args, testbed, tp, runner) -> str:
    if getattr(args, "plot", False):
        return _cmd_sweep_plot(args, testbed, tp)
    if args.figure == "fig4":
        lat = LatencyBench(testbed, runner)
        parts = [lat.payload_sweep(CommPath.SNIC1, Opcode.READ,
                                   FIG4_PAYLOADS).table(
                     "Fig 4 — SNIC1 READ latency (us)"),
                 tp.payload_sweep(CommPath.SNIC1, Opcode.READ,
                                  FIG4_PAYLOADS).table(
                     "Fig 4 — SNIC1 READ peak throughput (M reqs/s)")]
        return "\n\n".join(parts)
    if args.figure == "fig7":
        return tp.range_sweep(CommPath.SNIC2, Opcode.WRITE, 64, FIG7_RANGES,
                              requesters=2).table(
            "Fig 7 — WRITE to SoC vs address range (M reqs/s)")
    if args.figure == "fig8":
        return tp.payload_sweep(CommPath.SNIC2, Opcode.READ, FIG8_PAYLOADS,
                                metric="gbps").table(
            "Fig 8 — READ to SoC vs payload (Gbps)")
    if args.figure == "fig9":
        return tp.payload_sweep(CommPath.SNIC3_S2H, Opcode.WRITE,
                                FIG9_PAYLOADS, requesters=8,
                                metric="gbps").table(
            "Fig 9 — SoC->host transfer bandwidth (Gbps)")
    if args.figure == "fig10":
        return tp.doorbell_sweep(CommPath.SNIC3_S2H, Opcode.READ, 0,
                                 FIG10_BATCHES, requesters=8).table(
            "Fig 10(b) — SoC-side doorbell batching (M reqs/s)")
    return tp.requester_sweep(CommPath.SNIC1, Opcode.READ, 0,
                              FIG11_MACHINES).table(
        "Fig 11 — SNIC1 0 B READ vs requester machines (M reqs/s)")


def _cmd_sweep_plot(args, testbed, tp) -> str:
    if args.figure == "fig4":
        sweeps = {p.label: tp.payload_sweep(p, Opcode.READ, FIG4_PAYLOADS)
                  for p in (CommPath.RNIC1, CommPath.SNIC1, CommPath.SNIC2)}
        return plot_sweeps(sweeps, title="Fig 4 READ throughput (M reqs/s)",
                           y_label="M/s")
    if args.figure == "fig7":
        sweeps = {op.value: tp.range_sweep(CommPath.SNIC2, op, 64,
                                           FIG7_RANGES, requesters=2)
                  for op in (Opcode.READ, Opcode.WRITE)}
        return plot_sweeps(sweeps, title="Fig 7 SoC range sweep (M reqs/s)",
                           y_label="M/s")
    if args.figure == "fig8":
        sweeps = {p.label: tp.payload_sweep(p, Opcode.READ, FIG8_PAYLOADS,
                                            metric="gbps")
                  for p in (CommPath.SNIC1, CommPath.SNIC2)}
        return plot_sweeps(sweeps, title="Fig 8 large READs (Gbps)",
                           y_label="Gbps")
    if args.figure == "fig9":
        sweeps = {"S2H": tp.payload_sweep(CommPath.SNIC3_S2H, Opcode.WRITE,
                                          FIG9_PAYLOADS, requesters=8,
                                          metric="gbps"),
                  "H2S": tp.payload_sweep(CommPath.SNIC3_H2S, Opcode.WRITE,
                                          FIG9_PAYLOADS, requesters=24,
                                          metric="gbps")}
        return plot_sweeps(sweeps, title="Fig 9 host<->SoC (Gbps)",
                           y_label="Gbps")
    if args.figure == "fig10":
        sweeps = {"SoC side": tp.doorbell_sweep(CommPath.SNIC3_S2H,
                                                Opcode.READ, 0,
                                                FIG10_BATCHES, requesters=8),
                  "host side": tp.doorbell_sweep(CommPath.SNIC3_H2S,
                                                 Opcode.READ, 0,
                                                 FIG10_BATCHES,
                                                 requesters=24)}
        return plot_sweeps(sweeps, log_x=False,
                           title="Fig 10(b) doorbell batching (M reqs/s)",
                           y_label="M/s")
    sweeps = {p.label: tp.requester_sweep(p, Opcode.READ, 0, FIG11_MACHINES)
              for p in (CommPath.SNIC1, CommPath.SNIC2)}
    return plot_sweeps(sweeps, log_x=False,
                       title="Fig 11 requester scaling (M reqs/s)",
                       y_label="M/s")


def _cmd_advise(args) -> str:
    profile = WorkloadProfile(
        payload=args.payload,
        read_fraction=args.read_fraction,
        two_sided_fraction=args.two_sided_fraction,
        working_set_bytes=args.working_set,
        hot_range_bytes=args.hot_range,
        host_soc_transfer=args.host_soc_transfer,
    )
    plan = Advisor(paper_testbed()).plan(profile)
    lines = [
        f"one-sided traffic  -> {plan.one_sided_path.label}",
        f"two-sided traffic  -> {plan.two_sided_path.label}",
        f"segmentation       -> "
        f"{fmt_size(plan.segment_bytes) if plan.segment_bytes else 'none'}",
        f"doorbell batching  -> SoC side: "
        f"{'on' if plan.doorbell_batching_soc_side else 'off'}, host side: "
        f"{'on' if plan.doorbell_batching_host_side else 'off'}",
        f"path-3 budget      -> {plan.path3_budget_gbps:.0f} Gbps",
        "",
    ]
    for advice in plan.advice:
        lines.append(f"[{advice.ref}] {advice.summary}")
        lines.append(f"    {advice.rationale}")
    return "\n".join(lines)


def _cmd_audit(args) -> str:
    if args.flows_json == "-":
        raw = json.load(sys.stdin)
    else:
        with open(args.flows_json) as handle:
            raw = json.load(handle)
    flows = []
    for item in raw:
        flows.append(Flow(
            path=CommPath.parse(item["path"]),
            op=Opcode.parse(item["op"]),
            payload=int(item["payload"]),
            requesters=int(item.get("requesters", 11)),
            range_bytes=float(item.get("range_bytes", 10 * GB)),
            doorbell_batch=int(item.get("doorbell_batch", 1)),
            weight=float(item.get("weight", 1.0)),
            label=item.get("label", ""),
        ))
    report = detect_all(paper_testbed(), flows)
    if report.clean:
        return "no anomalies detected"
    rows = [[a.kind, a.flow.label if a.flow else "(workload)",
             f"{a.severity:.0%}", a.advice] for a in report]
    return format_table(["anomaly", "flow", "vs healthy", "remedy"], rows,
                        title=f"{len(report)} anomalies")


def _cmd_faults(args) -> str:
    from repro.faults import FaultPlan
    from repro.faults.bench import faulted_sweep, run_fault_bench

    if args.fault_plan is not None:
        plan = FaultPlan.from_file(args.fault_plan)
        rows = [run_fault_bench(ops=args.ops, payload=args.payload,
                                op=args.op, plan=plan,
                                fault_seed=args.fault_seed)]
        title = (f"{args.op.upper()} {fmt_size(args.payload)} x{args.ops} "
                 f"under {args.fault_plan}")
    else:
        try:
            rates = [float(r) for r in args.rates.split(",") if r.strip()]
        except ValueError:
            raise ValueError(f"cannot parse --rates: {args.rates!r}")
        rows = faulted_sweep(rates=rates, ops=args.ops, payload=args.payload,
                             op=args.op, fault_seed=args.fault_seed)
        title = (f"{args.op.upper()} {fmt_size(args.payload)} x{args.ops} "
                 f"vs loss rate")
    if args.json:
        return json.dumps(rows, indent=2)
    table = []
    for row in rows:
        table.append([
            f"{row.get('loss_rate', 0.0):.2%}" if "loss_rate" in row
            else "(plan)",
            f"{row['completed']}/{row['ops']}",
            f"{row['goodput_gbps']:.2f}",
            f"{row['p50_ns']:.0f}",
            f"{row['p99_ns']:.0f}",
            f"{row['faults_injected']:.0f}",
            f"{row['retransmits']:.0f}",
            f"{row['qp_recoveries']:.0f}",
        ])
    return format_table(
        ["loss", "completed", "Gbps", "p50 ns", "p99 ns", "injected",
         "retransmits", "recoveries"],
        table, title=title)


def _cmd_trace(args) -> str:
    from repro.trace import (attribution_report, chrome_trace_json,
                             run_traced_verbs, span_tree_text,
                             write_chrome_trace)

    tracer = run_traced_verbs(args.path, args.verb, args.size,
                              count=args.count, seed=args.seed,
                              telemetry=args.telemetry)
    parts = []
    if args.out:
        write_chrome_trace(tracer.traces, args.out)
        parts.append(f"wrote {len(tracer)} traced verb(s) to {args.out} "
                     "(open in chrome://tracing or https://ui.perfetto.dev)")
    if args.tree:
        parts.extend(span_tree_text(t.root) for t in tracer.traces)
    if args.report:
        parts.append(attribution_report(tracer.traces))
    if args.telemetry and (args.tree or args.report):
        last = tracer.last()
        lines = ["counter deltas (last verb)"]
        lines += [f"  {key}: {value:g}"
                  for key, value in sorted((last.counters or {}).items())]
        parts.append("\n".join(lines))
    if not parts:
        parts.append(chrome_trace_json(tracer.traces))
    return "\n\n".join(parts)


def _cmd_trace_gen(args) -> str:
    import random

    from repro.hw.memory.address import AddressRegion
    from repro.workloads import OpMix, RequestStream, UniformPattern
    from repro.workloads.traces import Trace

    if args.count < 1:
        raise ValueError("count must be >= 1")
    mix = OpMix(read=args.read_fraction, write=1.0 - args.read_fraction,
                send=0.0)
    pattern = UniformPattern(AddressRegion(0, args.region), args.payload,
                             rng=random.Random(args.seed))
    stream = RequestStream(mix, pattern, seed=args.seed)
    trace = Trace.generate(stream, args.path, args.count)
    with open(args.out, "w") as handle:
        trace.dump(handle)
    return (f"wrote {len(trace)} requests ({args.path.label}, "
            f"{args.read_fraction:.0%} reads) to {args.out}")


def _cmd_trace_solve(args) -> str:
    from repro.workloads.traces import Trace

    with open(args.trace) as handle:
        trace = Trace.load(handle)
    flows = trace.as_flows(requesters=args.requesters)
    result = ThroughputSolver().solve(Scenario(paper_testbed(), flows))
    rows = []
    for i, flow in enumerate(flows):
        rows.append([flow.label, f"{result.mrps_of(i):.1f}",
                     f"{result.gbps_of(i):.1f}", result.bottlenecks[i]])
    rows.append(["TOTAL", f"{result.total_mrps:.1f}",
                 f"{result.total_gbps:.1f}", ""])
    return format_table(["flow", "M reqs/s", "Gbps", "bottleneck"], rows,
                        title=f"{len(trace)} traced requests, aggregated")


def _reject_flags(args, flags, why: str) -> None:
    """Refuse a flag the chosen serve mode would silently ignore."""
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and value is not False:   # 0 counts as set
            raise ValueError(f"--{flag.replace('_', '-')} {why}")


def _builtin_plan(args, cluster_faults):
    """The four-tenant mix over ``--shards`` machines (one by default):
    the machine fault plan on the first, bulk tenants ringed to the
    next machine under ``--cross-traffic``."""
    from dataclasses import replace

    from repro.faults import FaultPlan
    from repro.sched import mixed_tenant_workload
    from repro.sim.shard import ShardPlan
    from repro.sim.xshard import CrossTraffic

    tenants = mixed_tenant_workload(
        duration_ns=1_500_000.0 if args.duration is None else args.duration,
        seed=args.seed or 0)
    plan = ShardPlan.partition(tenants, 1 if args.shards is None
                               else args.shards)
    faults = (FaultPlan.from_file(args.fault_plan)
              if args.fault_plan is not None else None)
    ring = [shard.name for shard in plan.shards]
    shards = []
    for i, shard in enumerate(plan.shards):
        nxt = ring[(i + 1) % len(ring)]
        exports = tuple(CrossTraffic(t.name, nxt, "bulk")
                        for t in shard.tenants
                        if t.bulk and args.cross_traffic and nxt != shard.name)
        shards.append(replace(shard, faults=faults if i == 0 else None,
                              fault_seed=args.fault_seed or 0,
                              exports=exports))
    return ShardPlan(shards=tuple(shards), cluster_faults=cluster_faults)


def _serve_outputs(args, report) -> Tuple[List[str], dict]:
    """The built-in mix's text parts and JSON payload."""
    from repro.units import fmt_ns

    c = defaultdict(int, report.counters)
    gbps = ", ".join(f"{path}: {rate:.1f}"
                     for path, rate in sorted(report.path_gbps.items()))
    parts = [report.table(), f"steady-state Gbps per path: {gbps}"]
    if any(key.startswith("xshard.") for key in report.counters):
        mean_rtt = c["xshard.rtt_ns_total"] / max(1, c["xshard.acked"])
        parts.append(f"cross-shard fabric: {c['xshard.sent']} sent, "
                     f"{c['xshard.served']} served remotely, "
                     f"{c['xshard.relay_requests']} failover relays, "
                     f"mean rtt {fmt_ns(mean_rtt)}")
    if any(key.startswith(("cluster.", "supervisor."))
           for key in report.counters):
        parts.append(
            f"cluster chaos: {c['cluster.dropped']:.0f} dropped "
            f"(crash {c['cluster.dropped_crash']:.0f}, "
            f"partition {c['cluster.dropped_partition']:.0f}, "
            f"loss {c['cluster.dropped_loss']:.0f}), "
            f"{c['cluster.delayed']:.0f} delayed, "
            f"{c['cluster.reordered']:.0f} reordered, "
            f"{c['supervisor.respawns']:.0f} respawns")
    if report.hybrid_stats is not None:
        parts.append("hybrid engine: " + ", ".join(
            f"{key}: {value}"
            for key, value in sorted(report.hybrid_stats.items())))
    if args.decisions:
        parts.append("\n".join(["scheduler decisions"] + [
            f"  {fmt_ns(d.time_ns):>9}  {d.kind:<9} {d.tenant:<8} "
            f"-> {d.to_path.value}/{d.to_responder}  [{d.reason}]"
            for d in report.decisions]))
    return parts, {
        "adaptive": report.adaptive, "elapsed_ns": report.elapsed_ns,
        "engine": report.engine, "hybrid_stats": report.hybrid_stats,
        "tenants": [vars(t) for t in report.tenants.values()],
        "path_gbps": report.path_gbps,
        "counters": {key: value
                     for key, value in sorted(report.counters.items())
                     if key.startswith("xshard.")}}


def _cluster_outputs(args, report) -> Tuple[List[str], dict]:
    """A ``--cluster`` run's text parts and JSON payload."""
    from repro.codec import encode
    from repro.units import fmt_ns

    parts = [report.summary()]
    if any(key.startswith("clustersched.") for key in report.counters):
        c = defaultdict(int, report.counters)
        parts.append(
            f"cluster scheduler: {c['clustersched.offloads']:.0f} offloads, "
            f"{c['clustersched.retargets']:.0f} retargets, "
            f"{c['clustersched.returns']:.0f} returns, "
            f"{c['clustersched.machine_down']:.0f} machine crashes seen")
    if args.decisions and report.cluster_decisions:
        parts.append("\n".join(["cluster decisions"] + [
            f"  {fmt_ns(d.time_ns):>9}  {d.kind:<12} "
            f"{d.tenant or d.machine:<10}"
            f"{f' -> {d.target}' if d.target else ''}  [{d.reason}]"
            for d in report.cluster_decisions]))
    return parts, {
        "scenario": report.scenario, "elapsed_ns": report.elapsed_ns,
        "total_users": report.total_users,
        "machines": [encode(m) for m in report.machines],
        "placement": report.placement,
        "slo_attainment": report.slo_attainment,
        "total_slo_goodput_gbps": report.total_slo_goodput_gbps,
        "cluster_decisions": [d.as_tuple() for d in report.cluster_decisions],
        "tenants": [vars(t) for t in report.tenants.values()]}


def _edited_scenario(args, cluster_faults):
    """The ``--cluster`` document with each given flag applied as an
    edit of the field it names."""
    from dataclasses import replace

    from repro.api.schema import ClusterScenario

    scenario = ClusterScenario.from_file(args.cluster)
    if args.machines is not None:
        scenario = scenario.resized(args.machines)
    if args.population_seed is not None:
        scenario = replace(scenario, population_seed=args.population_seed)
    if args.engine is not None:
        scenario = replace(scenario, engine=args.engine)
    if cluster_faults is not None:
        scenario = replace(scenario, faults=cluster_faults)
    if args.placement is not None:
        scenario = replace(scenario, scheduler=replace(
            scenario.scheduler, placement=args.placement))
    if args.no_migrate:
        scenario = replace(scenario, scheduler=replace(
            scenario.scheduler, migrate=False))
    return scenario


def _cmd_serve(args) -> str:
    """Every mode is one shard plan run by ``run_sharded``: the built-in
    mix over ``--shards`` machines (one by default), or a ``--cluster``
    document compiled by ``run_cluster``."""
    from repro.cluster import run_cluster
    from repro.faults import FaultPlan
    from repro.sim.shard import run_sharded
    from repro.sim.supervise import SupervisorConfig
    from repro.stats.invariants import check_report, violations

    if args.cluster is not None:
        _reject_flags(args, ("static", "fault_plan", "fault_seed", "shards",
                             "cross_traffic", "duration", "seed"),
                      "does not apply to --cluster")
    else:
        _reject_flags(args, ("machines", "population_seed", "placement",
                             "no_migrate"), "needs --cluster")
    cluster_faults = (FaultPlan.from_file(args.cluster_fault_plan)
                      if args.cluster_fault_plan is not None else None)
    supervisor = SupervisorConfig(
        checkpoint_dir=args.checkpoint_dir, resume=args.resume,
        kill_shard=args.kill_shard, kill_window=args.kill_window,
        incident_report=args.incident_report)
    if args.cluster is not None:
        report = run_cluster(_edited_scenario(args, cluster_faults),
                             jobs=args.jobs, supervisor=supervisor)
        parts, payload = _cluster_outputs(args, report)
    else:
        report = run_sharded(_builtin_plan(args, cluster_faults),
                             jobs=args.jobs, supervisor=supervisor,
                             adaptive=not args.static,
                             engine=args.engine or "event")
        parts, payload = _serve_outputs(args, report)
    if args.check:
        results = check_report(report)
        failed = violations(results)
        parts.append(f"invariants: {len(results)} checks over "
                     f"{', '.join(sorted({r.name for r in results}))} — "
                     f"{'all ok' if not failed else 'VIOLATIONS'}")
        if failed:
            raise SystemExit("\n\n".join(parts + [str(r) for r in failed]))
    return json.dumps(payload, indent=2) if args.json else "\n\n".join(parts)


def _cmd_crosscheck(args) -> str:
    from repro.sim.crosscheck import (GOODPUT_TOL, LATENCY_TOL,
                                      cluster_crosscheck, crosscheck_suite)

    scenarios = args.scenarios
    run_cluster = scenarios is None or "cluster-fault" in scenarios
    if scenarios is not None:
        scenarios = [name for name in scenarios if name != "cluster-fault"]
    results = ()
    if scenarios is None or scenarios:
        results = crosscheck_suite(duration_ns=args.duration,
                                   seed=args.seed, scenarios=scenarios)
    cluster = cluster_crosscheck(seed=args.seed) if run_cluster else None
    if args.json:
        rows = [{
            "scenario": r.scenario,
            "ok": r.ok,
            "speedup": r.speedup,
            "decisions_ok": r.decisions_ok,
            "decision_p99_err": r.decision_p99_err,
            "hybrid_stats": r.hybrid_stats,
            "failures": list(r.failures()),
            "tenants": [dict(vars(t), latency_tol=LATENCY_TOL,
                             goodput_tol=GOODPUT_TOL) for t in r.tenants],
        } for r in results]
        if cluster is not None:
            rows.append({
                "scenario": cluster.scenario,
                "ok": cluster.ok,
                "clauses": [{"name": name, "ok": ok, "detail": detail}
                            for name, ok, detail in cluster.clauses],
                "failures": list(cluster.failures()),
            })
        return json.dumps(rows, indent=2)
    rows = []
    for r in results:
        rows.append([
            r.scenario,
            "PASS" if r.ok else "FAIL",
            f"{r.speedup:.1f}x",
            "exact" if all(t.counts_ok for t in r.tenants) else "DIFFER",
            "exact" if r.decisions_ok else "DIFFER",
            f"{max((t.p99_err for t in r.tenants), default=0.0):.0%}",
            f"{max((t.goodput_err for t in r.tenants), default=0.0):.0%}",
            str(r.hybrid_stats.get("flips", 0)),
        ])
    parts = []
    if rows:
        parts.append(format_table(
            ["scenario", "verdict", "speedup", "counts", "decisions",
             "max p99 err", "max gput err", "flips"],
            rows, title="hybrid engine vs pure DES "
                        f"({args.duration:.0f} ns, seed {args.seed})"))
    if cluster is not None:
        parts.append(format_table(
            ["clause", "verdict", "detail"],
            [[name, "PASS" if ok else "FAIL", detail]
             for name, ok, detail in cluster.clauses],
            title=f"cluster-chaos determinism (seed {args.seed})"))
    table = "\n\n".join(parts)
    failed = [r for r in results if not r.ok]
    if cluster is not None and not cluster.ok:
        failed.append(cluster)
    if failed:
        details = "; ".join(
            f"{r.scenario}: {', '.join(r.failures())}" for r in failed)
        print(table)
        raise ValueError(f"crosscheck failed — {details}")
    return table


def _cmd_validate(args) -> str:
    from repro.stats.validate import run_validation

    report = run_validation(families=args.families, seeds=args.seeds,
                            duration_ns=args.duration, jobs=args.jobs)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_markdown())
    output = report.to_json() if args.json else report.table()
    if not report.ok:
        details = "; ".join(f"{row.family}/{row.check}: {row.detail}"
                            for row in report.failures())
        print(output)
        raise ValueError(f"validation failed — {details}")
    if args.check and not report.rows:
        raise ValueError("validation ran no checks — empty family "
                         "selection cannot gate CI")
    return output


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "paths": _cmd_paths,
        "latency": _cmd_latency,
        "throughput": _cmd_throughput,
        "sweep": _cmd_sweep,
        "compare": _cmd_compare,
        "advise": _cmd_advise,
        "audit": _cmd_audit,
        "faults": _cmd_faults,
        "trace": _cmd_trace,
        "trace-gen": _cmd_trace_gen,
        "trace-solve": _cmd_trace_solve,
        "serve": _cmd_serve,
        "crosscheck": _cmd_crosscheck,
        "validate": _cmd_validate,
    }
    try:
        print(handlers[args.command](args))
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
