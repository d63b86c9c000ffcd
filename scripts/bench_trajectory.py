#!/usr/bin/env python
"""Track the cost trajectory of the figure sweeps.

Runs a fixed smoke workload — representative Fig 4 / Fig 8 sweeps,
best of several cold passes — a DES hot-loop microbench, the serving-engine comparison
(pure DES vs the analytic/DES hybrid on the same adaptive scenario),
the canonical declarative rack at growing machine counts,
and (optionally) the full pytest-benchmark suite — and writes
``BENCH_sweep.json``: wall-clock, DES events/sec, simulated requests
and ns per wall-second of both serving engines.
Intended to run in CI so
performance regressions show up in the artifact diff, not in
reviewers' patience.

Usage::

    PYTHONPATH=src python scripts/bench_trajectory.py [--no-suite]
        [--out BENCH_sweep.json] [--check] [--reps N]

``--check`` re-runs the smoke workload and fails (exit 1) when any
recorded bar regressed: cold smoke wall-time more than
``BENCH_CHECK_TOLERANCE`` (default 0.25, i.e. 25 %) over the recorded
``BENCH_sweep.json``, DES events per reference second (events/sec
rescaled by a reference slice timed in the same process, so host
drift cancels) below the record by the same tolerance, either serving
engine's simulated requests per wall-second below its record by the
same tolerance, the hybrid engine diverging
from pure-DES counts, the sharded lockstep engine
diverging from its in-process reference, or (on machines with >= 2
cores) the ``jobs=2`` shard speedup below ``BENCH_CHECK_SHARD_MIN``
(default 1.3x; skipped with a note on single-core machines).  The file
is not rewritten; CI runs the check before regenerating the record.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import statistics
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.core.batch import BatchSolver, numpy_available    # noqa: E402
from repro.core.harness import LatencyBench, ThroughputBench   # noqa: E402
from repro.faults.bench import faulted_sweep                 # noqa: E402
from repro.core.paths import CommPath, Opcode                # noqa: E402
from repro.core.sweeps import SweepGrid, SweepRunner         # noqa: E402
from repro.core.throughput import (                          # noqa: E402
    RESULT_CACHE,
    Scenario,
    ThroughputSolver,
)
from repro.net.topology import paper_testbed                 # noqa: E402
from repro.sim import Simulator                              # noqa: E402
from repro.units import KB, MB                               # noqa: E402

FIG4_PAYLOADS = [64, 256, 1024, 4 * KB, 16 * KB, 64 * KB]
FIG8_PAYLOADS = [64 * KB, 256 * KB, 1 * MB, 2 * MB, 4 * MB, 8 * MB]
PATHS = [CommPath.RNIC1, CommPath.SNIC1, CommPath.SNIC2]

#: The vector-engine acceptance grid: a dense Fig-4 payload ramp
#: (0 plus a geometric 64 B .. 1 MB sweep) across four paths and three
#: verbs — 384 single-flow points.
VECTOR_PATHS = [CommPath.RNIC1, CommPath.SNIC1, CommPath.SNIC2,
                CommPath.SNIC3_H2S]
VECTOR_OPS = [Opcode.READ, Opcode.WRITE, Opcode.SEND]


def vector_payloads(n: int = 32) -> list:
    vals = {0}
    step = (1 * MB) ** (1.0 / (n - 2))
    x = 64.0
    while len(vals) < n:
        vals.add(int(x))
        x *= step
    return sorted(vals)[:n]


def smoke_sweep(testbed) -> int:
    """The fixed workload; returns the number of points evaluated."""
    runner = SweepRunner(testbed)
    tp = ThroughputBench(testbed, runner)
    lat = LatencyBench(testbed, runner)
    points = 0
    for path in PATHS:
        for op in (Opcode.READ, Opcode.WRITE):
            tp.payload_sweep(path, op, FIG4_PAYLOADS, requesters=11)
            lat.payload_sweep(path, op, FIG4_PAYLOADS)
            points += 2 * len(FIG4_PAYLOADS)
        tp.payload_sweep(path, Opcode.READ, FIG8_PAYLOADS,
                         requesters=11, metric="gbps")
        points += len(FIG8_PAYLOADS)
    return points


def vector_sweep(testbed, reps: int = 5) -> dict:
    """Scalar vs vector cold wall-time over the 384-point Fig-4 grid.

    The grid is twelve 32-point payload sweeps (one per path and verb).
    The scalar solver's memo is cleared each repetition; the best
    (minimum) time of ``reps`` repetitions is recorded, the standard
    way to strip scheduler noise from a microbenchmark.
    """
    grids = [SweepGrid(path, op, vector_payloads(), requesters=11)
             for path in VECTOR_PATHS for op in VECTOR_OPS]
    points = sum(len(grid) for grid in grids)
    if not numpy_available():
        return {"points": points, "skipped": "numpy not installed"}

    solver = ThroughputSolver()
    batch = BatchSolver()
    flows = [flow for grid in grids for flow in grid.flows()]

    def best(fn) -> float:
        low = float("inf")
        for _ in range(reps):
            RESULT_CACHE.clear()
            start = time.perf_counter()
            fn()
            low = min(low, time.perf_counter() - start)
        return low

    scalar_s = best(lambda: [solver.solve(Scenario(testbed, [flow]))
                             for flow in flows])
    vector_s = best(lambda: [batch.solve(testbed, grid) for grid in grids])

    return {
        "points": points,
        "scalar_cold_s": round(scalar_s, 4),
        "vector_cold_s": round(vector_s, 4),
        "vector_points_per_sec": round(points / vector_s),
        "speedup_vs_scalar": round(scalar_s / vector_s, 2),
    }


#: Operations per reference slice, and the slice time that defines one
#: reference second (about an unloaded two-core VM, so reference and
#: wall rates read alike).  The same mix and scale as
#: ``perfbench/calibrate.py``.
REFERENCE_OPS = 1000
REFERENCE_SLICE_S = 0.0005
#: Slices timed (median taken) right before each DES hot-loop run, and
#: paired reference/DES runs per record (median taken).
REFERENCE_SLICES = 31
DES_PAIRS = 5


def reference_slice() -> float:
    """Seconds of one fixed pure-Python slice: heap push/pop, generator
    send and dict stores, the simulator's own instruction mix."""
    queue: list = []
    table = {}

    def accumulate():
        total = 0
        while True:
            total += yield total

    gen = accumulate()
    next(gen)
    send = gen.send
    start = time.perf_counter()
    for i in range(REFERENCE_OPS):
        heapq.heappush(queue, (i * 7919) % 10007)
        send(i)
        table[i & 1023] = i
    while queue:
        heapq.heappop(queue)
    return time.perf_counter() - start


def des_microbench(processes: int = 100, rounds: int = 200) -> dict:
    """Events/sec of the DES hot loop (timeout-driven coroutines).

    A shared host's speed drifts by 2x within minutes, so each run is
    paired with the median of ``REFERENCE_SLICES`` reference slices
    timed just before it, in the same process.  ``events_per_ref_s``
    is events per *reference second* — wall seconds rescaled by
    ``slice / REFERENCE_SLICE_S`` — and moves with the kernel, not the
    host.  Both rates are medians over ``DES_PAIRS`` pairs.
    """
    raw, calibrated, slices = [], [], []
    for _ in range(DES_PAIRS):
        slice_s = statistics.median(
            reference_slice() for _ in range(REFERENCE_SLICES))
        sim = Simulator()

        def ticker():
            for _ in range(rounds):
                yield sim.timeout(1.0)

        for _ in range(processes):
            sim.process(ticker())
        start = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - start
        raw.append(sim.events_executed / wall)
        calibrated.append(raw[-1] * slice_s / REFERENCE_SLICE_S)
        slices.append(slice_s)
    return {
        "events": sim.events_executed,
        "wall_s": round(sim.events_executed / statistics.median(raw), 4),
        "events_per_sec": round(statistics.median(raw)),
        "reference_slice_s": round(statistics.median(slices), 7),
        "events_per_ref_s": round(statistics.median(calibrated)),
    }


#: Arrival-window length of the serving benchmark.  Long enough that
#: the hybrid engine's guard phase (real DES until the steadiness
#: predicate holds) amortizes and the analytic fast-forward dominates.
SERVING_DURATION_NS = 6_000_000.0


def serving_bench() -> dict:
    """Wall-clock of the mixed-tenant serving run: pure DES vs hybrid.

    Both engines run the same adaptive scheduler scenario; the hybrid
    engine must reproduce the DES completion/rejection/loss counts
    *exactly* (its faithfulness contract — see docs/performance.md and
    the engine rows of ``python -m repro validate``), so the recorded
    speedup is a same-answer speedup, not an approximation trade.  Each engine also
    records simulated requests and simulated ns per wall-second, its
    absolute throughput; events/s is not one, because deleting dead
    events lowers it while making the run faster.
    """
    from repro.sched.serve import ServeSession, mixed_tenant_workload

    def run(engine):
        session = ServeSession(
            mixed_tenant_workload(duration_ns=SERVING_DURATION_NS, seed=0),
            engine=engine)
        start = time.perf_counter()
        session.run_to_completion()
        wall = time.perf_counter() - start
        return session.finalize(), wall, session.cluster.sim.events_executed

    def throughput(report, wall):
        completed = sum(t.completed for t in report.tenants.values())
        return {"req_per_s": round(completed / wall, 1),
                "sim_ns_per_s": round(report.elapsed_ns / wall)}

    des_report, des_s, des_events = run("event")
    hyb_report, hyb_s, hyb_events = run("hybrid")
    counts = lambda r: {name: (t.completed, t.rejected, t.lost)  # noqa: E731
                        for name, t in r.tenants.items()}
    totals = counts(des_report)
    return {
        "des_serving": {
            "duration_ns": SERVING_DURATION_NS,
            "wall_s": round(des_s, 4),
            **throughput(des_report, des_s),
            "events": des_events,
            "events_per_sec": round(des_events / des_s),
            "completed": sum(c for c, _r, _l in totals.values()),
            "rejected": sum(r for _c, r, _l in totals.values()),
        },
        "hybrid_serving": {
            "wall_s": round(hyb_s, 4),
            **throughput(hyb_report, hyb_s),
            "events": hyb_events,
            "speedup_vs_des": round(des_s / hyb_s, 2),
            "counts_match_des": counts(hyb_report) == totals,
            "stats": hyb_report.hybrid_stats,
        },
    }


#: Arrival-window length per machine of the shard-scaling benchmark.
SHARD_DURATION_NS = 1_200_000.0
#: Worker-process counts swept by the scaling benchmark; the plan has
#: ``max(SHARD_JOBS)`` machines, each exporting bulk traffic to the
#: next over the cross-shard fabric.
SHARD_JOBS = (1, 2, 4)


def shard_scaling_bench(duration_ns: float = SHARD_DURATION_NS,
                        jobs: tuple = SHARD_JOBS) -> dict:
    """Wall-clock scaling of lockstep sharding with cross-shard traffic.

    ``jobs=1`` is the in-process reference; every multiprocess point
    must reproduce its merged counts and decision log bit-exactly
    (the one-window delivery contract of ``repro.sim.shard``).  Real
    wall-clock scaling needs >= 2 cores — the recorded ``cores`` field
    says what this run had, and the ``--check`` gate skips the speedup
    bar (with a note) on single-core machines.
    """
    from dataclasses import replace

    from repro.sched.serve import mixed_tenant_workload
    from repro.sim.shard import ShardPlan, ShardSpec, run_sharded

    n_shards = max(jobs)

    def plan() -> ShardPlan:
        names = [f"m{i}" for i in range(n_shards)]
        shards = []
        for i in range(n_shards):
            tenants = tuple(
                replace(t, name=f"{t.name}-{i}", seed=t.seed + 37 * i)
                for t in mixed_tenant_workload(duration_ns=duration_ns,
                                               seed=0))
            exports = {t.name: names[(i + 1) % n_shards]
                       for t in tenants if t.bulk}
            shards.append(ShardSpec(name=names[i], tenants=tenants,
                                    exports=exports))
        return ShardPlan(shards=tuple(shards))

    def key(report):
        return (sorted((t.name, t.completed, t.rejected, t.lost)
                       for t in report.tenants.values()),
                [d.as_tuple() for d in report.decisions])

    def run(n_jobs):
        start = time.perf_counter()
        report = run_sharded(plan(), jobs=n_jobs)
        return report, time.perf_counter() - start

    reference, ref_s = run(1)
    ref_key = key(reference)
    points = {"1": {"wall_s": round(ref_s, 4), "speedup_vs_jobs1": 1.0,
                    "bit_identical": True}}
    for n_jobs in jobs:
        if n_jobs == 1:
            continue
        report, wall = run(n_jobs)
        points[str(n_jobs)] = {
            "wall_s": round(wall, 4),
            "speedup_vs_jobs1": round(ref_s / wall, 2),
            "bit_identical": key(report) == ref_key,
        }
    return {
        "duration_ns": duration_ns,
        "shards": n_shards,
        "cores": os.cpu_count(),
        "cross_shard_msgs": int(reference.counters.get("xshard.sent", 0)),
        "jobs": points,
    }


#: Machine counts for the rack-scaling record.  6 is the floor the
#: canonical population fits under the 20-clients-per-machine cap;
#: 12 is the rack as ``examples/rack_scenario.json`` describes it.
CLUSTER_MACHINES = (6, 12)


def cluster_scaling_bench(machines: tuple = CLUSTER_MACHINES) -> dict:
    """Wall-clock and headline metrics of the canonical rack scenario.

    Runs ``examples/rack_scenario.json`` (112 population tenants,
    ~1.09M simulated users) at each machine count, and re-runs the
    smallest rack at ``jobs=2`` to record that the declarative cluster
    path keeps the lockstep bit-identity contract end to end
    (placement, LB ingress, cluster scheduler and all).
    """
    from repro.api.schema import ClusterScenario
    from repro.cluster import run_cluster

    doc = ClusterScenario.from_file(
        os.path.join(REPO_ROOT, "examples", "rack_scenario.json"))

    def digest(report):
        return (sorted((t.name, t.completed, t.rejected, t.lost)
                       for t in report.tenants.values()),
                [d.as_tuple() for d in report.cluster_decisions])

    racks = {}
    reference = None
    for count in machines:
        start = time.perf_counter()
        report = run_cluster(doc.resized(count), jobs=1)
        wall = time.perf_counter() - start
        if count == min(machines):
            reference = report
        racks[str(count)] = {
            "wall_s": round(wall, 4),
            "tenants": len(report.tenants),
            "users": report.total_users,
            "slo_goodput_gbps": round(report.total_slo_goodput_gbps, 2),
            "slo_attainment": round(report.slo_attainment, 4),
            "cluster_moves": len(report.cluster_decisions),
        }
    many = run_cluster(doc.resized(min(machines)), jobs=2)
    return {
        "scenario": "examples/rack_scenario.json",
        "machines": racks,
        "jobs2_bit_identical": digest(many) == digest(reference),
    }


#: Replicates and window length of the CI half-width record.  The
#: duration is longer than the validate default so the window archive
#: holds enough warm windows for a meaningful batch-means interval.
STATS_CI_SEEDS = 3
STATS_CI_DURATION_NS = 2_400_000.0


def stats_ci_bench() -> dict:
    """Cross-seed + within-run CI half-widths of the adaptive scenario.

    Records, per tenant, the warm-up-truncated batch-means estimate of
    windowed p99 and goodput (mean, CI half-width, warm window count)
    plus the cross-seed half-width of the SLO-goodput headline.  The
    point of keeping these in ``BENCH_sweep.json`` is trend tracking:
    a half-width that suddenly grows means the simulator got noisier
    (or a seed stopped being absorbed), which no mean-only record
    would catch.  Zero cross-seed half-width is expected — the serving
    families are seed-invariant (docs/validation.md).
    """
    from repro.stats.kernels import CONFIDENCE
    from repro.stats.replication import replicate

    rep = replicate("adaptive", seeds=STATS_CI_SEEDS,
                    duration_ns=STATS_CI_DURATION_NS)
    tenants = {}
    for name in rep.tenant_names():
        p99 = rep.within_run(name, field="p99_ns")
        goodput = rep.within_run(name, field="goodput_gbps")
        tenants[name] = {
            "p99_ns": {"mean": round(p99.mean, 1),
                       "half_width": round(p99.half_width, 1),
                       "windows": p99.n},
            "goodput_gbps": {"mean": round(goodput.mean, 4),
                             "half_width": round(goodput.half_width, 4),
                             "windows": goodput.n},
        }
    total = rep.total_slo_goodput()
    return {
        "family": "adaptive",
        "seeds": STATS_CI_SEEDS,
        "duration_ns": STATS_CI_DURATION_NS,
        "confidence": CONFIDENCE,
        "tenants": tenants,
        "slo_goodput_gbps": {
            "mean": round(total.mean, 4),
            "cross_seed_half_width": round(total.half_width, 4),
        },
    }


def time_suite() -> float:
    """Wall-clock of the full pytest-benchmark suite, seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks/", "-q"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("benchmark suite failed")
    return wall


#: Cold smoke repetitions, best-of, both when recording and under
#: ``--check``.  The sweep takes 1-2 ms once warm; the first
#: repetition also pays the lazy numpy import and the first-call
#: caches (about 0.15 s), so a single repetition records that instead.
#: Whole processes still differ: on a 2-core VM the best of 20 reads
#: about 1.2 ms in some and 2.0 ms in others, so commit the median of
#: several processes as the record.
SMOKE_REPS = 20


def timed_smoke(testbed, reps: int = SMOKE_REPS):
    """(points, best cold seconds) of the smoke workload."""
    points = 0
    cold_s = float("inf")
    for _ in range(reps):
        RESULT_CACHE.clear()
        start = time.perf_counter()
        points = smoke_sweep(testbed)
        cold_s = min(cold_s, time.perf_counter() - start)
    return points, cold_s


def check_regression(recorded_path: str, cold_s: float, des: dict,
                     serving: dict) -> int:
    """Exit status: 1 when any recorded performance bar regressed.

    Three gates, all against the recorded ``BENCH_sweep.json``:

    * cold smoke-sweep wall-time within ``BENCH_CHECK_TOLERANCE``;
    * DES hot-loop events per reference second monotone (no worse
      than the record, minus the same tolerance);
    * each serving engine's simulated requests per wall-second no worse
      than its record, minus the same tolerance (skipped with a note
      when the record has none), and the hybrid engine reproducing the
      pure-DES counts exactly — the faithfulness bar of the hybrid
      layer.  The floors are absolute: a ratio against the DES would
      fall whenever the DES got faster.
    """
    tolerance = float(os.environ.get("BENCH_CHECK_TOLERANCE", "0.25"))
    try:
        with open(recorded_path) as handle:
            recorded = json.load(handle)
        baseline = float(recorded["smoke_sweep"]["cold_s"])
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench check skipped: no usable baseline in "
              f"{recorded_path} ({exc})")
        return 0
    failures = 0

    limit = baseline * (1.0 + tolerance)
    verdict = "OK" if cold_s <= limit else "REGRESSED"
    failures += cold_s > limit
    print(f"bench check: cold smoke sweep {cold_s:.4f} s vs recorded "
          f"{baseline:.4f} s (limit {limit:.4f} s, "
          f"tolerance {tolerance:.0%}) -> {verdict}")

    recorded_eps = float(
        recorded.get("des", {}).get("events_per_ref_s", 0.0))
    if recorded_eps:
        des_eps = des["events_per_ref_s"]
        floor = recorded_eps * (1.0 - tolerance)
        verdict = "OK" if des_eps >= floor else "REGRESSED"
        failures += des_eps < floor
        print(f"bench check: DES hot loop {des_eps:,.0f} events/ref-s vs "
              f"recorded {recorded_eps:,.0f} (floor {floor:,.0f}; raw "
              f"{des['events_per_sec']:,.0f} events/s) -> {verdict}")

    for section in ("des_serving", "hybrid_serving"):
        rate = serving[section]["req_per_s"]
        recorded_rate = float(recorded.get(section, {}).get("req_per_s", 0.0))
        if not recorded_rate:
            print(f"bench check: {section} {rate:,.0f} req/s -> SKIPPED "
                  f"(no recorded req_per_s)")
            continue
        floor = recorded_rate * (1.0 - tolerance)
        verdict = "OK" if rate >= floor else "REGRESSED"
        failures += rate < floor
        print(f"bench check: {section} {rate:,.0f} req/s vs recorded "
              f"{recorded_rate:,.0f} (floor {floor:,.0f}) -> {verdict}")
    if not serving["hybrid_serving"]["counts_match_des"]:
        failures += 1
        print("bench check: hybrid serving counts DIVERGED from pure DES "
              "-> FAITHFULNESS BROKEN")

    failures += check_shard_scaling(shard_scaling_bench())

    return 1 if failures else 0


def check_shard_scaling(shard: dict) -> int:
    """Shard-scaling gate: bit-identity always; speedup when cores allow.

    Every multiprocess point must merge bit-identically with the
    in-process reference.  The ``jobs=2`` wall-clock speedup must reach
    ``BENCH_CHECK_SHARD_MIN`` (default 1.3x) when the machine has at
    least 2 cores; on single-core machines the speedup bar is skipped
    with a note (lockstep over pipes cannot beat in-process there).
    """
    shard_min = float(os.environ.get("BENCH_CHECK_SHARD_MIN", "1.3"))
    failures = 0
    for n_jobs, point in sorted(shard["jobs"].items()):
        if not point["bit_identical"]:
            failures += 1
            print(f"bench check: sharded jobs={n_jobs} DIVERGED from the "
                  "in-process reference -> LOCKSTEP BROKEN")
    cores = shard.get("cores") or 1
    speedup = shard["jobs"].get("2", {}).get("speedup_vs_jobs1", 0.0)
    if cores >= 2:
        verdict = "OK" if speedup >= shard_min else "REGRESSED"
        failures += speedup < shard_min
        print(f"bench check: sharded jobs=2 {speedup:.2f}x vs jobs=1 "
              f"(floor {shard_min:.1f}x, {cores} cores) -> {verdict}")
    else:
        print(f"bench check: sharded jobs=2 {speedup:.2f}x vs jobs=1 "
              f"-> SKIPPED (single-core machine; bit-identity still "
              "checked)")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(REPO_ROOT,
                                                      "BENCH_sweep.json"))
    parser.add_argument("--no-suite", action="store_true",
                        help="skip timing the full pytest-benchmark "
                             "suite (smoke sweep + DES only)")
    parser.add_argument("--check", action="store_true",
                        help="compare the cold smoke sweep against the "
                             "recorded --out file and exit 1 on a "
                             ">BENCH_CHECK_TOLERANCE regression; does "
                             "not rewrite the file")
    parser.add_argument("--reps", type=int, default=SMOKE_REPS,
                        help="cold-sweep repetitions, best-of (default: "
                             f"{SMOKE_REPS}, recording and --check alike)")
    args = parser.parse_args(argv)

    testbed = paper_testbed()

    points, cold_s = timed_smoke(testbed, reps=args.reps)
    if args.check:
        return check_regression(args.out, cold_s, des_microbench(),
                                serving_bench())

    report = {
        "generated_by": "scripts/bench_trajectory.py",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "smoke_sweep": {
            "points": points,
            "cold_s": round(cold_s, 4),
        },
        "vector_sweep": vector_sweep(testbed),
        "des": des_microbench(),
        # Pure DES vs the hybrid analytic/DES serving engine on the
        # same adaptive multi-tenant scenario (same-answer speedup).
        **serving_bench(),
        # Goodput under injected packet loss (DES + RC retransmission);
        # the 0.0 row doubles as the pay-as-you-go reference.
        "faulted_sweep": faulted_sweep(rates=(0.0, 0.001, 0.01)),
        # Multiprocess lockstep scaling with cross-shard bulk traffic
        # (jobs=1 in-process reference; bit-identity always enforced).
        "shard_scaling": shard_scaling_bench(),
        # The canonical declarative rack (112 tenants, ~1.09M users)
        # at growing machine counts, with the jobs=2 identity check.
        "cluster_scaling": cluster_scaling_bench(),
        # Confidence-interval half-widths of the headline serving
        # metrics (repro.stats batch-means over the window archive);
        # tracked so noise growth shows up in the artifact diff.
        "stats_ci": stats_ci_bench(),
    }

    if not args.no_suite:
        wall = time_suite()
        # Wall-clock only: the suite has grown since the seed (serving
        # and rack benchmarks), so no ratio against an older suite.
        report["bench_suite"] = {"wall_s": round(wall, 2)}

    # Paired perfbench measurements (parent vs change, recorded with
    # each speed claim) are not produced here; carry them over.
    try:
        with open(args.out) as handle:
            pairs = json.load(handle).get("perfbench_pairs")
    except (OSError, ValueError):
        pairs = None
    if pairs:
        report["perfbench_pairs"] = pairs

    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
