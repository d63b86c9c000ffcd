"""One repetition of one workload, in a fresh process.

``run.py`` starts this once per repetition and reads the single JSON
line it prints: set-up and run-phase host seconds, the simulated work,
peak memory, the answer digest and check, and, with ``--trace``, the
per-layer measurements.  ``--t0`` is the parent's monotonic clock just
before it started this process, so set-up time includes interpreter
start and package import.

    PYTHONPATH=src python3 perfbench/job.py --workload serve-des --seed 1
"""

import time

T_START = time.monotonic()   # before any package import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from calibrate import Calibrator  # noqa: E402

TRACE_DIR = Path(__file__).resolve().parent / "out"

#: Percentiles tried, highest first, for the window-time tail: the
#: highest with at least ten windows beyond it is reported.
_TAIL_LADDER = (99, 98, 95, 90, 80, 75, 60, 50)


def _percentile(ordered: List[float], pct: float) -> float:
    return ordered[min(len(ordered) - 1, int(pct / 100 * len(ordered)))]


def window_times(barriers: List[float]) -> Dict[str, float]:
    """Median and tail wall time (ms) of the lockstep windows."""
    ordered = sorted((b - a) * 1e3 for a, b in zip(barriers, barriers[1:]))
    if not ordered:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 0}
    tail_pct = next((p for p in _TAIL_LADDER
                     if len(ordered) * (1 - p / 100) >= 10), 50)
    return {"p50": _percentile(ordered, 50),
            "tail": _percentile(ordered, tail_pct), "tail_pct": tail_pct}


def layer_metrics(trace: layers.LayerTrace, outcome: workloads.Outcome,
                  solver_hits: int, solver_misses: int):
    """The per-layer metrics of one traced repetition, and the window
    percentile ``shard.window_ms_tail`` reports."""
    self_s = trace.self_times()
    counts, timers, sim = trace.counts, trace.timers, outcome.counters
    requests = outcome.work if outcome.work_unit == "requests" else 0
    windows = window_times(trace.barriers)
    lookups = solver_hits + solver_misses
    return {
        "sim.events": counts["sim.events"],
        "sim.events_per_req": (counts["sim.events"] / requests
                               if requests else 0.0),
        "sim.self_s": self_s.get("sim", 0.0),
        "pcie.transfers": counts["pcie.transfers"],
        "pcie.tlps": sim.get("pcie.tlps", 0),
        "pcie.tlps_per_transfer": (sim.get("pcie.tlps", 0)
                                   / counts["pcie.transfers"]
                                   if counts["pcie.transfers"] else 0.0),
        "links.sends": counts["links.sends"],
        "links.self_s": self_s.get("links", 0.0),
        "rdma.posts": counts["rdma.posts"],
        "rdma.retransmits": sim.get("rdma.retransmits", 0),
        "rdma.self_s": self_s.get("rdma", 0.0),
        "runtime.admitted": sim.get("runtime.admitted", 0),
        "runtime.rejected": sim.get("runtime.rejected", 0),
        "runtime.completion_records": counts["runtime.completion_records"],
        "runtime.self_s": self_s.get("runtime", 0.0),
        "slo.observes": counts["slo.observes"],
        "slo.self_s": self_s.get("slo", 0.0),
        "slo.merge_s": timers["slo.merge_s"],
        "sched.ticks": counts["sched.ticks"],
        "sched.decisions": sim.get("sched.decisions", 0),
        "sched.self_s": self_s.get("sched", 0.0),
        "hybrid.flips": sim.get("hybrid.flips", 0),
        "hybrid.splices": sim.get("hybrid.splices", 0),
        "hybrid.analytic_share": sim.get("hybrid.analytic_share", 0.0),
        "hybrid.self_s": self_s.get("hybrid", 0.0),
        "shard.windows": counts["shard.windows"],
        "shard.window_ms_p50": windows["p50"],
        "shard.window_ms_tail": windows["tail"],
        "shard.advance_s": timers["shard.advance_s"],
        "shard.self_s": self_s.get("shard", 0.0),
        "shard.audit_s": timers["shard.audit_s"],
        "shard.merge_s": timers["shard.merge_s"],
        "xshard.msgs": counts["xshard.msgs"],
        "cluster.compile_s": timers["cluster.compile_s"],
        "cluster.observe_s": timers["cluster.observe_s"],
        "cluster.moves": sim.get("cluster.moves", 0),
        "solver.points": counts["solver.points"],
        "solver.cache_hit_rate": solver_hits / lookups if lookups else 0.0,
        "solver.self_s": self_s.get("solver", 0.0),
        "latency.self_s": self_s.get("latency", 0.0),
        "harness.self_s": self_s.get("harness", 0.0),
        "report.self_s": self_s.get("report", 0.0),
        "other.self_s": self_s.get(layers.ROOT, 0.0),
        "trace.spans": trace.n_spans,
    }, windows["tail_pct"]


def warm_up() -> None:
    """Import every module a repetition touches (compiling bytecode)."""
    trace = layers.LayerTrace("warm-up")
    layers.install(trace)
    trace.uninstall()
    import repro.api.schema  # noqa: F401
    import repro.core.flows  # noqa: F401
    import repro.stats.validate  # noqa: F401


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--t0", type=float, default=None,
                        help="monotonic clock when the process was started")
    parser.add_argument("--trace", action="store_true",
                        help="per-layer spans; the Chrome/Perfetto trace "
                             "goes to perfbench/out/")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the job (the benchmark's own tests)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="rack: lockstep worker processes")
    parser.add_argument("--warm-up", action="store_true",
                        help="only import the program, then exit")
    args = parser.parse_args(argv)
    if args.warm_up:
        warm_up()
        print(json.dumps({"warm_up": "ok"}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    calibrator = Calibrator()
    calibrator.start()
    t0 = args.t0 if args.t0 is not None else T_START
    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"

    trace = None
    if args.trace:
        from repro.core.throughput import RESULT_CACHE

        trace = layers.LayerTrace(run_id)
        layers.install(trace)
        hits, misses = RESULT_CACHE.hits, RESULT_CACHE.misses
        traced_from = time.monotonic()
        trace.open_root()
    clock = workloads.Clock()
    outcome = workloads.WORKLOADS[args.workload](
        args.seed, clock, scale=args.scale, jobs=args.jobs)
    if trace is not None:
        trace.close_root()
        traced_to = time.monotonic()
        trace.uninstall()
    calibrator.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    paper = workloads.paper_rel_err()

    result = {
        "run_id": run_id,
        "setup_s": calibrator.calibrated(t0, clock.run_start),
        "run_s": calibrator.calibrated(clock.run_start, clock.run_end),
        "setup_wall_s": clock.run_start - t0,
        "run_wall_s": clock.run_end - clock.run_start,
        "host_speed": calibrator.window(clock.run_start, clock.run_end)[1],
        "work": outcome.work,
        "work_unit": outcome.work_unit,
        "sim_ns": outcome.sim_ns,
        "attempted": outcome.attempted,
        "refused": outcome.refused,
        "refused_of": outcome.refused_of,
        "peak_rss_mb": peak_rss_mb,
        "paper_rel_err": max(paper.values()),
        "paper_errors": paper,
        "checks": outcome.checks,
        "failures": outcome.failures,
        "digest_sha": outcome.digest_sha,
        "digest": outcome.digest,
    }
    if trace is not None:
        metrics, tail_pct = layer_metrics(
            trace, outcome, RESULT_CACHE.hits - hits,
            RESULT_CACHE.misses - misses)
        total = sum(trace.self_s)
        if abs(total - trace.wall_s) > 1e-6 * trace.wall_s:
            result["failures"].append(
                f"trace: per-layer self times add up to {total:.6f} s, "
                f"the traced wall time is {trace.wall_s:.6f} s")
        # Calibration slices land in whichever span they interrupt, in
        # proportion to its time: rescale every traced time to
        # calibrated seconds with the traced region's own factor.
        stolen, factor = calibrator.window(traced_from, traced_to)
        scale = factor * (1 - stolen / trace.wall_s)
        for key in metrics:
            if key.endswith("_s") or ".window_ms_" in key:
                metrics[key] *= scale
        result.update(layers=metrics, window_tail_pct=tail_pct,
                      layer_self_s={k: v * scale for k, v
                                    in trace.self_times().items()},
                      traced_s=trace.wall_s * scale)
        TRACE_DIR.mkdir(exist_ok=True)
        trace.write_chrome(str(TRACE_DIR / f"{args.workload}.trace.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
