"""The repo benchmark: simulated work per host second, per workload.

    python3 perfbench/run.py --workload serve-des --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each repetition of a workload is one fresh process (``job.py``) that
builds the inputs from the seed, runs one fixed, deterministic job and
checks its simulated answers.  Repetitions run one after another until
``--seconds`` have passed (at least three); end-to-end metrics are the
medians over them.  With ``--trace 1`` every plain repetition is
followed by a traced one, and the metrics printed are the per-layer
ones (medians over the traced repetitions) plus ``trace.overhead``.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Above it, every metric is printed by name
and unit, with the answer check and a digest of the simulated answers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Fewest plain repetitions behind a median.
MIN_REPS = 3
#: Every workload's repetitions must end well inside three minutes.
DEADLINE_S = 165.0

#: Metric names and units, and why each workload exists, as declared.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}


class BenchError(RuntimeError):
    """A repetition could not run (not a wrong answer)."""


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    # One process is the whole load: no BLAS/OpenMP thread pools.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _job(args: List[str], deadline: float) -> dict:
    """Run ``job.py`` once; its last stdout line is the result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the repetition started")
    command = [sys.executable, str(HERE / "job.py")] + args
    try:
        proc = subprocess.run(command, cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"repetition did not finish in {timeout:.0f} s: "
                         f"{' '.join(args)}")
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"repetition failed ({' '.join(args)}):\n{tail}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"repetition printed no result ({' '.join(args)})")
    return json.loads(lines[-1])


def _repetition(name: str, seed: int, traced: bool,
                deadline: float) -> dict:
    args = ["--workload", name, "--seed", str(seed),
            "--t0", repr(time.monotonic())]
    if traced:
        args.append("--trace")
    return _job(args, deadline)


def measure(name: str, seed: int, seconds: float, trace: bool,
            deadline: float):
    """Plain (and traced) repetitions until ``seconds`` have passed."""
    stop = time.monotonic() + seconds
    plain: List[dict] = []
    traced: List[dict] = []
    while True:
        plain.append(_repetition(name, seed, False, deadline))
        if trace:
            traced.append(_repetition(name, seed, True, deadline))
        if time.monotonic() >= stop and len(plain) >= MIN_REPS:
            return plain, traced


def end_to_end(plain: List[dict]) -> Dict[str, float]:
    median = statistics.median
    return {
        "work_per_s": median(r["work"] / r["run_s"] for r in plain),
        "setup_s": median(r["setup_s"] for r in plain),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
        "paper_rel_err": plain[0]["paper_rel_err"],
    }


def per_layer(plain: List[dict], traced: List[dict]) -> Dict[str, float]:
    median = statistics.median
    metrics = {key: median(r["layers"][key] for r in traced)
               for key in traced[0]["layers"]}
    metrics["trace.overhead"] = (median(r["run_s"] for r in traced)
                                 / median(r["run_s"] for r in plain))
    return metrics


def verdict(plain: List[dict], traced: List[dict]):
    """(failures, attempted, failed) over every repetition."""
    reps = plain + traced
    failures = sorted({f for r in reps for f in r["failures"]})
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["attempted"] for r in reps if r["failures"])
    if len({r["paper_rel_err"] for r in reps}) > 1:
        failures.append("paper_rel_err differs between repetitions")
    digests = {r["digest_sha"] for r in reps}
    if len(digests) > 1:
        failures.append(f"answers differ between repetitions (plain "
                        f"{[r['digest_sha'] for r in plain]}, traced "
                        f"{[r['digest_sha'] for r in traced]})")
        failed = attempted
    return failures, attempted, failed


def _print_digest(first: dict) -> None:
    digest = first["digest"]
    print(f"answer digest {first['digest_sha']}:")
    if "tenants" in digest:
        print(f"  elapsed {digest['elapsed_ns']:.0f} simulated ns; "
              "tenant: completed rejected lost p50_ns p99_ns path moves")
        for tenant, row in digest["tenants"].items():
            print(f"  {tenant}: {' '.join(str(v) for v in row)}")
        if digest.get("hybrid"):
            print(f"  hybrid: {digest['hybrid']}")
        for decision in digest["decisions"]:
            print(f"  decision {tuple(decision)}")
        for decision in digest.get("cluster_decisions", ()):
            print(f"  cluster decision {tuple(decision)}")
    else:
        print(f"  {digest['points_per_pass']} points per testbed pass, "
              f"values sha256 {digest['values_sha'][:16]}")
        for family, check, value, grade in digest["rows"]:
            print(f"  {family}/{check}: {value} {grade}")


def report(name: str, seed: int, plain: List[dict],
           traced: List[dict]) -> dict:
    """Print every metric by name and unit; return the result object."""
    failures, attempted, failed = verdict(plain, traced)
    e2e = end_to_end(plain)
    first = plain[0]
    print(f"== {name} (seed {seed}; {len(plain)} plain, {len(traced)} "
          "traced repetitions) ==")
    print(f"why: {WHY[name]}")
    if first["work_unit"] == "requests":
        print(f"  work_per_s     {e2e['work_per_s']:.1f} 1/s = sim_req_per_s "
              f"({first['work']} simulated requests completed)")
        sim_ns = statistics.median(r["sim_ns"] / r["run_s"] for r in plain)
        print(f"  sim_ns_per_s   {sim_ns:.1f} ns/s ({first['sim_ns']:.0f} "
              "simulated ns)")
    else:
        print(f"  work_per_s     {e2e['work_per_s']:.1f} 1/s = points_per_s "
              f"({first['work']} sweep points, cold caches)")
    print(f"  setup_s        {e2e['setup_s']:.4f} s")
    print(f"  peak_rss_mb    {e2e['peak_rss_mb']:.1f} MB")
    refused = ("simulated requests rejected or lost, of arrivals"
               if first["work_unit"] == "requests"
               else "validation rows failed, of rows graded")
    print(f"  failed_share   {first['refused'] / first['refused_of']:.6f} "
          f"ratio ({first['refused']} {refused} {first['refused_of']})")
    parts = ", ".join(f"{k} {v:.4f}" for k, v in first["paper_errors"].items())
    print(f"  paper_rel_err  {e2e['paper_rel_err']:.6f} ratio "
          f"({parts}; simulated)")
    print(f"  run phase      "
          f"{statistics.median(r['run_s'] for r in plain):.4f} s "
          "(calibrated host seconds per repetition)")
    if traced:
        layers_ = per_layer(plain, traced)
        tail = traced[0]["window_tail_pct"]
        print(f"per layer (median of {len(traced)} traced repetitions"
              + (f"; shard.window_ms_tail is p{tail}" if tail else "")
              + "):")
        for key, unit in PER_LAYER.items():
            print(f"  {key:<28} {layers_[key]:.6g} {unit}")
        self_s = traced[0]["layer_self_s"]
        print(f"  self time by layer, first traced repetition "
              f"(sum {sum(self_s.values()):.4f} s, traced wall "
              f"{traced[0]['traced_s']:.4f} s): "
              + ", ".join(f"{k} {v:.4f}" for k, v in self_s.items() if v))
        metrics = {k: {"value": layers_[k], "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u}
                   for k, u in END_TO_END.items()}
    if failures:
        print("answer check: FAILED")
        for failure in failures:
            print(f"  {failure}")
    else:
        print(f"answer check: ok ({', '.join(first['checks'])}; "
              f"{len(plain) + len(traced)} repetitions agree)")
    _print_digest(first)
    return {"correct": not failures, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Simulated work per host second, per workload.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program's source ({ROOT / 'src' / 'repro'}) "
              "is missing; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        _job(["--warm-up"], time.monotonic() + DEADLINE_S)
        results = []
        for name in names:
            plain, traced = measure(name, args.seed, args.seconds,
                                    bool(args.trace),
                                    time.monotonic() + DEADLINE_S)
            results.append(report(name, args.seed, plain, traced))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print(json.dumps(result))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
