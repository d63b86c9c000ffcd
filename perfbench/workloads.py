"""The benchmark's workloads: inputs from a seed, one run, the answer check.

Each workload is one deterministic batch job of fixed simulated work.
``run(seed, clock, scale, jobs)`` builds the inputs, runs the job with
the clock marking where set-up ends and the run phase begins, checks
the simulated answers and returns an :class:`Outcome`.  ``scale``
shrinks the job for the benchmark's own tests; the benchmark always
runs at ``scale=1``.

* ``serve-des`` — the four-tenant mix under the adaptive scheduler on
  the default DES engine.
* ``serve-hybrid`` — the same mix on the hybrid analytic/DES engine,
  over twenty times the simulated span.
* ``rack`` — ``rack.json``: the canonical 12-machine rack document plus
  three pinned 4 KB WRITE streams that overload one machine, so the
  cluster scheduler offloads over the fabric.  In-process lockstep
  driver (``jobs=1``): ``run_sharded`` starts one worker per machine
  whenever ``jobs > 1``, twelve processes on a two-core host.
* ``figure-sweep`` — a cold dense solver pass over every path, verb,
  payload and requester count, on several testbeds, plus the paper's
  Fig-4/9/11 validation families.

Arrivals are periodic today, so the serving answers do not depend on
the seed: it reaches the tenants' request streams (whose op draws the
mix ignores) and, in ``figure-sweep``, picks which client counts the
perturbed testbeds use; none of it changes a count.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

RACK_DOC = Path(__file__).resolve().parent / "rack.json"

#: Simulated span of the serving mixes.
SERVE_DES_NS = 1_000_000.0
SERVE_HYBRID_NS = 20_000_000.0

#: Geometric payload ramp for the figure sweep: 64 B to 1 MiB, x sqrt(2).
SWEEP_PAYLOADS = tuple(int(64 * 2 ** (i / 2)) for i in range(29))
#: Perturbed testbeds per figure-sweep run (client counts 11..20; the
#: sweeps use at most 11 requesters, so every testbed gives the same
#: answers under a different cache key).
SWEEP_TESTBEDS = 8


@dataclass
class Outcome:
    """What one run did, and whether its answers hold."""

    work: int               # simulated requests completed / points solved
    work_unit: str          # "requests" or "points"
    sim_ns: float           # simulated ns advanced (0 for the sweep)
    attempted: int          # arrivals offered / points + graded rows
    refused: int            # rejected + lost requests / failed rows
    refused_of: int         # arrivals / graded rows
    checks: List[str]       # the answer-check clauses evaluated
    failures: List[str]     # the clauses that failed
    digest: dict            # the simulated answers (JSON-able)
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def digest_sha(self) -> str:
        text = json.dumps(self.digest, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


class Clock:
    """Set-up and run-phase boundaries on the monotonic clock."""

    def __init__(self):
        self.run_start: Optional[float] = None
        self.run_end: Optional[float] = None

    def start(self) -> None:
        if self.run_start is None:
            self.run_start = time.monotonic()

    def stop(self) -> None:
        self.run_end = time.monotonic()

    def start_at_first_event(self) -> None:
        """Start the run phase when a simulator first starts running.

        Patches ``run`` on both event-queue classes with a one-shot
        hook that restores the previous attribute before it runs, so
        the run phase itself is not instrumented.
        """
        from repro.sim.batchq import BatchSimulator
        from repro.sim.engine import Simulator

        previous = {cls: cls.__dict__["run"]
                    for cls in (Simulator, BatchSimulator)}

        def hook(cls):
            def run(sim, *args, **kwargs):
                for owner, original in previous.items():
                    owner.run = original
                self.start()
                return previous[cls](sim, *args, **kwargs)
            return run

        for cls in previous:
            cls.run = hook(cls)


# -- serving ------------------------------------------------------------------


def _serving_outcome(report) -> Outcome:
    from repro.stats.invariants import check_report

    results = check_report(report)
    tenants = report.tenants
    completed = sum(t.completed for t in tenants.values())
    rejected = sum(t.rejected for t in tenants.values())
    lost = sum(t.lost for t in tenants.values())
    arrivals = sum(terms[0] for terms in report.conservation.values())
    hybrid = report.hybrid_stats or {}
    counters = report.counters
    digest = {
        "elapsed_ns": report.elapsed_ns,
        "tenants": {name: [t.completed, t.rejected, t.lost, t.p50_ns,
                           t.p99_ns, t.final_path, t.migrations]
                    for name, t in sorted(tenants.items())},
        "decisions": [list(d.as_tuple()) for d in report.decisions],
        "hybrid": hybrid,
    }
    return Outcome(
        work=completed, work_unit="requests", sim_ns=report.elapsed_ns,
        attempted=arrivals, refused=rejected + lost, refused_of=arrivals,
        checks=sorted({r.name for r in results}),
        failures=[str(r) for r in results if not r.ok], digest=digest,
        counters={
            "pcie.tlps": (counters.get("pcie0.tlps", 0)
                          + counters.get("pcie1.tlps", 0)),
            "rdma.retransmits": counters.get("rdma.retransmits", 0),
            "runtime.admitted": arrivals - rejected,
            "runtime.rejected": rejected,
            "sched.decisions": len(report.decisions),
            "hybrid.flips": hybrid.get("flips", 0),
            "hybrid.splices": hybrid.get("splices", 0),
            "hybrid.analytic_share": (hybrid.get("analytic_completions", 0)
                                      / completed if completed else 0.0),
        })


def _serve(engine: Optional[str], duration_ns: float) -> Callable:
    def run(seed: int, clock: Clock, scale: float = 1.0,
            jobs: int = 1) -> Outcome:
        from repro.sched.serve import ServeSession, mixed_tenant_workload

        tenants = mixed_tenant_workload(duration_ns * scale, seed=seed)
        clock.start_at_first_event()
        kwargs = {"engine": engine} if engine else {}
        session = ServeSession(tenants, **kwargs)
        session.run_to_completion()
        report = session.finalize()
        clock.stop()
        return _serving_outcome(report)
    return run


def _rack_scenario(seed: int, scale: float = 1.0):
    """``rack.json`` with the seed in its explicit tenants' streams."""
    from repro.api.schema import ClusterScenario

    raw = json.loads(RACK_DOC.read_text())
    raw["duration_ns"] *= scale
    for tenant in raw["tenants"]:
        tenant["requests"] = int(raw["duration_ns"] / tenant["interval_ns"])
        tenant["seed"] = seed
    return ClusterScenario.from_dict(raw)


def _rack(seed: int, clock: Clock, scale: float = 1.0,
          jobs: int = 1) -> Outcome:
    from repro.cluster import run_cluster

    scenario = _rack_scenario(seed, scale)
    if jobs > 1:
        clock.start()     # the workers run the simulators
    else:
        clock.start_at_first_event()
    report = run_cluster(scenario, jobs=jobs)
    clock.stop()
    # The merged report carries the fabric and cluster-scheduler
    # counters, so the check includes the cluster-flow identity.
    outcome = _serving_outcome(report.serve)
    outcome.digest["cluster_decisions"] = [
        list(d.as_tuple()) for d in report.cluster_decisions]
    outcome.digest["placement"] = dict(sorted(report.placement.items()))
    outcome.counters["cluster.moves"] = len(report.cluster_decisions)
    return outcome


# -- figure sweep ---------------------------------------------------------------


def _dense_pass(testbed) -> List[float]:
    from repro.core.harness import LatencyBench, ThroughputBench
    from repro.core.paths import CommPath, Opcode

    throughput = ThroughputBench(testbed)
    latency = LatencyBench(testbed)
    values: List[float] = []
    for path in CommPath:
        for op in (Opcode.READ, Opcode.WRITE, Opcode.SEND):
            for requesters in range(1, 12):
                values += throughput.payload_sweep(
                    path, op, SWEEP_PAYLOADS, requesters=requesters).values()
            values += throughput.payload_sweep(
                path, op, SWEEP_PAYLOADS, metric="gbps").values()
            values += throughput.pps_sweep(path, op, SWEEP_PAYLOADS).values()
            values += latency.payload_sweep(path, op, SWEEP_PAYLOADS).values()
    return values


def _figure_sweep(seed: int, clock: Clock, scale: float = 1.0,
                  jobs: int = 1) -> Outcome:
    from repro.net.topology import paper_testbed
    from repro.stats.validate import FIGURE_FAMILIES, run_validation

    count = max(1, round(SWEEP_TESTBEDS * scale))
    clients = random.Random(seed).sample(range(11, 21), count)
    testbeds = [paper_testbed(n_clients=n) for n in clients]
    clock.start()
    passes = [_dense_pass(testbed) for testbed in testbeds]
    validation = run_validation(families=FIGURE_FAMILIES)
    clock.stop()

    failures = [f"sweep[n_clients={n}] differs from "
                f"sweep[n_clients={clients[0]}]"
                for n, values in zip(clients[1:], passes[1:])
                if values != passes[0]]
    bad = sum(1 for v in passes[0] if not (math.isfinite(v) and v >= 0))
    if bad:
        failures.append(f"sweep: {bad} values negative or not finite")
    failures += [f"{row.family}/{row.check}: {row.value} "
                 f"(expected {row.expected})"
                 for row in validation.failures()]
    points = sum(len(values) for values in passes)
    rows = validation.rows
    return Outcome(
        work=points, work_unit="points", sim_ns=0.0,
        attempted=points + len(rows), refused=len(validation.failures()),
        refused_of=len(rows),
        checks=["testbed passes identical", "values finite",
                "fig4/fig9/fig11 validation rows"],
        failures=failures,
        digest={
            "points_per_pass": len(passes[0]),
            "values_sha": hashlib.sha256(
                repr(passes[0]).encode()).hexdigest(),
            "rows": [[r.family, r.check, r.value, r.verdict] for r in rows],
        })


# -- the model's error against the paper -------------------------------------------


def paper_rel_err() -> Dict[str, float]:
    """Relative error of the simulated Fig-9 S2H plateau, Fig-9 collapse
    and Fig-11 concurrent total against the paper values that
    ``repro.stats.validate`` holds."""
    from repro.core.flows import ConcurrencyAnalyzer
    from repro.core.harness import ThroughputBench
    from repro.core.paths import CommPath, Opcode
    from repro.net.topology import paper_testbed
    from repro.stats import validate
    from repro.units import KB, MB

    testbed = paper_testbed()
    plateau = [64 * KB, 256 * KB, 1 * MB]
    collapse = [4 * MB, 16 * MB]
    sweep = ThroughputBench(testbed).payload_sweep(
        CommPath.SNIC3_S2H, Opcode.WRITE, plateau + collapse,
        requesters=8, metric="gbps")
    total = sum(ConcurrencyAnalyzer(testbed)
                .concurrent_endpoint_budgets(Opcode.READ).values())

    def err(simulated: float, paper: float) -> float:
        return abs(simulated - paper) / paper

    return {
        "fig9.plateau": err(statistics.fmean(sweep.value_at(p)
                                             for p in plateau),
                            validate.FIG9_PLATEAU_GBPS),
        "fig9.collapse": err(statistics.fmean(sweep.value_at(p)
                                              for p in collapse),
                             validate.FIG9_COLLAPSE_GBPS),
        "fig11.total": err(total, validate.FIG11_TOTAL_MRPS),
    }


#: Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "serve-des": _serve(None, SERVE_DES_NS),
    "serve-hybrid": _serve("hybrid", SERVE_HYBRID_NS),
    "rack": _rack,
    "figure-sweep": _figure_sweep,
}
