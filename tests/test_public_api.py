"""The stable public surface: export snapshots and a warning-free import.

``repro`` (the core names) and ``repro.api`` (the scenario schema) are
the supported import points; this file pins their exports, and those of the event kernel (``repro.sim``) and
the verbs stack (``repro.rdma``), so accidental additions/removals fail
review, and
checks the supported spellings import cleanly under
``-W error::DeprecationWarning`` (the CI gate).
"""

import dataclasses
import inspect
import os
import pathlib
import subprocess
import sys

import repro
import repro.api
import repro.rdma
import repro.sim

_SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])

# Frozen snapshots: changing the public surface is an API decision,
# not a side effect — update these lists deliberately.
REPRO_EXPORTS = [
    "Advisor",
    "CommPath",
    "ConcurrencyAnalyzer",
    "Flow",
    "LatencyModel",
    "Opcode",
    "PacketCountModel",
    "Scenario",
    "SolverResult",
    "Testbed",
    "ThroughputSolver",
    "WorkloadProfile",
    "__version__",
    "detect_all",
    "paper_testbed",
]

API_EXPORTS = ["ClusterScenario", "MachineDoc", "SchedulerDoc", "TenantDoc"]

# The kernel keeps what the simulator runs: no interrupts, no LOW
# priority, no rate or time-weighted monitors.
SIM_EXPORTS = [
    "AllOf", "AnyOf", "DuplexChannel", "Event", "Histogram", "LOST",
    "NORMAL", "Process", "RandomStreams", "Resource", "SimplexChannel",
    "SimulationError", "Simulator", "Store", "Timeout", "URGENT",
]

# No shared receive queue.
RDMA_EXPORTS = [
    "AccessError", "Completion", "CompletionQueue", "CompletionStatus",
    "DoorbellBatcher", "MemoryRegion", "ProtectionDomain", "QPError",
    "QPState", "QPType", "QueuePair", "RdmaContext", "WorkOpcode",
]


def test_repro_export_snapshot():
    assert sorted(repro.__all__) == REPRO_EXPORTS


def test_api_export_snapshot():
    assert sorted(repro.api.__all__) == API_EXPORTS


def test_sim_export_snapshot():
    assert sorted(repro.sim.__all__) == SIM_EXPORTS


def test_rdma_export_snapshot():
    assert sorted(repro.rdma.__all__) == RDMA_EXPORTS


def test_every_export_resolves():
    for module in (repro, repro.api, repro.sim, repro.rdma):
        for name in module.__all__:
            assert getattr(module, name) is not None


def test_new_spellings_are_warning_free():
    """The supported imports stay clean under -W error."""
    code = ("import repro, repro.api, repro.sched\n"
            "from repro import CommPath, Opcode, paper_testbed\n"
            "from repro.api import ClusterScenario\n"
            "from repro.core.harness import LatencyBench, ThroughputBench\n")
    subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c", code],
        check=True, env={**os.environ, "PYTHONPATH": _SRC})



# The serving knob ratchet: the options below are the whole surface.
# Policy and hybrid tuning are module constants (repro.sched.policy,
# repro.sim.hybrid, repro.sim.crosscheck); an option comes back only
# through a deliberate edit of these lists.
def _params(fn):
    return list(inspect.signature(fn).parameters)


def test_serving_option_snapshot():
    from repro.sched.policy import PathPolicy
    from repro.sched.serve import ServeSession, run_serve
    from repro.sim.hybrid import HybridController

    assert _params(ServeSession) == [
        "tenants", "adaptive", "testbed", "faults", "fault_seed",
        "interval_ns", "window_ns", "trace", "engine", "channel", "nic"]
    assert _params(run_serve) == ["tenants", "kwargs"]
    assert _params(PathPolicy) == ["testbed"]
    assert _params(HybridController) == [
        "runtime", "tracker", "faults", "tick_ns"]


def test_cluster_entry_snapshot():
    """A rack, seed, placement, migration or engine change is an edit of
    the scenario document, never a keyword of the runner."""
    from repro.cluster import compile_scenario, run_cluster

    assert _params(run_cluster) == ["scenario", "jobs", "testbed",
                                    "supervisor"]
    assert _params(compile_scenario) == ["scenario", "testbed"]


def test_kernel_option_snapshot():
    """No event budget, bounded store or SRQ option comes back unnoticed."""
    from repro.rdma import QueuePair, RdmaContext
    from repro.sim import Simulator, Store

    assert _params(Simulator.run) == ["self", "until"]
    assert _params(Store) == ["sim"]
    assert _params(RdmaContext.create_qp) == [
        "self", "node_name", "qp_type", "send_cq", "recv_cq"]
    assert _params(QueuePair) == [
        "node", "qp_type", "send_cq", "recv_cq", "max_inline",
        "max_send_wr", "max_recv_wr"]


def test_supervisor_field_snapshot():
    from repro.sim.supervise import SupervisorConfig

    assert [f.name for f in dataclasses.fields(SupervisorConfig)] == [
        "exchange_timeout_s", "join_timeout_s", "kill_grace_s",
        "max_respawns", "checkpoint_dir", "resume", "kill_shard",
        "kill_window", "incident_report"]


def test_crosscheck_signature_snapshot():
    from repro.sim.crosscheck import (ci_agreement, crosscheck,
                                      crosscheck_suite)

    assert _params(crosscheck) == ["scenario", "factory", "serve_kwargs"]
    assert _params(crosscheck_suite) == ["duration_ns", "seed", "scenarios"]
    assert _params(ci_agreement) == ["des", "hybrid"]


def test_stats_knob_snapshot():
    """One confidence level (``kernels.CONFIDENCE``) and no replicate
    memo: no confidence, seed-offset, cache or warm-up knob comes back
    unnoticed."""
    from repro.stats.kernels import (CONFIDENCE, Estimate, batch_means,
                                     mean_estimate)
    from repro.stats.replication import replicate, report_estimate
    from repro.stats.validate import run_validation

    assert CONFIDENCE == 0.95
    assert _params(replicate) == [
        "family", "seeds", "duration_ns", "engine", "jobs"]
    assert _params(run_validation) == [
        "families", "seeds", "duration_ns", "jobs"]
    assert _params(report_estimate) == ["report", "tenant", "field"]
    assert _params(mean_estimate) == ["values"]
    assert _params(batch_means) == ["series", "batches"]
    assert [f.name for f in dataclasses.fields(Estimate)] == [
        "mean", "half_width", "n", "sd"]


def test_sweep_signature_snapshot():
    """A sweep is a grid and its answer a rate column: no flow-list
    batch entry, per-point result list or backend knob comes back
    unnoticed."""
    from repro.core import __all__ as core_exports
    from repro.core.batch import BatchSolver
    from repro.core.harness import ThroughputBench
    from repro.core.sweeps import SweepGrid, SweepRunner
    from repro.core.throughput import Scenario

    assert _params(SweepGrid) == [
        "path", "op", "payload", "requesters", "range_bytes",
        "doorbell_batch"]
    assert _params(SweepRunner) == ["testbed", "timings"]
    assert _params(SweepRunner.solve_flows) == ["self", "grid"]
    assert _params(BatchSolver.solve) == ["self", "testbed", "grid",
                                          "timings"]
    assert "SweepGrid" in core_exports
    assert not hasattr(Scenario, "solve_batch")
    assert not hasattr(SweepRunner, "solve_scenarios")
    bench = ThroughputBench(repro.paper_testbed())
    for gone in ("_peak", "_peaks", "solver"):
        assert not hasattr(bench, gone)
