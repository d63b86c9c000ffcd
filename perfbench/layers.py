"""Per-layer tracing from outside the program.

A traced repetition patches the public entry points of each layer of
``repro`` (class methods and module functions) with wrappers that open
a span on entry and close it on exit, and count the calls.  Coroutine
layers do their work inside :class:`repro.sim.process.Process` resumes,
so every resume is a span too, attributed to the layer of the module
that defines the resumed generator.  Nothing under ``src/`` changes;
:meth:`LayerTrace.uninstall` restores every patched attribute.

Spans (layer, start, end, parent; one run id per traced repetition)
are kept in memory, the first ``span_cap`` to start (so every kept
span's ancestors are kept too), and written out as Chrome/Perfetto
JSON when the run ends.  Per-layer self time is
computed online with the span stack: a span's duration minus the time
its child spans cover.  It therefore covers every span, including
those past the cap.  A root span wraps the whole traced region, so the
self times of all layers (the root's own is ``other``) add up to its
wall time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Module prefix -> layer, most specific first.  An entry point and a
#: Process resume belong to the layer of the module that defines the
#: function or generator, unless ``install`` names another.
MODULE_LAYERS = (
    ("repro.sim.engine", "sim"),
    ("repro.sim.batchq", "sim"),
    ("repro.sim.events", "sim"),
    ("repro.sim.process", "sim"),
    ("repro.sim.resources", "sim"),
    ("repro.sim.links", "links"),
    ("repro.hw.pcie", "links"),
    ("repro.rdma", "rdma"),
    ("repro.sched.runtime", "runtime"),
    ("repro.sched.slo", "slo"),
    ("repro.sched.scheduler", "sched"),
    ("repro.sched.policy", "sched"),
    ("repro.sim.hybrid", "hybrid"),
    ("repro.sim.xshard", "xshard"),
    ("repro.sim.supervise", "audit"),
    ("repro.sim.shard", "shard"),
    ("repro.cluster", "cluster"),
    ("repro.workloads.population", "cluster"),
    ("repro.core.latency", "latency"),
    ("repro.core.harness", "harness"),
    ("repro.core", "solver"),
    ("repro.faults", "faults"),
)

ROOT = "other"


def module_layer(module: str) -> str:
    """The layer of the dotted module name ``module``."""
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return ROOT


def _code_module(filename: str) -> str:
    """The dotted ``repro`` module name of a source file ("" if none)."""
    marker = filename.replace("\\", "/").rfind("/repro/")
    if marker < 0:
        return ""
    return filename[marker + 1:].rsplit(".", 1)[0].replace("/", ".")


class LayerTrace:
    """Span stack, per-layer self time, call counts and timers."""

    def __init__(self, run_id: str, span_cap: int = 100_000):
        self.run_id = run_id
        self.span_cap = span_cap
        self.names: List[str] = []
        self.self_s: List[float] = []
        self._index: Dict[str, int] = {}
        self.counts: Dict[str, int] = defaultdict(int)
        #: Inclusive seconds of named entry points (``cluster.compile_s``).
        self.timers: Dict[str, float] = defaultdict(float)
        #: Host time at each closed shard barrier (window wall times).
        self.barriers: List[float] = []
        self.spans: List[tuple] = []
        self.n_spans = 0
        self._stack: List[list] = []
        self._undo: List[tuple] = []
        self._root_start = 0.0
        self.wall_s = 0.0

    # -- spans ----------------------------------------------------------------

    def layer(self, name: str) -> int:
        index = self._index.get(name)
        if index is None:
            index = self._index[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
        return index

    def enter(self, layer: int) -> None:
        self.n_spans += 1
        self._stack.append([layer, time.perf_counter(), 0.0, self.n_spans])

    def exit(self) -> float:
        end = time.perf_counter()
        layer, start, child, span_id = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child
        parent_id = 0
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent_id = parent[3]
        if span_id <= self.span_cap:
            self.spans.append((span_id, parent_id, layer, start, end))
        return duration

    def open_root(self) -> None:
        self._root_start = time.perf_counter()
        self.enter(self.layer(ROOT))

    def close_root(self) -> None:
        self.wall_s = self.exit()
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans left open at the "
                               "end of the traced run")

    def self_times(self) -> Dict[str, float]:
        return dict(zip(self.names, self.self_s))

    # -- patching ---------------------------------------------------------------

    def wrap(self, owner, attr: str, layer: Optional[str] = None,
             count: Optional[str] = None, tally: Optional[Callable] = None,
             timer: Optional[str] = None) -> None:
        """Replace ``owner.attr`` by a spanning, counting wrapper.

        ``layer`` defaults to the layer of the function's module;
        ``count`` names a counter bumped once per call; ``tally(args,
        counts)`` bumps counters by what the call carries; ``timer``
        accumulates the call's inclusive seconds.
        """
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        index = self.layer(layer or module_layer(original.__module__))
        enter, leave = self.enter, self.exit
        counts, timers = self.counts, self.timers

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            if tally is not None:
                tally(args, counts)
            enter(index)
            try:
                return original(*args, **kwargs)
            finally:
                duration = leave()
                if timer is not None:
                    timers[timer] += duration

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def hook_resumes(self) -> None:
        """Span every Process resume, by its generator's module."""
        from repro.sim.process import Process

        original = Process.__dict__["_resume"]
        by_code: Dict[object, int] = {}
        layer, enter, leave = self.layer, self.enter, self.exit

        def _resume(process, event):
            code = getattr(process.generator, "gi_code", None)
            index = by_code.get(code)
            if index is None:
                name = (module_layer(_code_module(code.co_filename))
                        if code is not None else ROOT)
                index = by_code[code] = layer(name)
            enter(index)
            try:
                original(process, event)
            finally:
                leave()

        Process._resume = _resume
        self._undo.append((Process, "_resume", original))

    def mark_barrier(self, _args, counts) -> None:
        """Tally for the per-window controller step: window count and
        the host clock at each barrier (window wall times)."""
        counts["shard.windows"] += 1
        self.barriers.append(time.perf_counter())

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- export -------------------------------------------------------------------

    def write_chrome(self, path: str) -> None:
        """Write the kept spans as a Chrome/Perfetto trace."""
        events = []
        for span_id, parent_id, layer, start, end in sorted(
                self.spans, key=lambda s: (s[3], -s[4])):
            events.append({
                "name": self.names[layer], "cat": self.names[layer],
                "ph": "X", "pid": 1, "tid": 1,
                "ts": round((start - self._root_start) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": span_id, "parent": parent_id}})
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"run_id": self.run_id, "spans": self.n_spans,
                          "spans_kept": len(self.spans)},
        }
        with open(path, "w") as handle:
            json.dump(document, handle)


def _sized(name: str) -> Callable:
    """A tally adding the length of the call's first argument."""
    def tally(args, counts):
        counts[name] += len(args[1])
    return tally


def _session_totals(args, counts) -> None:
    session = args[0]
    counts["sim.events"] += session.cluster.sim.events_executed
    counts["runtime.completion_records"] += len(session.runtime.completions)


def install(trace: LayerTrace) -> None:
    """Patch every layer entry point the benchmark observes."""
    from repro.cluster import run as cluster_run
    from repro.cluster.scheduler import ClusterScheduler
    from repro.core.batch import BatchSolver
    from repro.core.harness import LatencyBench, ThroughputBench
    from repro.core.latency import LatencyModel
    from repro.core.sweeps import SweepRunner
    from repro.core.throughput import ThroughputSolver
    from repro.hw.pcie.link import PCIeLink
    from repro.rdma.qp import QueuePair
    from repro.sched.policy import PathPolicy
    from repro.sched.runtime import ServingRuntime
    from repro.sched.scheduler import PathScheduler
    from repro.sched.serve import ServeSession
    from repro.sched.slo import SloTracker
    from repro.sim import shard
    from repro.sim.batchq import BatchSimulator
    from repro.sim.engine import Simulator
    from repro.sim.hybrid import HybridController
    from repro.sim.links import SimplexChannel
    from repro.sim.supervise import ConservationWatchdog
    from repro.sim.xshard import ShardChannel, ShardRouter

    wrap = trace.wrap
    trace.hook_resumes()
    # sim: the event kernel.
    wrap(Simulator, "run")
    wrap(BatchSimulator, "run")
    # hw.pcie + sim.links.
    wrap(PCIeLink, "send_data", count="pcie.transfers")
    wrap(SimplexChannel, "send", count="links.sends")
    # rdma.
    for verb in ("post_read", "post_write", "post_send"):
        wrap(QueuePair, verb, count="rdma.posts")
    # sched.runtime (its coroutines are spanned by resume).
    wrap(ServingRuntime, "place")
    wrap(ServingRuntime, "rebind")
    # sched.slo.
    wrap(SloTracker, "observe", count="slo.observes")
    for name in ("observe_reject", "window", "closed_window_digest",
                 "window_series"):
        wrap(SloTracker, name)
    wrap(SloTracker, "merge", "slo.merge", timer="slo.merge_s")
    # sched.scheduler + sched.policy.
    wrap(PathScheduler, "tick", count="sched.ticks")
    wrap(PathPolicy, "place")
    wrap(PathPolicy, "decide")
    # sim.hybrid (its control loop is spanned by resume).
    for name in ("wants", "record_service", "on_decision"):
        wrap(HybridController, name)
    # sim.shard + sim.supervise + sim.xshard: the lockstep driver.
    wrap(shard, "_run_lockstep_inprocess")
    wrap(shard, "_controller_step", tally=trace.mark_barrier)
    wrap(ServeSession, "advance", "shard", timer="shard.advance_s")
    wrap(ServeSession, "heartbeat", "audit", timer="shard.audit_s")
    wrap(ConservationWatchdog, "check", timer="shard.audit_s")
    wrap(ShardRouter, "route", tally=_sized("xshard.msgs"))
    wrap(ShardRouter, "take")
    wrap(ShardChannel, "collect")
    wrap(ShardChannel, "deliver")
    wrap(shard, "merge_reports", "merge", timer="shard.merge_s")
    # Report assembly; also where each session's totals are read.
    wrap(ServeSession, "finalize", "report", tally=_session_totals)
    # cluster + workloads.population.
    wrap(cluster_run, "compile_scenario", timer="cluster.compile_s")
    wrap(ClusterScheduler, "observe", timer="cluster.observe_s")
    # core solver, under the figure harness that drives it.
    for name in ("payload_sweep", "pps_sweep"):
        wrap(ThroughputBench, name)
    wrap(LatencyBench, "payload_sweep")
    wrap(SweepRunner, "solve_flows", tally=_sized("solver.points"))
    wrap(SweepRunner, "latencies", tally=_sized("solver.points"))
    wrap(ThroughputSolver, "solve")
    wrap(BatchSolver, "solve")
    wrap(LatencyModel, "latency")
