"""The :class:`Session` facade: one object, the whole toolkit.

A session pins a testbed and a :class:`~repro.core.options.RunOptions`
and exposes every user-facing capability behind short methods, so the
common flows read as one-liners instead of four imports and three
constructors.  Paths and opcodes accept either the enums or their
string spellings (``"snic-1"``, ``"1"``, ``"read"``).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

from repro.core.advisor import Advisor, OffloadPlan, WorkloadProfile
from repro.core.harness import LatencyBench, Sweep, ThroughputBench
from repro.core.latency import LatencyBreakdown, LatencyModel
from repro.core.options import RunOptions
from repro.core.paths import CommPath, Opcode
from repro.core.throughput import Flow, Scenario, SolverResult
from repro.net.topology import Testbed, paper_testbed
from repro.units import GB

PathLike = Union[CommPath, str]
OpLike = Union[Opcode, str]

_PATHS: Dict[str, CommPath] = {p.value: p for p in CommPath}
_PATHS.update({p.name.lower(): p for p in CommPath})
_PATHS.update({"1": CommPath.SNIC1, "2": CommPath.SNIC2,
               "3": CommPath.SNIC3_H2S})


def _coerce_path(path: PathLike) -> CommPath:
    if isinstance(path, CommPath):
        return path
    key = str(path).lower().replace("_", "-")
    try:
        return _PATHS[key]
    except KeyError:
        choices = ", ".join(sorted({p.value for p in CommPath}))
        raise ValueError(
            f"unknown path {path!r}; choose from {choices}") from None


def _coerce_op(op: OpLike) -> Opcode:
    if isinstance(op, Opcode):
        return op
    try:
        return Opcode(str(op).lower())
    except ValueError:
        choices = ", ".join(o.value for o in Opcode)
        raise ValueError(
            f"unknown op {op!r}; choose from {choices}") from None


class Session:
    """One facade over models, benches, advisor, tracing and serving.

    All heavy members (benches, the advisor) are built lazily and
    shared, so a session amortizes solver caches across calls; the
    ``options`` run configuration applies to every sweep it runs.
    """

    def __init__(self, testbed: Optional[Testbed] = None,
                 options: Optional[RunOptions] = None):
        self.testbed = testbed or paper_testbed()
        self.options = options or RunOptions()
        self._latency_bench: Optional[LatencyBench] = None
        self._throughput_bench: Optional[ThroughputBench] = None
        self._advisor: Optional[Advisor] = None

    # -- lazy members -------------------------------------------------------

    @property
    def latency_bench(self) -> LatencyBench:
        if self._latency_bench is None:
            self._latency_bench = LatencyBench(self.testbed,
                                               options=self.options)
        return self._latency_bench

    @property
    def throughput_bench(self) -> ThroughputBench:
        if self._throughput_bench is None:
            self._throughput_bench = ThroughputBench(self.testbed,
                                                     options=self.options)
        return self._throughput_bench

    @property
    def advisor(self) -> Advisor:
        if self._advisor is None:
            self._advisor = Advisor(self.testbed)
        return self._advisor

    # -- point queries ------------------------------------------------------

    def latency(self, path: PathLike, op: OpLike,
                payload: int) -> LatencyBreakdown:
        """End-to-end latency breakdown of one request shape."""
        return LatencyModel(self.testbed).latency(
            _coerce_path(path), _coerce_op(op), payload)

    def throughput(self, path: PathLike, op: OpLike, payload: int,
                   requesters: int = 11, range_bytes: float = 10 * GB,
                   doorbell_batch: int = 1) -> SolverResult:
        """Peak throughput (and bottleneck) of one flow."""
        flow = Flow(path=_coerce_path(path), op=_coerce_op(op),
                    payload=payload, requesters=requesters,
                    range_bytes=range_bytes, doorbell_batch=doorbell_batch)
        return self.throughput_bench.solver.solve(
            Scenario(self.testbed, [flow]))

    # -- sweeps -------------------------------------------------------------

    def latency_sweep(self, path: PathLike, op: OpLike,
                      payloads: Sequence[int]) -> Sweep:
        """Latency versus payload, through the session's run options."""
        return self.latency_bench.payload_sweep(
            _coerce_path(path), _coerce_op(op), payloads)

    def throughput_sweep(self, path: PathLike, op: OpLike,
                         payloads: Sequence[int], requesters: int = 11,
                         metric: str = "mrps") -> Sweep:
        """Peak throughput versus payload."""
        return self.throughput_bench.payload_sweep(
            _coerce_path(path), _coerce_op(op), payloads,
            requesters=requesters, metric=metric)

    # -- advice -------------------------------------------------------------

    def advise(self, profile: Optional[WorkloadProfile] = None,
               **profile_kwargs) -> OffloadPlan:
        """Run the offload advisor on a workload profile.

        Pass a ready :class:`WorkloadProfile`, or its fields as
        keyword arguments (``payload=256, read_fraction=0.9, ...``).
        """
        if profile is not None and profile_kwargs:
            raise ValueError("pass a profile or its fields, not both")
        if profile is None:
            profile = WorkloadProfile(**profile_kwargs)
        return self.advisor.plan(profile)

    # -- tracing ------------------------------------------------------------

    def trace(self, path: PathLike, op: OpLike, payload: int,
              count: int = 1, seed: int = 0, telemetry: bool = False):
        """Span-trace verbs through the DES datapath; returns the Tracer."""
        from repro.trace import run_traced_verbs

        return run_traced_verbs(_coerce_path(path), _coerce_op(op), payload,
                                count=count, seed=seed, testbed=self.testbed,
                                telemetry=telemetry)

    # -- serving ------------------------------------------------------------

    def serve(self, tenants, **kwargs):
        """Run the online path scheduler over tenant streams.

        Accepts every :func:`repro.sched.run_serve` keyword
        (``adaptive=``, ``faults=``, ``engine=``, ``trace=`` ...) and
        returns its :class:`~repro.sched.ServeReport`;
        ``engine="hybrid"`` selects the analytic/DES hybrid serving
        engine (docs/performance.md).
        """
        from repro.sched import run_serve

        return run_serve(tenants, testbed=self.testbed, **kwargs)

    # -- validation ---------------------------------------------------------

    def validate(self, families: Optional[Sequence[str]] = None,
                 seeds: int = 3, **kwargs):
        """Run the statistical verification suite (``repro validate``).

        Replicates the scenario families across ``seeds``, audits every
        replicate against the invariant catalog (flow conservation,
        Little's law, utilization bounds), grades DES-vs-hybrid engine
        agreement by CI overlap, and re-derives the Fig-4/9/11 numbers
        with confidence intervals.  Returns a
        :class:`~repro.stats.validate.VerificationReport`; see
        docs/validation.md for how to read it.  Accepts every
        :func:`~repro.stats.validate.run_validation` keyword
        (``duration_ns=``, ``jobs=``, ``confidence=`` ...).
        """
        from repro.stats.validate import run_validation

        return run_validation(families=families, seeds=seeds, **kwargs)

    def serve_cluster(self, scenario, **kwargs):
        """Run a declarative rack-scale cluster scenario.

        ``scenario`` is a :class:`~repro.api.schema.ClusterScenario`
        or a path to its JSON document
        (``examples/rack_scenario.json`` is the canonical one; the CLI
        spelling is ``repro serve --cluster <doc.json>``).  Accepts
        every :func:`repro.cluster.run_cluster` keyword (``jobs=``,
        ``machines=``, ``population_seed=``, ``placement=``,
        ``migrate=``, ``supervisor=``, ``engine=``) and returns a
        :class:`~repro.cluster.ClusterReport` (docs/cluster.md).
        """
        from repro.cluster import run_cluster

        return run_cluster(scenario, testbed=self.testbed, **kwargs)
