"""One shared spelling for the measurement-run knobs.

Every harness historically grew its own option names: ``SweepRunner``
took ``jobs=``/``engine=``, the benches took a
``runner=`` injection, the CLI spelled the same things ``--jobs`` /
``--engine`` / ``--no-cache`` / ``--disk-cache`` / ``--profile``, and
cache configuration lived in yet another function.  :class:`RunOptions`
is the single normalized form: build one, hand it to
:class:`~repro.core.harness.LatencyBench` /
:class:`~repro.core.harness.ThroughputBench` /
:class:`~repro.api.Session`, or parse it straight off an argparse
namespace with :meth:`RunOptions.from_args`.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Optional

from repro.core.sweeps import ENGINES, StageTimings, SweepRunner
from repro.net.topology import Testbed


@dataclass(frozen=True)
class RunOptions:
    """Normalized evaluation options for model sweeps and benches.

    * ``engine`` — solver backend: ``"scalar"``, ``"vector"`` or
      ``"auto"`` (pick vector when numpy is importable).  ``"hybrid"``
      solves like ``"auto"`` and additionally switches
      :meth:`repro.api.Session.serve` to the analytic/DES hybrid
      serving engine (see docs/performance.md).
    * ``jobs`` — scalar-engine process-pool width (0/1 = in-process).
    * ``chunk_size`` — points per pool task (None = auto).
    * ``cache`` — use the content-keyed solver result cache.
    * ``disk_cache`` — directory for the persistent cache layer.
    * ``profile`` — collect per-stage wall-time (``StageTimings``).
    * ``machines`` — cluster-scenario machine-count override
      (0 = use the scenario document's rack as written).
    * ``population_seed`` — override the scenario's population
      sampling seed (None = use the document's).
    """

    engine: str = "auto"
    jobs: int = 0
    chunk_size: Optional[int] = None
    cache: bool = True
    disk_cache: Optional[str] = None
    profile: bool = False
    machines: int = 0
    population_seed: Optional[int] = None

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine: {self.engine!r} "
                             f"(expected one of {ENGINES})")
        if self.jobs < 0:
            raise ValueError(f"jobs must be >= 0: {self.jobs}")
        if self.machines < 0:
            raise ValueError(f"machines must be >= 0: {self.machines}")

    # -- consumers -----------------------------------------------------------

    def runner(self, testbed: Testbed,
               timings: Optional[StageTimings] = None) -> SweepRunner:
        """A :class:`SweepRunner` configured from these options.

        Also applies the cache configuration, so building a runner is
        enough to honour ``cache``/``disk_cache``.  When ``profile`` is
        set (and no ``timings`` is passed) the runner gets a fresh
        :class:`StageTimings`; read it back from ``runner.timings``.
        """
        self.apply_caches()
        if timings is None and self.profile:
            timings = StageTimings()
        return SweepRunner(testbed, jobs=self.jobs,
                           chunk_size=self.chunk_size, engine=self.engine,
                           timings=timings)

    def apply_caches(self) -> None:
        """Configure the process-wide solver result caches."""
        from repro.core.throughput import configure_result_cache

        configure_result_cache(enabled=self.cache, disk_dir=self.disk_cache)

    # -- argparse bridge -----------------------------------------------------

    @staticmethod
    def add_arguments(parser: argparse.ArgumentParser) -> None:
        """Install the shared option flags on an argparse parser."""
        parser.add_argument(
            "--jobs", type=int, default=0,
            help="evaluate sweep points on N worker processes "
                 "(0/1 = in-process; results are identical)")
        parser.add_argument(
            "--engine", choices=list(ENGINES), default="auto",
            help="solver backend: 'vector' batches the whole grid "
                 "through the numpy demand tensor, 'scalar' solves "
                 "per point, 'auto' (default) picks vector when "
                 "numpy is installed; 'hybrid' solves like 'auto' "
                 "and makes Session.serve use the analytic/DES "
                 "hybrid serving engine")
        parser.add_argument(
            "--profile", action="store_true",
            help="append a per-stage wall-time breakdown "
                 "(grid build / demand assembly / solve / aggregate)")
        parser.add_argument(
            "--no-cache", action="store_true",
            help="disable the content-keyed solver result cache")
        parser.add_argument(
            "--disk-cache", metavar="DIR", default=None,
            help="persist solver results under DIR so repeated "
                 "points are free across invocations")
        parser.add_argument(
            "--machines", type=int, default=0,
            help="override a cluster scenario's machine count "
                 "(0 = run the rack as the document describes it)")
        parser.add_argument(
            "--population-seed", type=int, default=None,
            help="override a cluster scenario's population sampling "
                 "seed (resamples every cohort deterministically)")

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunOptions":
        """Build options from a namespace produced by
        :meth:`add_arguments` (missing attributes keep their defaults)."""
        return cls(
            engine=getattr(args, "engine", "auto"),
            jobs=getattr(args, "jobs", 0),
            cache=not getattr(args, "no_cache", False),
            disk_cache=getattr(args, "disk_cache", None),
            profile=getattr(args, "profile", False),
            machines=getattr(args, "machines", 0) or 0,
            population_seed=getattr(args, "population_seed", None),
        )
