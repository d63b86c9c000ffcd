"""The run options of a model sweep.

:class:`RunOptions` holds the three knobs a solver or latency sweep
honours: the content-keyed result cache, its persistent disk layer,
and the per-stage wall-time profile.  Build one and hand it to
:class:`~repro.core.harness.LatencyBench` /
:class:`~repro.core.harness.ThroughputBench` /
:class:`~repro.api.Session`, or parse it straight off an argparse
namespace with :meth:`RunOptions.from_args`.  Serving and cluster
settings (``engine``, ``jobs``, ``machines``, ``population_seed``) are
keyword arguments of :meth:`~repro.api.Session.serve` and
:meth:`~repro.api.Session.serve_cluster`, not run options.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Optional

from repro.core.sweeps import StageTimings, SweepRunner
from repro.net.topology import Testbed


@dataclass(frozen=True)
class RunOptions:
    """Evaluation options for model sweeps and benches.

    * ``cache`` — use the content-keyed solver result cache.
    * ``disk_cache`` — directory for the persistent cache layer.
    * ``profile`` — collect per-stage wall-time (``StageTimings``).
    """

    cache: bool = True
    disk_cache: Optional[str] = None
    profile: bool = False

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
        return SweepRunner(testbed, timings=timings)

    def apply_caches(self) -> None:
        """Configure the process-wide solver result caches."""
        from repro.core.throughput import configure_result_cache

        configure_result_cache(enabled=self.cache, disk_dir=self.disk_cache)

    # -- argparse bridge -----------------------------------------------------

    @staticmethod
    def add_arguments(parser: argparse.ArgumentParser) -> None:
        """Install the shared option flags on an argparse parser."""
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

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunOptions":
        """Build options from a namespace produced by
        :meth:`add_arguments` (missing attributes keep their defaults)."""
        return cls(
            cache=not getattr(args, "no_cache", False),
            disk_cache=getattr(args, "disk_cache", None),
            profile=getattr(args, "profile", False),
        )
