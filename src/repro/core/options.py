"""The run options of a model sweep.

:class:`RunOptions` holds the one knob a solver or latency sweep
honours: the per-stage wall-time profile.  Build one and hand it to
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

    * ``profile`` — collect per-stage wall-time (``StageTimings``).
    """

    profile: bool = False

    # -- consumers -----------------------------------------------------------

    def runner(self, testbed: Testbed,
               timings: Optional[StageTimings] = None) -> SweepRunner:
        """A :class:`SweepRunner` configured from these options.

        When ``profile`` is set (and no ``timings`` is passed) the
        runner gets a fresh :class:`StageTimings`; read it back from
        ``runner.timings``.
        """
        if timings is None and self.profile:
            timings = StageTimings()
        return SweepRunner(testbed, timings=timings)

    # -- argparse bridge -----------------------------------------------------

    @staticmethod
    def add_arguments(parser: argparse.ArgumentParser) -> None:
        """Install the shared option flags on an argparse parser."""
        parser.add_argument(
            "--profile", action="store_true",
            help="append a per-stage wall-time breakdown "
                 "(grid build / demand assembly / solve / aggregate)")

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunOptions":
        """Build options from a namespace produced by
        :meth:`add_arguments` (missing attributes keep their defaults)."""
        return cls(profile=getattr(args, "profile", False))
