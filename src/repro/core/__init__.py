"""The paper's contribution: the SmartNIC communication-path
characterization framework.

Public surface:

* :class:`~repro.core.paths.CommPath` / :class:`~repro.core.paths.Opcode`
  — the communication paths of Fig 2 and the verbs studied.
* :mod:`repro.core.packets` — the Table-3 closed-form PCIe packet model.
* :mod:`repro.core.throughput` — operational-law peak-throughput solver.
* :mod:`repro.core.latency` — end-to-end latency composition (Fig 4 upper).
* :mod:`repro.core.flows` — concurrent-flow scenarios (Fig 5, §4).
* :mod:`repro.core.anomalies` — detectors for the four anomalies.
* :mod:`repro.core.advisor` — the offloading advice engine (Advice #1-4).
* :mod:`~repro.core.harness` — measurement harness driving solver and DES.
"""

from repro.core.paths import CommPath, Opcode, PathEnds
from repro.core.packets import PacketCountModel, PathPacketCounts
from repro.core.throughput import (
    Flow,
    Scenario,
    SolverResult,
    ThroughputSolver,
)
from repro.core.batch import BatchSolver, numpy_available
from repro.core.sweeps import StageTimings, SweepGrid, SweepRunner
from repro.core.latency import LatencyModel, LatencyBreakdown
from repro.core.flows import FlowPattern, ConcurrencyAnalyzer
from repro.core.anomalies import (
    Anomaly,
    AnomalyReport,
    detect_all,
    detect_skew_vulnerability,
    detect_hol_collapse,
    detect_pcie_underutilization,
    detect_doorbell_regression,
)
from repro.core.advisor import Advisor, Advice, OffloadPlan, WorkloadProfile
from repro.core.harness import Measurement, Sweep, LatencyBench, ThroughputBench
from repro.core.whatif import (
    CxlPath3Model,
    bluefield3_testbed,
    speed_ratios,
    with_cci_soc,
)
from repro.core.loaded import LoadedLatencyModel, LoadedPoint
from repro.core.plot import ascii_plot, plot_sweeps

__all__ = [
    "CommPath",
    "Opcode",
    "PathEnds",
    "PacketCountModel",
    "PathPacketCounts",
    "Flow",
    "Scenario",
    "SolverResult",
    "ThroughputSolver",
    "BatchSolver",
    "numpy_available",
    "StageTimings",
    "SweepGrid",
    "SweepRunner",
    "LatencyModel",
    "LatencyBreakdown",
    "FlowPattern",
    "ConcurrencyAnalyzer",
    "Anomaly",
    "AnomalyReport",
    "detect_all",
    "detect_skew_vulnerability",
    "detect_hol_collapse",
    "detect_pcie_underutilization",
    "detect_doorbell_regression",
    "Advisor",
    "Advice",
    "OffloadPlan",
    "WorkloadProfile",
    "Measurement",
    "Sweep",
    "LatencyBench",
    "ThroughputBench",
    "CxlPath3Model",
    "bluefield3_testbed",
    "speed_ratios",
    "with_cci_soc",
    "LoadedLatencyModel",
    "LoadedPoint",
    "ascii_plot",
    "plot_sweeps",
]
