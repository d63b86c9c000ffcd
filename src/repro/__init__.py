"""repro — the off-path SmartNIC characterization study, in simulation.

Reproduces "Characterizing Off-path SmartNIC for Accelerating Distributed
Systems" (OSDI 2023): a component-level model of a Bluefield-2-class
off-path SmartNIC (PCIe fabric, NIC cores, SoC, host memory), a verbs
stack over a discrete-event simulator, and the characterization
framework — latency/throughput models for the three communication paths,
anomaly detectors and the offloading advisor.

Typical entry points::

    from repro import paper_testbed, Flow, CommPath, Opcode, ThroughputSolver
    from repro.core import LatencyModel, Advisor
    from repro.sched import run_serve
    from repro.cluster import run_cluster
    from repro.net.cluster import SimCluster
    from repro.rdma import RdmaContext

This package's exports plus :mod:`repro.api` (the scenario schema) are
the stable public surface — see docs/api.md.  The ``repro`` CLI
(:mod:`repro.cli`) calls the same functions.
"""

from repro.core.paths import CommPath, Opcode
from repro.core.throughput import Flow, Scenario, SolverResult, ThroughputSolver
from repro.core.latency import LatencyModel
from repro.core.packets import PacketCountModel
from repro.core.flows import ConcurrencyAnalyzer
from repro.core.advisor import Advisor, WorkloadProfile
from repro.core.anomalies import detect_all
from repro.net.topology import Testbed, paper_testbed

__version__ = "1.0.0"

__all__ = [
    "CommPath",
    "Opcode",
    "Flow",
    "Scenario",
    "SolverResult",
    "ThroughputSolver",
    "LatencyModel",
    "PacketCountModel",
    "ConcurrencyAnalyzer",
    "Advisor",
    "WorkloadProfile",
    "detect_all",
    "Testbed",
    "paper_testbed",
    "__version__",
]
