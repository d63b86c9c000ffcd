"""Workload generators: payload sweeps, access patterns, op mixes."""

from repro.workloads.payloads import (
    FIG4_PAYLOADS,
    FIG7_RANGES,
    FIG8_PAYLOADS,
    FIG9_PAYLOADS,
    FIG10_BATCHES,
    FIG11_MACHINES,
    power_of_two_sweep,
)
from repro.workloads.access import UniformPattern
from repro.workloads.mix import OpMix, RequestStream
from repro.workloads.traces import Trace, TraceRecord
from repro.workloads.population import (
    PopulationSample,
    PopulationSpec,
    RandomVar,
    sample_population,
)

__all__ = [
    "Trace",
    "TraceRecord",
    "FIG4_PAYLOADS",
    "FIG7_RANGES",
    "FIG8_PAYLOADS",
    "FIG9_PAYLOADS",
    "FIG10_BATCHES",
    "FIG11_MACHINES",
    "power_of_two_sweep",
    "UniformPattern",
    "OpMix",
    "RequestStream",
    "PopulationSample",
    "PopulationSpec",
    "RandomVar",
    "sample_population",
]
