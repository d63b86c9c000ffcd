"""Compiling the rack document: the solver memo's traffic.

Bin-packing asks the same Fig-11 budget question once per tenant and
machine.  The scalar solver's memo answers every repeat, so each
distinct scenario is solved cold exactly once per testbed, and the
memo never answers for a separately built testbed.  The placement is
pinned so a memo bug cannot move a tenant silently.
"""

import hashlib
import json
from pathlib import Path

from repro.api.schema import ClusterScenario
from repro.cluster.run import compile_scenario
from repro.core.throughput import RESULT_CACHE, ThroughputSolver
from repro.net.topology import paper_testbed

RACK_DOC = Path(__file__).resolve().parents[2] / "examples" / \
    "rack_scenario.json"

#: sha256 prefix of the canonical rack's sorted tenant -> machine map.
PLACEMENT_SHA = "1ef0a6ac09beb465"

#: Distinct Fig-11 scenarios the canonical rack's compile solves.
DISTINCT_SCENARIOS = 2


def _compile_counting_cold_solves(monkeypatch, doc):
    cold = []
    original = ThroughputSolver._solve_cold

    def counting(self, scenario):
        cold.append(tuple(scenario.flows))
        return original(self, scenario)

    monkeypatch.setattr(ThroughputSolver, "_solve_cold", counting)
    hits = RESULT_CACHE.hits
    placement = compile_scenario(doc, testbed=paper_testbed())[1]
    monkeypatch.undo()
    text = json.dumps(sorted(placement.items()))
    return (cold, RESULT_CACHE.hits - hits,
            hashlib.sha256(text.encode()).hexdigest()[:16])


def test_compile_solves_each_distinct_scenario_once(monkeypatch):
    doc = ClusterScenario.from_file(RACK_DOC)
    # Twice, each on its own freshly built testbed: the second compile
    # must not be answered from the first testbed's entries.
    for _ in range(2):
        cold, hits, placement = _compile_counting_cold_solves(monkeypatch,
                                                              doc)
        assert len(cold) == len(set(cold)) == DISTINCT_SCENARIOS
        assert hits >= 1000          # the repeats never reach the solver
        assert placement == PLACEMENT_SHA
