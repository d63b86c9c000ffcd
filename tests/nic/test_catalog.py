"""Tests for the SmartNIC catalog and custom specs."""

import pytest

from repro.core.flows import ConcurrencyAnalyzer
from repro.core.paths import CommPath, Opcode
from repro.core.throughput import Flow, Scenario, ThroughputSolver
from repro.net.topology import Testbed, paper_testbed
from repro.nic.catalog import CATALOG, STINGRAY_PS225, lookup
from repro.nic.smartnic import SmartNIC
from repro.nic.specs import BLUEFIELD2
from repro.units import to_gbps

from dataclasses import replace


def stingray_testbed() -> Testbed:
    return replace(paper_testbed(), snic=SmartNIC(STINGRAY_PS225))


def test_catalog_contents():
    assert set(CATALOG) == {"bluefield-2", "bluefield-3", "stingray-ps225"}
    assert lookup("bluefield-2") is BLUEFIELD2
    with pytest.raises(KeyError):
        lookup("pensando")


def test_stingray_is_a_100g_device():
    assert to_gbps(STINGRAY_PS225.cores.network_bandwidth) == pytest.approx(100)
    assert STINGRAY_PS225.soc_cpu.total_cores == 8
    assert not STINGRAY_PS225.soc_memory.ddio


def test_stingray_keeps_the_architecture_behaviour():
    """S5: the Stingray shares Bluefield's architecture, so the same
    qualitative results hold at its own constants."""
    tb = stingray_testbed()
    solver = ThroughputSolver()
    read1 = solver.solve(Scenario(tb, [
        Flow(CommPath.SNIC1, Opcode.READ, 64)])).mrps_of(0)
    read2 = solver.solve(Scenario(tb, [
        Flow(CommPath.SNIC2, Opcode.READ, 64)])).mrps_of(0)
    assert read2 > read1  # path 2 still wins for one-sided READs
    # And the P - N budget rule moves with the constants.
    budget = ConcurrencyAnalyzer(tb).path3_budget_gbps()
    assert budget == pytest.approx(256 - 100)


def test_custom_spec_runs_through_the_framework():
    # Pretend the SoC negotiated host-class TLPs.
    spec = replace(BLUEFIELD2, name="wide-soc", soc_mps=512)
    tb = replace(paper_testbed(), snic=SmartNIC(spec))
    solver = ThroughputSolver()
    # With a 512 B SoC MTU the large-READ HOL exposure disappears.
    result = solver.solve(Scenario(tb, [
        Flow(CommPath.SNIC2, Opcode.READ, 16 << 20)]))
    assert result.gbps_of(0) > 180
