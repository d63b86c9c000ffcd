"""The declarative cluster-scenario schema: validation and round-trips."""

import copy
import json
import pathlib

import pytest

from repro.api.schema import (ClusterScenario, MachineDoc, SchedulerDoc,
                              SchemaError, TenantDoc)
from repro.faults import FaultPlan
from repro.workloads.population import PopulationSpec, RandomVar

_ROOT = pathlib.Path(__file__).resolve().parents[2]
_EXAMPLE = _ROOT / "examples" / "rack_scenario.json"

#: A small valid document: one cohort and one explicit tenant.
_DOC = {
    "name": "mini", "duration_ns": 100_000.0,
    "machines": [{"name": "m", "count": 2}],
    "populations": [{"name": "web", "tenants": 2,
                     "active_users": {"dist": "normal", "mean": 100,
                                      "std": 10},
                     "req_per_min": 60}],
    "tenants": [{"name": "t0", "payload": 512, "interval_ns": 2_000.0,
                 "requests": 10}],
}


def _scenario(**overrides):
    base = dict(
        name="mini",
        duration_ns=100_000.0,
        machines=(MachineDoc(name="m", count=2),),
        tenants=(TenantDoc(name="t0", payload=512, interval_ns=2_000.0,
                           requests=10),),
    )
    base.update(overrides)
    return ClusterScenario(**base)


def test_machine_groups_expand():
    doc = MachineDoc(name="web", nic="snic", count=3)
    assert [m.name for m in doc.expand()] == ["web00", "web01", "web02"]
    solo = MachineDoc(name="edge", nic="rnic")
    assert [m.name for m in solo.expand()] == ["edge"]


def test_scenario_roundtrips_through_json():
    scenario = _scenario(
        populations=(PopulationSpec(
            name="pop", tenants=3,
            active_users=RandomVar("normal", 100, std=10),
            req_per_min=RandomVar.fixed(60)),),
    )
    again = ClusterScenario.from_json(scenario.to_json())
    assert again == scenario


def test_schema_errors_carry_json_paths():
    with pytest.raises(SchemaError, match="machines"):
        _scenario(machines=())
    with pytest.raises(SchemaError, match="populations"):
        _scenario(tenants=())
    with pytest.raises(SchemaError, match="engine"):
        _scenario(engine="warp")
    with pytest.raises(SchemaError, match="lb_latency_ns"):
        _scenario(lb_latency_ns=50_000.0)  # exceeds link_latency_ns
    with pytest.raises(SchemaError, match="lb_name"):
        _scenario(machines=(MachineDoc(name="lb"),))
    with pytest.raises(SchemaError, match=r"tenants\[0\].machine"):
        _scenario(tenants=(TenantDoc(name="t0", payload=512,
                                     interval_ns=2_000.0, requests=10,
                                     machine="nope"),))
    with pytest.raises(SchemaError, match="scheduler.placement"):
        SchedulerDoc(placement="random")
    with pytest.raises(SchemaError, match="unknown field"):
        ClusterScenario.from_dict({"name": "x", "duration_ns": 1.0,
                                   "machines": [{"name": "m"}],
                                   "tenants": [], "typo_field": 1})


def test_expanded_name_collisions_rejected():
    with pytest.raises(SchemaError, match="collide"):
        _scenario(machines=(MachineDoc(name="m", count=2),
                            MachineDoc(name="m00")))


def test_ingress_is_one_lb_round_trip():
    scenario = _scenario(lb_latency_ns=4_000.0)
    assert scenario.ingress_ns == 8_000.0
    spec = scenario.tenants[0].to_spec(ingress_ns=scenario.ingress_ns)
    assert spec.ingress_ns == 8_000.0
    bulk = TenantDoc(name="b", payload=65536, interval_ns=4_500.0,
                     requests=10, bulk=True)
    assert bulk.to_spec(ingress_ns=8_000.0).ingress_ns == 0.0


def test_canonical_rack_scenario_parses_at_acceptance_scale():
    scenario = ClusterScenario.from_file(_EXAMPLE)
    machines = scenario.machine_specs()
    assert len(machines) >= 12
    assert {m.nic for m in machines} == {"snic", "rnic"}
    assert sum(p.tenants for p in scenario.populations) >= 100
    # The canonical document must stand for >= 1M simulated users.
    from repro.workloads.population import sample_population
    sample = sample_population(scenario.populations,
                               scenario.population_seed,
                               scenario.duration_ns,
                               ingress_ns=scenario.ingress_ns)
    assert sample.total_users >= 1_000_000
    # And survive a save/load round trip.
    with open(_EXAMPLE) as handle:
        raw = json.load(handle)
    assert ClusterScenario.from_dict(raw) == scenario
    assert ClusterScenario.from_json(scenario.to_json()) == scenario


@pytest.mark.parametrize("where, value, path", [
    # Misspelt or unknown keys: never dropped silently.
    (("populations", 0, "read_fracton"), 0.5, "populations[0].read_fracton"),
    (("populations", 0, "arrivals"), "poisson", "populations[0].arrivals"),
    (("populations", 0, "active_users", "sd"), 5,
     "populations[0].active_users.sd"),
    # Wrong JSON types: no truthy strings, no nulls for required lists.
    (("populations", 0, "bulk"), "false", "populations[0].bulk"),
    (("tenants",), None, "tenants"),
    (("scheduler",), {"patience": None}, "scheduler.patience"),
    (("machines",), "m", "machines"),
    (("tenants", 0, "hot_range_bytes"), "1M", "tenants[0].hot_range_bytes"),
    # Values the tenant spec refuses: refused at parse time.
    (("tenants", 0, "workers"), 0, "tenants[0]"),
    (("tenants", 0, "read_fraction"), 1.5, "tenants[0]"),
], ids=["read_fracton", "arrivals", "sd", "bulk", "tenants-null",
        "patience-null", "machines-str", "hot_range_bytes", "workers",
        "read_fraction"])
def test_malformed_documents_fail_at_their_json_path(where, value, path):
    raw = copy.deepcopy(_DOC)
    ClusterScenario.from_dict(copy.deepcopy(raw))     # the base is valid
    target = raw
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    with pytest.raises(SchemaError) as exc:
        ClusterScenario.from_dict(raw)
    assert exc.value.path == path
    assert str(exc.value).startswith(f"{path}: ")


@pytest.mark.parametrize("name, cls", [
    ("examples/rack_scenario.json", ClusterScenario),
    ("perfbench/rack.json", ClusterScenario),
    ("examples/cluster_chaos.json", FaultPlan),
])
def test_committed_documents_round_trip(name, cls):
    doc = cls.from_file(_ROOT / name)
    assert cls.from_dict(json.loads(json.dumps(doc.to_dict()))) == doc
