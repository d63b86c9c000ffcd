"""Cluster-chaos properties: determinism, conservation, pay-as-you-go.

These are the hypothesis legs of the cluster-fault contract
(docs/robustness.md):

* an *empty* cluster fault plan — with or without a supervisor — is
  bit-identical to no cluster machinery at all, across seeds and jobs;
* the per-window conservation watchdog holds under *any* generated
  cluster fault plan (every arrival ends completed, rejected, lost or
  in-flight; every fabric send is handed over, pending, or accounted
  dropped) — the runs below would raise ``ConservationError`` otherwise;
* a shard killed mid-run (a SIGKILLed worker at ``jobs=4``, a discarded
  session at ``jobs=1``) and respawned from the window log lands on
  exactly the counts and decisions of the unkilled run.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import compile_scenario, run_cluster
from repro.faults.plan import (FabricDelay, FabricLoss, FabricPartition,
                               FabricReorder, FaultPlan, MachineCrash,
                               PacketLoss, is_cluster_fault)
from repro.sim.crosscheck import cluster_chaos_scenario, cluster_crosscheck
from repro.sim.shard import ShardPlan, ShardSpec, run_sharded
from repro.sim.supervise import SupervisorConfig

_DURATION = 160_000.0


def _plan(seed=0):
    """The family's document, compiled, without its chaos plan."""
    scenario = cluster_chaos_scenario(duration_ns=_DURATION, seed=seed)
    plan = compile_scenario(scenario)[0]
    return dataclasses.replace(plan, cluster_faults=None)


def _chaos(seed=0):
    return cluster_chaos_scenario(duration_ns=_DURATION, seed=seed).faults


def _digest(report, counters=True):
    parts = (
        {name: (t.completed, t.rejected, t.lost, t.p50_ns, t.p99_ns)
         for name, t in report.tenants.items()},
        [d.as_tuple() for d in report.decisions],
    )
    if counters:
        parts += (sorted(report.counters.items()),)
    return parts


# -- validation ---------------------------------------------------------------------


def test_cluster_faults_are_typed_and_serializable():
    chaos = _chaos()
    assert all(is_cluster_fault(f) for f in chaos.faults)
    assert FaultPlan.from_dict(chaos.to_dict()) == chaos


def test_machine_plan_rejects_cluster_faults():
    from repro.net.cluster import SimCluster
    from repro.net.topology import paper_testbed

    plan = FaultPlan(faults=(MachineCrash(shard="shard0", at=1.0),))
    with pytest.raises(ValueError, match="cluster-scope"):
        SimCluster(paper_testbed()).install_faults(plan)


def test_shard_plan_rejects_machine_faults_and_unknown_shards():
    base = _plan()
    with pytest.raises(ValueError, match="single-machine"):
        dataclasses.replace(base, cluster_faults=FaultPlan(
            faults=(PacketLoss("net.client0", 0.5),)))
    with pytest.raises(ValueError, match="unknown shard"):
        dataclasses.replace(base, cluster_faults=FaultPlan(
            faults=(MachineCrash(shard="nope", at=1.0),)))


def test_kill_shard_must_exist():
    with pytest.raises(ValueError, match="kill_shard"):
        run_sharded(_plan(), jobs=1,
                    supervisor=SupervisorConfig(kill_shard="nope",
                                                kill_window=1))


# -- the three properties -----------------------------------------------------------


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=50),
       jobs=st.sampled_from([1, 4]))
def test_empty_cluster_plan_is_bit_identical(seed, jobs):
    """Chaos is pay-as-you-go: an empty plan + supervisor changes
    nothing, across seeds and both executors."""
    pristine = run_sharded(_plan(seed), jobs=jobs)
    armed = run_sharded(
        dataclasses.replace(_plan(seed), cluster_faults=FaultPlan()),
        jobs=jobs, supervisor=SupervisorConfig())
    assert _digest(armed) == _digest(pristine)


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=50),
       loss=st.floats(min_value=0.0, max_value=0.6),
       crash_at=st.floats(min_value=_DURATION * 0.1,
                          max_value=_DURATION * 0.9),
       delay_ns=st.floats(min_value=1_000.0, max_value=60_000.0),
       partition=st.booleans(), reorder=st.booleans())
def test_conservation_and_jobs_identity_under_any_plan(
        seed, loss, crash_at, delay_ns, partition, reorder):
    """Any generated plan: the watchdog holds (no ConservationError,
    no hung requests) and jobs=4 equals the in-process reference."""
    faults = [MachineCrash(shard="shard0", at=crash_at,
                           recover_at=crash_at + _DURATION / 3),
              FabricLoss(rate=loss),
              FabricDelay(extra_ns=delay_ns, src="shard2")]
    if partition:
        faults.append(FabricPartition(a="shard2", b="shard3",
                                      start=crash_at))
    if reorder:
        faults.append(FabricReorder(dst="shard3"))
    chaotic = dataclasses.replace(
        _plan(seed), cluster_faults=FaultPlan(faults=tuple(faults),
                                              seed=seed + 3))
    ref = run_sharded(chaotic, jobs=1)
    par = run_sharded(chaotic, jobs=4)
    assert _digest(par) == _digest(ref)
    # Nothing hangs: every arrival is accounted for at the end.
    for t in ref.tenants.values():
        assert t.completed + t.rejected + t.lost > 0


@pytest.mark.parametrize("jobs", [1, 4])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=50),
       victim=st.sampled_from(["shard1", "shard2"]),
       window=st.integers(min_value=1, max_value=4))
def test_kill_and_respawn_reproduces_unkilled_run(jobs, seed, victim,
                                                  window):
    """A killed shard — a SIGKILLed worker, or a discarded in-process
    session — respawned from the window log changes no tenant outcome
    and no scheduling decision, and both executors respawn it once."""
    chaotic = dataclasses.replace(_plan(seed), cluster_faults=_chaos(seed))
    clean = run_sharded(chaotic, jobs=jobs)
    killed = run_sharded(chaotic, jobs=jobs,
                         supervisor=SupervisorConfig(kill_shard=victim,
                                                     kill_window=window))
    assert _digest(killed, counters=False) == _digest(clean, counters=False)
    assert killed.counters["supervisor.respawns"] == 1


# -- end-to-end family --------------------------------------------------------------


def test_cluster_crosscheck_family_passes():
    result = cluster_crosscheck(duration_ns=_DURATION, seed=2)
    assert result.ok, result.failures()
    assert [name for name, _ok, _d in result.clauses] == [
        "jobs-identity", "empty-plan-baseline", "kill-respawn"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cluster_fault_family_is_not_vacuous(seed):
    """The family's chaotic run, at ``repro validate``'s defaults, puts
    messages on the fabric and the chaos plan drops some of them: the
    jobs/kill identities compare runs that really exercise it."""
    scenario = cluster_chaos_scenario(seed=seed)
    assert not scenario.scheduler.migrate
    counters = run_cluster(scenario, jobs=1).counters
    assert counters["xshard.sent"] > 0
    assert counters["cluster.dropped"] > 0


def test_machine_crash_loses_requests_instead_of_hanging():
    """Requests bound to a dead machine resolve as lost, not hung: the
    run terminates and the loss shows up in the counters."""
    chaos = FaultPlan(faults=(
        MachineCrash(shard="shard1", at=_DURATION / 4),
        FabricLoss(rate=0.3),
    ), seed=5)
    chaotic = dataclasses.replace(_plan(), cluster_faults=chaos)
    report = run_sharded(chaotic, jobs=1)
    lost = sum(t.lost for t in report.tenants.values())
    assert lost > 0
    assert report.counters["sched.machine_lost"] > 0
    assert report.counters["cluster.dropped"] >= 0
