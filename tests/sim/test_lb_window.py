"""LB links must not narrow the lockstep sync window.

The load balancer is a topology node so control messages can be
addressed from it, but it only injects traffic *at* barriers — the
one-window delivery guarantee never rides on an LB hop.  The window
floor therefore comes from the tightest machine-to-machine link
(``min_fabric_latency_ns``), not the tightest link anywhere
(``min_latency_ns``); deriving it from the latter would let a fast LB
hop force needless extra barriers.
"""

from repro.sched.serve import mixed_tenant_workload
from repro.sim.shard import ShardPlan, ShardSpec, run_sharded
from repro.sim.supervise import SupervisorConfig, WindowLog
from repro.sim.xshard import ShardTopology

_LB_LINKS = {("lb", "shard0"): 5_000.0, ("shard0", "lb"): 5_000.0,
             ("lb", "shard1"): 5_000.0, ("shard1", "lb"): 5_000.0}


def _lb_topology():
    return ShardTopology(shards=("shard0", "shard1", "lb"),
                         link_latency_ns=25_000.0,
                         overrides=_LB_LINKS, lb="lb")


def test_fabric_floor_excludes_lb_links():
    topo = _lb_topology()
    assert topo.fabric_shards == ("shard0", "shard1")
    assert topo.min_latency_ns() == 5_000.0
    assert topo.min_fabric_latency_ns() == 25_000.0


def test_fabric_floor_without_lb_matches_min_latency():
    topo = ShardTopology(shards=("shard0", "shard1"),
                         link_latency_ns=25_000.0)
    assert topo.min_fabric_latency_ns() == topo.min_latency_ns() == 25_000.0


def test_run_window_is_the_fabric_floor(tmp_path):
    """Regression: with a 5 µs LB hop and 25 µs machine links, the run
    advances in 25 µs windows (the journal's header records them)."""
    tenants = mixed_tenant_workload(duration_ns=60_000.0)
    plan = ShardPlan(shards=(ShardSpec("shard0", tenants[:2]),
                             ShardSpec("shard1", tenants[2:])),
                     topology=_lb_topology())
    report = run_sharded(plan, jobs=1, supervisor=SupervisorConfig(
        checkpoint_dir=str(tmp_path)))
    assert report.tenants
    log = WindowLog.load(str(tmp_path))
    assert log.sync_window_ns == 25_000.0
    assert [barrier for barrier, _ in log.windows][:2] == [25_000.0,
                                                           50_000.0]
