"""Skipped zero-delay hops are unobservable; kept ones still order ties.

A verb skips a zero-delay hop whose only waiter is the running process
(a DMA transaction's completion, an uncontended NIC-unit grant, a take
from a non-empty admission queue, and for a verb a serving worker runs
inline, the start and completion it had as a process of its own) only
when ``Simulator.due_now()`` is False.  The crafted ties below put
another event due at the hop's instant and assert the order the hop
gives it: that event runs first.
The "same instant spawn" ties have the tied event at URGENT priority (a
process spawned at the same instant), so a ``due_now`` that skipped the
hop, or that counted only NORMAL entries, reorders them.  The
"tied delivery" ties are the serving case: two DMAs ending at once, the
other one's NORMAL delivery still queued.  (A step resumed by a NORMAL
event cannot find an URGENT entry due now unless it queued one itself,
so that case needs no hop.)  URGENT and NORMAL are the only priorities,
and the kernel has no interrupts, so nothing but the hop's own event
can wake the process between the hop and its resume.

The property test then runs small tie-heavy serving configs twice, as
they are and with every hop scheduled (``due_now`` patched to always
answer True, the kernel's behaviour before hops were skipped), and
requires the same completion records, decisions, counters and hybrid
statistics, with fewer events.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.paths import CommPath, Opcode
from repro.faults.plan import FaultPlan, PacketLoss, SocCrash
from repro.hw.pcie import PCIE_GEN4, DmaEngine, PCIeLink
from repro.hw.pcie.dma import LinkHop
from repro.net.cluster import SimCluster
from repro.net.topology import paper_testbed
from repro.nic.core import Endpoint
from repro.nic.smartnic import SmartNIC
from repro.nic.specs import BLUEFIELD2
from repro.rdma import RdmaContext, transport
from repro.sched.runtime import PathLease, ServingRuntime
from repro.sched.serve import ServeSession
from repro.sched.slo import SloTracker
from repro.sched.tenant import SloSpec, TenantSpec
from repro.sim import Simulator, Store
from repro.workloads import OpMix


# -- crafted ties, one per hop site ----------------------------------------------


def test_dma_completion_hop_lets_a_same_instant_spawn_send_first():
    """A read whose request leg is already at the target: that leg
    returns at once, and its completion hop lets the process spawned
    at the same instant put its TLPs on the link the data leg uses."""
    sim = Simulator()
    link = PCIeLink(sim, PCIE_GEN4, latency=100.0, name="pcie1")
    engine = DmaEngine(sim)
    log = []

    def verb():
        yield from engine.read((), 512, 512,
                               back=(LinkHop(link, forward=False),))
        log.append("verb")

    def rival():
        yield link.send_data(512, 512, forward=False)
        log.append("rival")

    sim.process(verb())
    sim.process(rival())
    sim.run()
    assert log == ["rival", "verb"]


@pytest.mark.parametrize("op", ["write", "read"])
def test_dma_completion_hop_lets_a_tied_delivery_send_first(op):
    """Two DMAs on twin NICs end at the same instant.  The verb's
    transaction ends first, and its completion hop lets the twin's
    owner send on the verb's PCIe1 before the verb's next leg does."""
    sim = Simulator()
    nic, twin = (SmartNIC(BLUEFIELD2).instantiate(sim) for _ in range(2))
    mps = nic.mps_for(Endpoint.HOST)
    target = (nic.dma, nic.route_to(Endpoint.HOST),
              nic.route_from(Endpoint.HOST), mps)
    dma = (transport.server_dma_write if op == "write"
           else transport.server_dma_read)
    log = []

    def verb():
        yield from dma(target, 4096)
        yield nic.pcie1.send_data(4096, mps)
        log.append(("verb", sim.now))

    def rival():
        route = twin.route_to(Endpoint.HOST)
        if op == "write":
            yield from twin.dma.write(route, 4096, mps)
        else:
            yield from twin.dma.read(route, 4096, mps,
                                     twin.route_from(Endpoint.HOST))
        log.append(("rival-dma", sim.now))
        yield nic.pcie1.send_data(4096, mps)
        log.append(("rival", sim.now))

    sim.process(verb())
    sim.process(rival())
    sim.run()
    names = [name for name, _ in log]
    assert names == ["rival-dma", "rival", "verb"]
    assert log[1][1] < log[2][1]


def test_nic_grant_hop_lets_a_same_instant_spawn_queue_first():
    """An uncontended NIC-unit grant with a process spawned at the same
    instant: the grant hop lets that process queue its timeout ahead
    of the verb's service time, so at the tie it sees the unit held."""
    cluster = SimCluster(paper_testbed())
    sim = cluster.sim
    server = cluster.servers["server0"]
    route = transport.Route(cluster, cluster.node("client0"),
                            cluster.node("host"))
    seen = []

    def verb():
        yield from transport.server_nic_stage(route)

    def rival():
        yield sim.timeout(server.service_ns)
        seen.append(server.pipeline.in_use)

    sim.process(verb())
    sim.process(rival())
    sim.run()
    assert seen == [1]


def test_admission_take_hop_lets_a_same_instant_spawn_run_first():
    """A worker starting on a non-empty tenant queue next to a process
    spawned at the same instant: the get hop lets that process run
    before the worker serves the item."""
    sim = Simulator()
    queue = Store(sim)
    queue.offer((0, Opcode.WRITE, 0.0))
    queue.offer(None)
    log = []

    def serve_one(t, wid, seq, op, arrived_ns):
        log.append(("serve", seq))
        return
        yield  # pragma: no cover - makes this a generator

    def rival():
        log.append(("rival", None))
        yield sim.timeout(0)

    runtime = SimpleNamespace(sim=sim, _serve_one=serve_one)
    sim.process(ServingRuntime._worker(runtime, SimpleNamespace(queue=queue),
                                       0))
    sim.process(rival())
    sim.run()
    assert log == [("rival", None), ("serve", 0)]


def _runtime(spec, path, responder):
    """A serving runtime with ``spec`` bound to ``path`` and no arrival
    or worker processes, so a test drives ``_serve_one`` itself."""
    cluster = SimCluster(paper_testbed())
    runtime = ServingRuntime(cluster, RdmaContext(cluster), [spec],
                             SloTracker([spec]))
    tenant = runtime._tenants[spec.name]
    tenant.lease = PathLease(spec.name, path, responder)
    runtime._connect(tenant)
    return runtime, tenant


def test_verb_start_hop_lets_a_same_instant_spawn_queue_first():
    """A worker starting a path-3 WRITE next to a process spawned at the
    same instant: the verb-start hop (a verb process's bootstrap) lets
    that process queue its timeout ahead of the verb's posting, so at
    the tie it sees the NIC unit still free."""
    spec = TenantSpec(name="bulk", payload=4096, interval_ns=1_000.0,
                      requests=1, mix=_MIXES["write"], bulk=True)
    runtime, tenant = _runtime(spec, CommPath.SNIC3_H2S, "soc")
    sim = runtime.sim
    posting = runtime.cluster.node("host").cpu.posting_latency()
    pipeline = runtime.cluster.servers["server0"].pipeline
    seen = []

    def rival():
        yield sim.timeout(posting)
        seen.append(pipeline.in_use)

    sim.process(runtime._serve_one(tenant, 0, 0, Opcode.WRITE, 0.0))
    sim.process(rival())
    sim.run()
    assert seen == [0]
    assert len(runtime.completions) == 1


def test_verb_completion_hop_lets_a_tied_event_run_first():
    """An event already due when a runtime-driven WRITE completes: the
    verb-completion hop (a verb process's completion event) lets it run
    before the worker records the completion."""
    spec = TenantSpec(name="t", payload=64, interval_ns=1_000.0,
                      requests=1, mix=_MIXES["write"])

    def serve(rival=None):
        runtime, tenant = _runtime(spec, CommPath.SNIC1, "host")
        runtime.sim.process(
            runtime._serve_one(tenant, 0, 0, Opcode.WRITE, 0.0))
        if rival is not None:
            runtime.sim.process(rival(runtime))
        runtime.sim.run()
        return runtime

    end = serve().completions[0].end_ns
    seen = []

    def rival(runtime):
        sim = runtime.sim
        # Queue an event at exactly ``end`` after the verb's last leg:
        # ``end - 1`` is past its submission, and the difference of two
        # floats within a factor of two is exact, so the sum is ``end``.
        yield sim.timeout(end - 1.0)
        yield sim.timeout(end - sim.now)
        seen.append(len(runtime.completions))

    runtime = serve(rival)
    assert runtime.completions[0].end_ns == end
    assert seen == [0]


# -- property: skipping never changes an answer ---------------------------------

_MIXES = {
    "read": OpMix(read=1.0, write=0.0),
    "write": OpMix(read=0.0, write=1.0),
    "send": OpMix(read=0.0, write=0.0, send=1.0),
    "mixed": OpMix(read=0.4, write=0.4, send=0.2),
}


@st.composite
def _configs(draw):
    """A small serving run whose tenants tie: one interval and payload."""
    interval = draw(st.sampled_from([400.0, 800.0, 1_500.0]))
    payload = draw(st.sampled_from([64, 512, 4096]))
    duration = draw(st.sampled_from([30_000.0, 60_000.0]))
    requests = max(1, int(duration / interval))
    tenants = [
        TenantSpec(name=f"t{i}", payload=payload, interval_ns=interval,
                   requests=requests, mix=_MIXES[mix],
                   slo=SloSpec(p99_ns=20_000.0),
                   workers=draw(st.sampled_from([1, 4])), queue_limit=8,
                   seed=i)
        for i, mix in enumerate(draw(st.lists(
            st.sampled_from(sorted(_MIXES)), min_size=1, max_size=2)))]
    if draw(st.booleans()):          # a path-3 tenant
        tenants.append(TenantSpec(
            name="bulk", payload=payload, interval_ns=interval,
            requests=requests, mix=_MIXES["write"], bulk=True,
            slo=SloSpec(p99_ns=60_000.0), workers=2, queue_limit=4))
    faults = []
    if draw(st.booleans()):
        faults.append(PacketLoss(
            draw(st.sampled_from(["net.server0", "pcie1"])),
            draw(st.sampled_from([0.05, 0.2])), start=duration / 4))
    if draw(st.booleans()):
        faults.append(SocCrash(at=duration / 2))
    return dict(tenants=tuple(tenants),
                faults=FaultPlan(faults=tuple(faults)) if faults else None,
                engine=draw(st.sampled_from(["event", "hybrid"])),
                window_ns=duration / 4, interval_ns=duration / 8)


def _answers(config):
    session = ServeSession(**config)
    session.run_to_completion()
    report = session.finalize()
    records = [(r.tenant, r.seq, r.op, r.start_ns, r.end_ns, r.ok,
                r.attempts) for r in session.runtime.completions]
    return (records, [d.as_tuple() for d in report.decisions],
            report.counters, report.hybrid_stats,
            session.cluster.sim.events_executed)


@settings(max_examples=25, deadline=None)
@given(_configs())
def test_skipping_hops_changes_no_answer(config):
    *answers, events = _answers(config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Simulator, "due_now", lambda self: True)
        *every_hop, every_hop_events = _answers(config)
    assert answers == every_hop
    assert events < every_hop_events
