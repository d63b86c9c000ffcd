"""PCIe transfers as TLP trains: exact folding and per-TLP fault draws.

A PCIe transfer of ``nbytes`` is ``ceil(nbytes / mps)`` TLPs (Table 3),
but the DES schedules one delivery event for the whole train.  Two
properties keep that invisible:

* **Exact fold** — the train's delivery time is the float the per-TLP
  FIFO gives when each TLP is sent on its own, and the link counters
  add up to the same totals.
* **Same fault outcomes** — a ``pcie0``/``pcie1`` packet-loss plan
  still draws once per TLP, so every completion, timestamp, drop and
  retransmit matches the outcomes pinned in ``golden/pcie_loss.json``.
  Those were captured from the per-TLP-event implementation and must
  not be regenerated to absorb a drift.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan
from repro.hw.pcie.config import PCIE_GEN3, PCIE_GEN4, PCIE_GEN5
from repro.hw.pcie.link import PCIeLink
from repro.hw.pcie.tlp import TLP_HEADER_BYTES, segment_sizes
from repro.net.cluster import SimCluster
from repro.net.topology import paper_testbed
from repro.rdma import RdmaContext
from repro.sim.engine import Simulator
from repro.sim.links import SimplexChannel

KB = 1024
OPS = 12
PAYLOAD = 16 * KB
GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "pcie_loss.json")

RUNS = [(target, dst, verb, seed)
        for target in ("pcie0", "pcie1")
        for dst in ("host", "soc")
        for verb in ("write", "read")
        for seed in range(6)]


def run_lossy(target: str, dst: str, verb: str, seed: int) -> dict:
    """Post ``OPS`` RC verbs of ``PAYLOAD`` bytes from client0 to
    ``dst`` with 5 % per-TLP loss on ``target``."""
    cluster = SimCluster(paper_testbed(), n_clients=1)
    cluster.install_faults(FaultPlan.packet_loss(target, 0.05, seed=seed))
    ctx = RdmaContext(cluster)
    local = ctx.reg_mr("client0", PAYLOAD)
    remote = ctx.reg_mr(dst, PAYLOAD)
    qp, _ = ctx.connect_rc("client0", dst)
    post = qp.post_write if verb == "write" else qp.post_read
    sim = cluster.sim

    def driver():
        for wr_id in range(OPS):
            yield post(wr_id, local, remote, PAYLOAD)

    sim.process(driver())
    sim.run()
    return {
        "completions": [[c.wr_id, c.status.value, c.timestamp]
                        for c in qp.send_cq.poll(100)],
        "now": sim.now,
        "injected": cluster.stats.get("faults.injected", 0.0),
        "retransmits": cluster.stats.get("rdma.retransmits", 0.0),
    }


def _key(run) -> str:
    return "/".join(map(str, run))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("run", RUNS, ids=_key)
def test_pcie_loss_outcomes_are_pinned(run, golden):
    assert run_lossy(*run) == golden[_key(run)]


def test_pinned_runs_exercise_drops_and_retransmits(golden):
    assert sum(r["injected"] for r in golden.values()) == 1372
    assert sum(r["retransmits"] for r in golden.values()) == 26


# -- exact fold vs a per-TLP reference -----------------------------------------

@settings(max_examples=200, deadline=None, derandomize=True)
@given(spec=st.sampled_from([PCIE_GEN3, PCIE_GEN4, PCIE_GEN5]),
       nbytes=st.integers(0, 1 << 20),
       mps=st.sampled_from([128, 256, 512]),
       backlog=st.integers(0, 64 * KB),
       wait=st.floats(0.0, 5_000.0),
       forward=st.booleans())
def test_send_data_folds_the_train_exactly(spec, nbytes, mps, backlog, wait,
                                           forward):
    sims = []
    for _ in range(2):
        sim = Simulator()
        link = PCIeLink(sim, spec, latency=350.0)
        simplex = link.channel.fwd if forward else link.channel.rev
        # A pre-existing backlog that may or may not have drained.
        simplex.send(backlog)
        sim.run(until=wait)
        sims.append((sim, link, simplex))

    (sim, link, simplex), (ref_sim, _, ref) = sims
    before = sim.events_executed + (sim.peek() < float("inf"))
    delivered = []
    link.send_data(nbytes, mps, forward=forward).add_callback(
        lambda event: delivered.append(sim.now))
    sim.run()
    assert sim.events_executed - before == 1

    # The reference: one SimplexChannel.send per TLP on the twin link.
    sizes = segment_sizes(nbytes, mps) if nbytes else []
    last = ref.send(0) if not sizes else None
    for size in sizes:
        last = ref.send(size + TLP_HEADER_BYTES)
    expected = []
    last.add_callback(lambda event: expected.append(ref_sim.now))
    ref_sim.run()

    assert delivered == expected
    assert simplex.busy_until() == ref.busy_until()
    assert simplex.bytes_sent == ref.bytes_sent
    assert simplex.transfers == ref.transfers
    tlps = link.tlps_fwd if forward else link.tlps_rev
    data = link.data_bytes_fwd if forward else link.data_bytes_rev
    assert tlps == len(sizes)
    assert data == nbytes


@settings(max_examples=200, deadline=None, derandomize=True)
@given(bandwidth=st.floats(0.01, 100.0),
       size=st.integers(0, 4096),
       count=st.integers(0, 64),
       tail=st.integers(0, 4096),
       backlog=st.integers(0, 4096),
       wait=st.floats(0.0, 1_000.0))
def test_a_train_send_is_a_fold_of_sends(bandwidth, size, count, tail,
                                         backlog, wait):
    channels = []
    for _ in range(2):
        sim = Simulator()
        channel = SimplexChannel(sim, bandwidth, latency=7.3)
        channel.send(backlog)
        sim.run(until=wait)
        channels.append(channel)
    train, ref = channels

    done = train.send(tail, count=count, size=size)
    for _ in range(count):
        ref.send(size)
    last = ref.send(tail)
    train.sim.run()
    ref.sim.run()

    assert done.value == last.value == tail
    assert train.sim.now == ref.sim.now
    assert train.busy_until() == ref.busy_until()
    assert train.bytes_sent == ref.bytes_sent
    # The backlog was one transfer too.
    assert train.transfers == ref.transfers == count + 2


def test_a_train_send_rejects_negative_sizes():
    channel = SimplexChannel(Simulator(), bandwidth=1.0)
    for bad in ((-1, 1, 1), (1, -1, 1), (1, 1, -1)):
        with pytest.raises(ValueError):
            channel.send(*bad)
