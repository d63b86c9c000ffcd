"""The fault injector: arms a :class:`~repro.faults.plan.FaultPlan`
against a live :class:`~repro.net.cluster.SimCluster`.

Injection happens at the link layer by wrapping ``send`` on exactly the
targeted channel *instances*.  Every transfer of a train (every TLP of
a PCIe transfer) gets its own drop draw, but only the last one's can
poison the delivery, which is the only event a train schedules.  A
dropped transfer still occupies the wire (the real delivery event is
submitted and simply ignored) and the caller instead receives an event
resolving to :data:`~repro.sim.LOST` at the moment the delivery would
have happened.  Untargeted channels, and every
channel under an empty plan, are left completely untouched — fault-free
runs execute bit-identically to runs without an injector.

Drop decisions come from the injector's own seeded
:class:`~repro.sim.RandomStreams` family (one substream per channel), so
installing a plan never perturbs the simulation's random draws.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.faults.plan import (FaultPlan, LinkDown, LinkFlap, NodeStall,
                               PacketLoss, SocCrash, is_cluster_fault)
from repro.sim.events import Event
from repro.sim.links import DuplexChannel, LOST
from repro.sim.rng import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.cluster import Node, SimCluster


class FaultInjector:
    """Installs a plan's faults; owns all fault-time randomness."""

    def __init__(self, cluster: "SimCluster", plan: FaultPlan,
                 seed: Optional[int] = None):
        self.cluster = cluster
        self.plan = plan
        self.seed = plan.seed if seed is None else seed
        self.streams = RandomStreams(self.seed).fork("faults")
        self.injected = 0
        self._wrapped: List[DuplexChannel] = []
        self._stalls: List[NodeStall] = []
        self._installed = False

    # -- wiring --------------------------------------------------------------------

    def _channels_by_name(self) -> Dict[str, DuplexChannel]:
        cluster = self.cluster
        channels: Dict[str, DuplexChannel] = {}
        for server in cluster.servers.values():
            channels[f"net.{server.name}"] = server.channel
        for node in cluster.clients():
            channels[f"net.{node.name}"] = cluster.channel(node)
        snic = cluster.snic
        if snic is not None:
            channels["pcie0"] = snic.pcie0.channel
            channels["pcie1"] = snic.pcie1.channel
        elif cluster.rnic is not None:
            channels["pcie0"] = cluster.rnic.host_link.channel
        return channels

    def install(self) -> None:
        """Arm the plan.  A no-op (nothing touched) for an empty plan."""
        if self._installed:
            raise RuntimeError("fault injector already installed")
        self._installed = True
        if self.plan.empty:
            return
        self.cluster.fault_injector = self
        channels = self._channels_by_name()
        drops: Dict[str, list] = {}
        for fault in self.plan.faults:
            if isinstance(fault, (PacketLoss, LinkDown, LinkFlap)):
                if fault.target not in channels:
                    raise ValueError(
                        f"unknown fault target {fault.target!r}; "
                        f"known links: {sorted(channels)}")
                drops.setdefault(fault.target, []).append(fault)
            elif isinstance(fault, NodeStall):
                self.cluster.node(fault.node)  # validate early
                self._stalls.append(fault)
            elif isinstance(fault, SocCrash):
                self._soc_node(fault.server)  # validate at install time
                self.cluster.sim.process(self._crash_process(fault))
            elif is_cluster_fault(fault):
                raise ValueError(
                    f"{type(fault).__name__} is a cluster-scope fault; "
                    f"put it in ShardPlan.cluster_faults, not a "
                    f"single-machine plan")
        for target, faults in drops.items():
            self._wrap_channel(channels[target], faults)

    def uninstall(self) -> None:
        """Restore every wrapped channel (the crash processes, if any,
        have either run or die with the simulation)."""
        for channel in self._wrapped:
            # The wrapper is an instance attribute shadowing the class's
            # method; dropping it restores the plain bound method.
            del channel.send
        self._wrapped.clear()
        if self.cluster.fault_injector is self:
            self.cluster.fault_injector = None

    # -- link faults ---------------------------------------------------------------

    def _wrap_channel(self, channel: DuplexChannel, faults: list) -> None:
        send = channel.send
        rng = self.streams.stream(f"drop:{channel.name}")
        sim = self.cluster.sim
        cluster = self.cluster

        def should_drop(now: float) -> bool:
            for fault in faults:
                if isinstance(fault, PacketLoss):
                    if fault.active(now) and rng.random() < fault.rate:
                        return True
                elif fault.active(now):
                    return True
            return False

        def faulty_send(nbytes: float, forward: bool = True, count: int = 0,
                        size: float = 0) -> Event:
            delivery = send(nbytes, forward, count, size)
            # One draw per transfer of the train, in submission order.
            # Callers wait only on the last one, so only its draw can
            # poison the delivery; earlier drops are counted and
            # otherwise silent.
            now = sim.now
            drops = 0
            dropped = False
            for _ in range(count + 1):
                dropped = should_drop(now)
                drops += dropped
            if drops:
                self.injected += drops
                cluster.bump("faults.injected", drops)
            if not dropped:
                return delivery
            # The bytes still occupied the wire; only the delivery is
            # poisoned.  The real event fires unobserved.
            simplex = channel.fwd if forward else channel.rev
            lost = Event(sim)
            lost.succeed(LOST, delay=simplex.last_delivery_delay())
            return lost

        channel.send = faulty_send
        self._wrapped.append(channel)

    # -- CPU stalls ----------------------------------------------------------------

    def cpu_factor(self, node: "Node", now: float) -> float:
        """The posting-latency multiplier for ``node`` at ``now``."""
        factor = 1.0
        for fault in self._stalls:
            if fault.node == node.name and fault.active(now):
                factor *= fault.factor
        return factor

    # -- SoC crashes ---------------------------------------------------------------

    def _soc_node(self, server: str) -> "Node":
        for node in self.cluster.nodes.values():
            if node.kind == "soc" and node.server == server:
                return node
        raise ValueError(f"server {server!r} has no SoC node to crash")

    def _crash_process(self, fault: SocCrash):
        from repro.rdma.qp import QPState

        sim = self.cluster.sim
        node = self._soc_node(fault.server)  # validate before the delay
        if fault.at > sim.now:
            yield sim.timeout(fault.at - sim.now)
        node.crashed = True
        self.injected += 1
        self.cluster.bump("faults.injected")
        self.cluster.bump("faults.soc_crashes")
        # Every QP owned by the dead complex errors out; in-flight and
        # future posts on them flush.
        for qp in self.cluster.qps_on(node):
            if qp.state is not QPState.ERROR:
                qp.modify_qp(QPState.ERROR)
        if fault.recover_at is not None:
            yield sim.timeout(fault.recover_at - sim.now)
            node.crashed = False
            self.cluster.bump("faults.soc_recoveries")
