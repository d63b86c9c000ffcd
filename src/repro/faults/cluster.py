"""Cluster-scope chaos: machine crashes and fabric faults for sharded runs.

:class:`ClusterInjector` arms a :class:`~repro.faults.plan.FaultPlan`
made of cluster-scope specs (:class:`MachineCrash`,
:class:`FabricPartition`, :class:`FabricLoss`, :class:`FabricDelay`,
:class:`FabricReorder`) against the cross-shard fabric of a
:class:`~repro.sim.shard.ShardPlan` run.  It plays three roles:

* **liveness oracle** — :meth:`machine_down` answers "is this shard's
  machine dead at time t?" from the plan alone, so shard workers and
  the lockstep parent agree without exchanging any state;
* **plan lowering** — :meth:`local_faults` translates a
  :class:`MachineCrash` into the crashed shard's own single-machine
  fault plan (an SoC crash with matching recovery), so the intra-shard
  consequences ride the PR-3 injector unchanged;
* **fabric mutation** — :meth:`apply_outbox` drops and delays messages
  at routing time in the lockstep parent, and :meth:`shuffle_inbox`
  permutes delivery order within a window.

Every random decision is a pure hash of ``(plan.seed, message
identity)`` — never a stateful RNG draw — so outcomes are independent
of the order messages are examined and ``jobs=N`` stays bit-identical
to ``jobs=1``.  The injector itself is plain picklable data (the plan
plus counters), so shard workers can carry a copy for the oracle.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults.plan import (FabricDelay, FabricLoss, FabricPartition,
                               FabricReorder, FaultPlan, MachineCrash,
                               SocCrash, is_cluster_fault)

#: Headroom added to the derived ack-timeout so queueing at the relay
#: never masquerades as a fabric fault.
_TIMEOUT_SLACK_NS = 50_000.0


def _unit(seed: int, *key) -> float:
    """A uniform [0, 1) draw that is a pure function of its key."""
    data = "|".join(str(part) for part in (seed,) + key).encode()
    digest = hashlib.sha256(data).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


class ClusterInjector:
    """Deterministic interpreter for a cluster-scope fault plan."""

    def __init__(self, plan: FaultPlan, shards: Sequence[str], topology):
        for fault in plan.faults:
            if not is_cluster_fault(fault):
                raise ValueError(
                    f"{type(fault).__name__} is a single-machine fault; "
                    f"it belongs in a ShardSpec's own plan, not "
                    f"cluster_faults")
        known = set(shards)
        self.plan = plan
        self.shards = tuple(shards)
        self.crashes: Dict[str, List[MachineCrash]] = {}
        self.partitions: List[FabricPartition] = []
        self.losses: List[FabricLoss] = []
        self.delays: List[FabricDelay] = []
        self.reorders: List[FabricReorder] = []
        for fault in plan.faults:
            names = ()
            if isinstance(fault, MachineCrash):
                names = (fault.shard,)
                self.crashes.setdefault(fault.shard, []).append(fault)
            elif isinstance(fault, FabricPartition):
                names = (fault.a, fault.b)
                self.partitions.append(fault)
            elif isinstance(fault, FabricLoss):
                names = tuple(n for n in (fault.src, fault.dst) if n != "*")
                self.losses.append(fault)
            elif isinstance(fault, FabricDelay):
                names = tuple(n for n in (fault.src, fault.dst) if n != "*")
                self.delays.append(fault)
            elif isinstance(fault, FabricReorder):
                names = () if fault.dst == "*" else (fault.dst,)
                self.reorders.append(fault)
            for name in names:
                if name not in known:
                    raise ValueError(
                        f"{type(fault).__name__} names unknown shard "
                        f"{name!r}; plan shards: {sorted(known)}")
        self.dropped = 0
        self.dropped_crash = 0
        self.dropped_partition = 0
        self.dropped_loss = 0
        self.dropped_ctl = 0
        self.delayed = 0
        self.reordered = 0
        self._topology = topology

    # -- liveness oracle ----------------------------------------------------------

    def machine_down(self, shard: str, now: float) -> bool:
        """Whether ``shard``'s machine (host + SoC) is dead at ``now``.

        Pure function of the plan and the clock, so the lockstep parent
        and every worker answer identically without coordination.
        """
        return any(crash.active(now) for crash in self.crashes.get(shard, ()))

    def alive_shards(self, now: float) -> Tuple[str, ...]:
        """Shards whose machines are up at ``now``, in plan order."""
        return tuple(s for s in self.shards if not self.machine_down(s, now))

    def machines_lost(self, since: float, until: float) -> Tuple[str, ...]:
        """Shards whose machines died in ``(since, until]``, plan order.

        The cluster scheduler's crash-migration trigger: a machine in
        this set just went from alive to dead, so tenants offloaded
        *to* it must be retargeted and tenants homed *on* it written
        off until recovery.  Pure function of the plan, like every
        oracle here.
        """
        return tuple(s for s in self.shards
                     if not self.machine_down(s, since)
                     and self.machine_down(s, until))

    # -- plan lowering ------------------------------------------------------------

    def local_faults(self, shard: str) -> Tuple[SocCrash, ...]:
        """``shard``'s machine crashes lowered to single-machine faults.

        A whole-machine death shows up inside the shard as an SoC crash
        (QPs error, the path policy fails host-ward) with the same
        recovery schedule; the host side of the death is enforced by
        the runtime's dispatch-time liveness check and the fabric-level
        message drops.
        """
        return tuple(SocCrash(server="server0", at=crash.at,
                              recover_at=crash.recover_at)
                     for crash in self.crashes.get(shard, ()))

    # -- fabric mutation ----------------------------------------------------------

    def fault_timeout_ns(self) -> float:
        """Default ack-timeout for channels under this plan: several
        fabric RTTs plus every configured extra delay plus slack."""
        latencies = [self._topology.latency_ns(s, d)
                     for s in self._topology.shards
                     for d in self._topology.shards if s != d]
        worst = max(latencies) if latencies else 0.0
        extras = sum(delay.extra_ns for delay in self.delays)
        return 4.0 * worst + extras + _TIMEOUT_SLACK_NS

    def apply_outbox(self, messages: Sequence) -> List:
        """Filter one routing batch: drop what the plan kills, delay
        what it slows.  Returns the surviving (possibly rewritten)
        messages in their original order."""
        out = []
        for msg in messages:
            extra = sum(d.extra_ns for d in self.delays
                        if d.active(msg.send_ns)
                        and d.matches(msg.src, msg.dst))
            if extra > 0.0:
                msg = replace(msg, deliver_ns=msg.deliver_ns + extra)
                self.delayed += 1
            if self.machine_down(msg.src, msg.send_ns) \
                    or self.machine_down(msg.dst, msg.deliver_ns):
                self.dropped += 1
                self.dropped_crash += 1
                if getattr(msg, "kind", "") == "ctl":
                    self.dropped_ctl += 1
                continue
            if any(p.active(msg.send_ns) and p.severs(msg.src, msg.dst)
                   for p in self.partitions):
                self.dropped += 1
                self.dropped_partition += 1
                continue
            lost = False
            for loss in self.losses:
                if not (loss.active(msg.send_ns)
                        and loss.matches(msg.src, msg.dst)):
                    continue
                if _unit(self.plan.seed, "loss", msg.src, msg.dst,
                         msg.msg_id, msg.send_ns) < loss.rate:
                    lost = True
                    break
            if lost:
                self.dropped += 1
                self.dropped_loss += 1
                continue
            out.append(msg)
        return out

    def shuffle_inbox(self, shard: str, barrier: float,
                      inbox: List) -> List:
        """Permute delivery times among this window's reorder-matched
        messages for ``shard``.  All rewritten ``deliver_ns`` values
        come from the same batch, so delivery stays within the window
        and the one-window guarantee holds."""
        if not self.reorders or len(inbox) < 2:
            return inbox
        picked = [i for i, msg in enumerate(inbox)
                  if any(r.active(msg.deliver_ns) and r.matches(msg.dst)
                         for r in self.reorders)]
        if len(picked) < 2:
            return inbox
        times = [inbox[i].deliver_ns for i in picked]
        rng = random.Random(int(_unit(self.plan.seed, "reorder", shard,
                                      barrier) * 2.0 ** 53))
        perm = times[:]
        rng.shuffle(perm)
        out = list(inbox)
        for i, deliver_ns in zip(picked, perm):
            if out[i].deliver_ns != deliver_ns:
                self.reordered += 1
            out[i] = replace(out[i], deliver_ns=deliver_ns)
        out.sort(key=lambda m: m.sort_key())
        return out

    # -- reporting ----------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """Parent-side counters for the merged report (``cluster.*``)."""
        return {
            "cluster.dropped": self.dropped,
            "cluster.dropped_crash": self.dropped_crash,
            "cluster.dropped_partition": self.dropped_partition,
            "cluster.dropped_loss": self.dropped_loss,
            "cluster.dropped_ctl": self.dropped_ctl,
            "cluster.delayed": self.delayed,
            "cluster.reordered": self.reordered,
        }
