"""The top-level verbs facade: device/PD/QP management per cluster."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.net.cluster import SimCluster
from repro.rdma.cq import CompletionQueue
from repro.rdma.mr import MemoryRegion, ProtectionDomain
from repro.rdma.qp import QPError, QPType, QueuePair


class RdmaContext:
    """Opens the cluster's RDMA devices and manages PDs, CQs and QPs."""

    def __init__(self, cluster: SimCluster):
        self.cluster = cluster
        self._pds: Dict[str, ProtectionDomain] = {}

    # -- memory ----------------------------------------------------------------

    def pd(self, node_name: str) -> ProtectionDomain:
        """The protection domain of a node (created on first use)."""
        if node_name not in self._pds:
            self._pds[node_name] = ProtectionDomain(
                self.cluster.node(node_name))
        return self._pds[node_name]

    def reg_mr(self, node_name: str, length: int) -> MemoryRegion:
        """Register a buffer on a node."""
        return self.pd(node_name).reg_mr(length)

    # -- queue pairs --------------------------------------------------------------

    def create_cq(self, node_name: str, depth: int = 4096) -> CompletionQueue:
        self.cluster.node(node_name)  # validates the name
        return CompletionQueue(self.cluster.sim, depth)

    def create_qp(self, node_name: str, qp_type: QPType = QPType.RC,
                  send_cq: Optional[CompletionQueue] = None,
                  recv_cq: Optional[CompletionQueue] = None) -> QueuePair:
        node = self.cluster.node(node_name)
        # Explicit None checks: an empty CompletionQueue is falsy
        # (len() == 0), so ``or`` would silently replace a caller's CQ.
        if send_cq is None:
            send_cq = CompletionQueue(self.cluster.sim)
        if recv_cq is None:
            recv_cq = CompletionQueue(self.cluster.sim)
        return QueuePair(node, qp_type, send_cq, recv_cq)

    def connect_rc(self, requester: str,
                   responder: str) -> Tuple[QueuePair, QueuePair]:
        """Create and connect an RC pair; returns (requester_qp, responder_qp)."""
        qp_a = self.create_qp(requester, QPType.RC)
        qp_b = self.create_qp(responder, QPType.RC)
        qp_a.connect(qp_b)
        return qp_a, qp_b

    def rebind_rc(self, qp: QueuePair,
                  responder: str) -> Tuple[QueuePair, QueuePair]:
        """Re-bind an RC flow to a new responder node.

        RC connections are point-to-point and immutable once at RTS, so
        "moving" a flow means a fresh pair: the old pair is left alone
        to drain (or flush, if its responder crashed) while the returned
        pair — same requester node, new responder — is immediately
        usable.  This is the primitive behind the path scheduler's
        migration decisions.
        """
        if qp.qp_type is not QPType.RC:
            raise QPError("only RC flows can be re-bound")
        if qp.peer is None:
            raise QPError("cannot re-bind an unconnected QP")
        return self.connect_rc(qp.node.name, responder)
