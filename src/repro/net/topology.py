"""The rack-scale testbed of Table 2, as one queryable object."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arrays import namespace_of
from repro.hw.cpu import CPUSpec
from repro.net.fabric import FabricSpec, DEFAULT_FABRIC
from repro.nic.rnic import RNIC
from repro.nic.smartnic import SmartNIC
from repro.nic.specs import (
    BLUEFIELD2,
    CLIENT_SIDE_DOORBELL,
    CONNECTX4,
    CONNECTX6,
    DoorbellCosts,
    RNICSpec,
    CLIENT_CPU,
    HOST_CPU,
)


@dataclass(frozen=True)
class Testbed:
    """Machines, NICs and fabric of one experiment cluster.

    ``snic`` and ``rnic`` describe the server NIC in its two build-outs
    (the SRV machines can host either a Bluefield-2 or a ConnectX-6,
    Table 2); ``n_clients`` CLI machines issue requests.
    """

    __test__ = False  # not a pytest collection target

    snic: SmartNIC
    rnic: RNIC
    host_cpu: CPUSpec = HOST_CPU
    client_cpu: CPUSpec = CLIENT_CPU
    client_nic: RNICSpec = CONNECTX4
    client_doorbell: DoorbellCosts = CLIENT_SIDE_DOORBELL
    n_clients: int = 20
    fabric: FabricSpec = DEFAULT_FABRIC

    def __post_init__(self):
        if self.n_clients < 1:
            raise ValueError(f"need at least one client: {self.n_clients}")

    def client_issue_capacity(self, machines: int,
                              doorbell_batch: int = 1) -> float:
        """Aggregate posting rate (reqs/ns) of ``machines`` clients."""
        machines = self._clamp_clients(machines)
        cost = self._post_cost(self.client_doorbell, doorbell_batch)
        return machines * self.client_cpu.total_cores / cost

    def host_issue_capacity(self, threads: int = None,
                            doorbell_batch: int = 1) -> float:
        """Posting rate (reqs/ns) of the host acting as path-3 requester."""
        cost = self._post_cost(self.snic.spec.host_doorbell, doorbell_batch)
        return self._clamp_threads(threads, self.host_cpu.total_cores) / cost

    def soc_issue_capacity(self, threads: int = None,
                           doorbell_batch: int = 1) -> float:
        """Posting rate (reqs/ns) of the SoC acting as path-3 requester."""
        soc = self.snic.soc
        cost = self._post_cost(soc.doorbell, doorbell_batch)
        return self._clamp_threads(threads, soc.cpu.total_cores) / cost

    def client_network_capacity(self, machines: int) -> float:
        """Aggregate per-direction client NIC bandwidth, bytes/ns."""
        machines = self._clamp_clients(machines)
        per_client = self.client_nic.cores.network_bandwidth
        return machines * min(per_client, self.fabric.port_bandwidth)

    @staticmethod
    def _post_cost(doorbell: DoorbellCosts, batch: int) -> float:
        return namespace_of(batch).where(
            batch <= 1, doorbell.per_request,
            doorbell.batched_cost_per_request(batch))

    def _clamp_clients(self, machines: int) -> int:
        xp = namespace_of(machines)
        if xp.any(machines < 1):
            raise ValueError(f"need at least one machine: {machines}")
        return xp.minimum(machines, self.n_clients)

    @staticmethod
    def _clamp_threads(threads: int, cores: int) -> int:
        if threads is None:
            return cores
        return namespace_of(threads).minimum(threads, cores)


def paper_testbed(n_clients: int = 20) -> Testbed:
    """The exact cluster of Table 2."""
    return Testbed(snic=SmartNIC(BLUEFIELD2), rnic=RNIC(CONNECTX6),
                   n_clients=n_clients)
