"""The Resource Manager (paper §6.2).

"The Resource Manager allocates machines to users and programs.  These
resources are reclaimed by the manager after long timeouts (typically
three hours) have expired.  Extending the timeouts on a client's
resources, at least until the end of the debugging session, will satisfy
almost all situations."

Also implements §6.2's resource-contention policy: "A simpler approach
has the server extending a timeout on some resource allocation until a
client, not under control of the same debugger, requests the resource.
At that point the resource is reclaimed and reallocated."
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cvm.values import CluRecord
from repro.mayflower.syscalls import Cpu
from repro.rpc.marshal import Signature
from repro.servers.leases import Lease, LeaseTable
from repro.servers.strategies import TimeoutStrategy, make_strategy

if TYPE_CHECKING:
    from repro.cluster import Cluster

SERVICE = "resman"


class ResourceManager:
    """Allocates machines under leases with a debug-aware strategy."""

    def __init__(
        self,
        cluster: "Cluster",
        node,
        machines: list[str],
        strategy: str = "fig3",
        timeout: Optional[int] = None,
        reclaim_on_contention: bool = True,
        service: str = SERVICE,
    ):
        self.cluster = cluster
        self.node = cluster.node(node)
        self.free = list(machines)
        self.timeout = timeout if timeout is not None else (
            self.node.params.resource_manager_timeout
        )
        self.strategy: TimeoutStrategy = make_strategy(strategy)
        self.reclaim_on_contention = reclaim_on_contention
        self.leases = LeaseTable(self.node)
        #: machine -> (client_node, lease)
        self.allocations: dict[str, tuple[int, Lease]] = {}
        self.reclaimed_by_contention = 0
        self.expired_allocations = 0
        self.node.rpc.export_native(
            service,
            {
                "allocate": self._rpc_allocate,
                "refresh": self._rpc_refresh,
                "release": self._rpc_release,
                "holdings": self._rpc_holdings,
            },
            signatures={
                "allocate": Signature([], "allocation"),
                "refresh": Signature(["string"], "bool"),
                "release": Signature(["string"], "bool"),
                "holdings": Signature([], "any"),
            },
        )

    # ------------------------------------------------------------------
    # RPC handlers (run as server worker processes)
    # ------------------------------------------------------------------

    def _rpc_allocate(self, ctx):
        yield Cpu(200)
        machine = self._grant(ctx.client_node)
        if machine is None and self.reclaim_on_contention:
            victim = self._contention_victim(ctx.client_node)
            if victim is not None:
                self._reclaim(victim)
                self.reclaimed_by_contention += 1
                machine = self._grant(ctx.client_node)
        return CluRecord(
            "allocation",
            {"ok": machine is not None, "machine": machine or ""},
        )

    def _rpc_refresh(self, ctx, machine: str) -> bool:
        entry = self.allocations.get(machine)
        if entry is None or entry[0] != ctx.client_node:
            return False
        return entry[1].refresh()

    def _rpc_release(self, ctx, machine: str) -> bool:
        entry = self.allocations.get(machine)
        if entry is None or entry[0] != ctx.client_node:
            return False
        self._return_machine(machine)
        return True

    def _rpc_holdings(self, ctx):
        from repro.cvm.values import CluArray

        return CluArray(
            [m for m, (client, _l) in self.allocations.items()
             if client == ctx.client_node]
        )

    # ------------------------------------------------------------------

    def _grant(self, client_node: int) -> Optional[str]:
        if not self.free:
            return None
        machine = self.free.pop(0)
        lease = self.leases.create(
            client_node, self.timeout, self.strategy, tag=machine
        )
        original_on_expire = lease.on_expire

        def expire(l: Lease) -> None:
            original_on_expire(l)
            self.expired_allocations += 1
            if machine in self.allocations:
                self.allocations.pop(machine, None)
                self.free.append(machine)

        lease.on_expire = expire
        self.allocations[machine] = (client_node, lease)
        return machine

    def _return_machine(self, machine: str) -> None:
        entry = self.allocations.pop(machine, None)
        if entry is None:
            return
        self.leases.drop(entry[1])
        self.free.append(machine)

    def _reclaim(self, machine: str) -> None:
        """Forced reclaim (contention from an undebugged client)."""
        self._return_machine(machine)

    def _contention_victim(self, requester: int) -> Optional[str]:
        """Pick an allocation held by a client of the debugger to reclaim
        when a different client needs the resource (paper §6.2)."""
        for machine, (client, lease) in self.allocations.items():
            if client == requester:
                continue
            agent = self._agent_of(client)
            if agent is not None and agent.connected():
                return machine
        return None

    def _agent_of(self, node_id: int):
        try:
            return self.cluster.node(node_id).agent
        except (KeyError, IndexError):
            return None
