"""Cluster assembly: wire nodes, ring, RPC, programs and agents together.

This is the top-level convenience layer most examples and tests use::

    cluster = Cluster(names=["client", "server"])
    image = cluster.load_program(SOURCE, "server")
    cluster.rpc(1).export_vm("calc", image, {"add": "add_proc"})
    cluster.spawn_vm(0, client_image, "main")
    cluster.run()
"""

from __future__ import annotations

from typing import Optional, Union

from repro.agent.agent import PilgrimAgent
from repro.agent.requests import DEBUG_SERVICE
from repro.cclu import compile_program
from repro.cvm.image import NodeImage, Program
from repro.cvm.interp import VmExecutor
from repro.mayflower.node import Node
from repro.net import make_transport
from repro.params import Params
from repro.rpc.registry import ServiceRegistry
from repro.rpc.runtime import RpcRuntime
from repro.sim.world import World


class Cluster:
    """A small distributed system: nodes on a transport fabric with RPC.

    ``topology`` selects the fabric from the :mod:`repro.net` registry —
    ``"ring"`` (the paper's Cambridge Ring, the default) or ``"mesh"``
    (switched point-to-point).  The transport is ``cluster.net``.
    """

    def __init__(
        self,
        n_nodes: int = 0,
        names: Optional[list[str]] = None,
        seed: int = 0,
        params: Optional[Params] = None,
        agents: bool = True,
        clock_skews: Optional[list[int]] = None,
        topology: str = "ring",
    ):
        if names is None:
            names = [f"node{i}" for i in range(n_nodes)]
        self.params = params or Params()
        #: The construction recipe, kept verbatim so a trace header can
        #: record everything needed to rebuild an identical cluster
        #: (see :mod:`repro.replay.trace`).
        self.seed = seed
        self.names = list(names)
        self.clock_skews = list(clock_skews) if clock_skews else [0] * len(names)
        self.topology = topology
        self.world = World(seed=seed)
        self.net = make_transport(topology, self.world, self.params)
        self.registry = ServiceRegistry()
        self.nodes: list[Node] = []
        #: Master compiled programs by module (the debugger's source-to-
        #: object mapping comes from here, paper §3).
        self.programs: dict[str, Program] = {}
        for i, name in enumerate(names):
            # Per-node real-clock skew models imperfect synchronization
            # ("assumed to be synchronized correctly", paper §5.2 — the
            # clock_tolerance of §6.1 exists to absorb exactly this).
            skew = clock_skews[i] if clock_skews else 0
            node = Node(i, name, self.world, self.params, clock_skew=skew)
            self.net.attach(node)
            RpcRuntime(node, self.registry)
            if agents:
                # Every node has the agent linked in, dormant (paper §3).
                PilgrimAgent(node)
            node.reboot_hooks.append(self._rewire_after_reboot)
            self.nodes.append(node)

    # ------------------------------------------------------------------

    def node(self, which: Union[int, str]) -> Node:
        if isinstance(which, int):
            return self.nodes[which]
        for node in self.nodes:
            if node.name == which:
                return node
        raise KeyError(f"no node named {which!r}")

    def rpc(self, which: Union[int, str]) -> RpcRuntime:
        return self.node(which).rpc

    def load_program(
        self,
        source_or_program: Union[str, Program],
        which: Union[int, str],
        module: Optional[str] = None,
    ) -> NodeImage:
        """Compile (if needed) and link a program onto one node.

        The module name defaults to the node's name, so each node's
        program is separately addressable by the debugger.
        """
        if isinstance(source_or_program, str):
            program = compile_program(
                source_or_program, module or self.node(which).name
            )
        else:
            program = source_or_program
        self.programs[program.module] = program
        node = self.node(which)
        image = program.link(node)
        image.rpc_hook = node.rpc.vm_rcall
        node.images.append(image)
        if node.agent is not None:
            node.agent.register_image(image)
        return image

    def spawn_vm(
        self,
        which: Union[int, str],
        image: NodeImage,
        func: str = "main",
        args: Optional[list] = None,
        name: Optional[str] = None,
        priority: int = 0,
    ):
        """Start a CCLU procedure as a process on a node."""
        node = self.node(which)
        executor = VmExecutor(image, func, args or [])
        return node.spawn(executor, name=name or func, priority=priority)

    def reboot(self, which: Union[int, str]) -> int:
        """Crash (if needed) and reboot one node; returns its new epoch."""
        return self.node(which).reboot()

    def _rewire_after_reboot(self, node: Node, old_rpc, old_agent) -> None:
        """Reboot hook (installed on every node): rebuild the RPC runtime
        and agent on the fresh supervisor.

        The old agent is silenced first — the dead agent's failure watcher
        must not keep reacting to bus events against the new boot.  The
        new runtime keeps the old one's ``debug_support``, and exported
        services carry over (same implementations, re-registered exactly
        as before), matching a real boot sequence that re-runs the export
        calls; the agent's own debug service is skipped because the fresh
        agent re-exports it.  Program images stay linked but nothing is
        respawned.
        """
        if old_agent is not None:
            old_agent.detach()
        runtime = RpcRuntime(node, self.registry)
        if old_rpc is not None:
            runtime.debug_support = old_rpc.debug_support
            for name, impl in old_rpc._services.items():
                if name != DEBUG_SERVICE:
                    runtime.reinstall(impl)
        if old_agent is not None:
            agent = PilgrimAgent(node)
            for image in node.images:
                image.rpc_hook = runtime.vm_rcall
                agent.register_image(image)
        else:
            for image in node.images:
                image.rpc_hook = runtime.vm_rcall

    def close(self) -> None:
        """Release the cluster (see :meth:`repro.sim.world.World.close`).

        Drops the event queue, bus subscriptions, process table, RPC call
        tables, node list and program table, so every path that keeps only
        a run's results (a recording, fork, campaign cell or shrink run)
        leaves the collector only the cluster's fixed skeleton of nodes,
        queues and code.  The cluster is unusable afterwards.
        """
        self.world.close()
        for node in self.nodes:
            node.reboot_hooks.clear()
            node.images.clear()
            node.supervisor.processes.clear()
            node.rpc.server_table.clear()
            node.rpc.client_table.clear()
            node.rpc.client_history.clear()
        self.nodes.clear()
        self.programs.clear()

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drive the world (see :meth:`repro.sim.world.World.run`)."""
        return self.world.run(until=until, max_events=max_events)

    def run_for(self, duration: int) -> int:
        return self.world.run_for(duration)

    def __repr__(self) -> str:
        return f"<Cluster {[node.name for node in self.nodes]} t={self.world.now}>"
