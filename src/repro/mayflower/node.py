"""A node: one simulated MC68000 machine running the Mayflower supervisor.

A node owns a supervisor (scheduler + process table) and a clock.  The
cluster builder (:mod:`repro.cluster`) attaches the network station, the RPC
runtime, and the Pilgrim agent after construction, keeping this module free
of upward dependencies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.mayflower.clock import NodeClock
from repro.mayflower.scheduler import Supervisor
from repro.mayflower.sync import CriticalRegion, MessageQueue, Monitor, Semaphore
from repro.obs import events as obs_ev
from repro.params import Params

if TYPE_CHECKING:
    from repro.sim.world import World


class Node:
    """One machine of the distributed program."""

    def __init__(
        self,
        node_id: int,
        name: str,
        world: "World",
        params: Optional[Params] = None,
        clock_skew: int = 0,
    ):
        self.node_id = node_id
        self.name = name
        self.world = world
        self.params = params or Params()
        self.supervisor = Supervisor(self, world, self.params)
        # The clock follows the node's local CPU cursor, so a process that
        # reads the time mid-slice sees its own progress.
        self.clock = NodeClock(self.supervisor.current_time, skew=clock_skew)
        #: The heap allocator's critical region — the canonical no-halt
        #: region (paper §5.5).  User code entering it is never halted
        #: mid-allocation.
        self.heap_region = CriticalRegion(
            self.supervisor, name="heap_allocator", no_halt=True
        )
        # Attachment points wired up by repro.cluster:
        self.station = None  # ring station
        self.rpc = None  # RPC runtime
        self.agent = None  # Pilgrim agent
        self.crashed = False
        #: Boot epoch, incremented by each :meth:`reboot`.  Agents report
        #: it on connect so a debugger can tell a rebooted node apart.
        self.epoch = 0
        #: Program images linked onto this node (cluster.load_program),
        #: kept so a reboot can rewire their RPC hooks and re-register
        #: them with the fresh agent.
        self.images: list = []
        #: Callbacks ``hook(node, old_rpc, old_agent)`` run at the end of
        #: :meth:`reboot` to rebuild the upper layers (RPC runtime,
        #: agent); populated by the cluster builder so this module keeps
        #: no upward dependencies.
        self.reboot_hooks: list[Callable] = []

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------

    def spawn(self, body: Any, name: str = "proc", priority: int = 0,
              halt_exempt: bool = False):
        return self.supervisor.spawn(
            body, name=name, priority=priority, halt_exempt=halt_exempt
        )

    def semaphore(self, count: int = 0, name: str = "sem") -> Semaphore:
        return Semaphore(self.supervisor, count=count, name=name)

    def region(self, name: str = "region", no_halt: bool = False) -> CriticalRegion:
        return CriticalRegion(self.supervisor, name=name, no_halt=no_halt)

    def monitor(self, name: str = "monitor") -> Monitor:
        return Monitor(self.supervisor, name=name)

    def queue(self, name: str = "queue") -> MessageQueue:
        return MessageQueue(self.supervisor, name=name)

    def crash(self) -> None:
        """Fail-stop the node: all processes die, no further activity.

        Leaves no residue: pending node-tagged events (timers, scheduler
        ticks, in-flight deliveries to this node) are cancelled, station
        port handlers are cleared, and the transmitter is idled — the
        preconditions for a clean :meth:`reboot`.
        """
        self.crashed = True
        for process in self.supervisor.live_processes():
            self.supervisor.terminate(process)
        # After terminations: on_exit callbacks (e.g. RPC reply timers)
        # may have scheduled fresh node events that must die too.
        self.world.cancel_node_events(self.node_id)
        if self.station is not None:
            self.station.clear_ports()
            self.station.reset_transmitter()

    def reboot(self) -> int:
        """Bring a crashed node back with a fresh boot epoch.

        The supervisor (and with it the whole process table) is rebuilt,
        the logical-clock delta is reset, and the station comes back with
        no ports registered.  The cluster-installed ``reboot_hooks`` then
        rebuild the RPC runtime (re-registering previously exported
        services) and a fresh dormant agent.  Programs are *not*
        restarted: images stay linked for re-spawning, but every
        pre-crash process is gone.  Returns the new boot epoch.
        """
        if not self.crashed:
            self.crash()
        self.world.cancel_node_events(self.node_id)
        self.epoch += 1
        self.supervisor = Supervisor(self, self.world, self.params)
        self.clock = NodeClock(
            self.supervisor.current_time, skew=self.clock.skew, epoch=self.clock.epoch
        )
        self.heap_region = CriticalRegion(
            self.supervisor, name="heap_allocator", no_halt=True
        )
        if self.station is not None:
            self.station.clear_ports()
            self.station.reset_transmitter()
        self.crashed = False
        old_rpc, old_agent = self.rpc, self.agent
        self.rpc = None
        self.agent = None
        for hook in self.reboot_hooks:
            hook(self, old_rpc, old_agent)
        self.world.bus.emit(obs_ev.NodeRebooted, self.world.now, self.node_id, self.epoch)
        return self.epoch

    def __repr__(self) -> str:
        return f"<Node {self.node_id}:{self.name}>"
