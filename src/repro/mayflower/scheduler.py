"""The Mayflower supervisor: per-node scheduler and halt machinery.

One :class:`Supervisor` runs per node.  It time-slices light-weight
processes (priority queues, round-robin within a priority) over the shared
virtual clock, respecting event-queue boundaries exactly: a process never
executes past the moment the next simulated event (packet arrival, timer)
is due, so cross-node interleavings are microsecond-accurate.

Debugging support added for Pilgrim (paper §5.2, §5.4):

* ``halt_all`` / ``resume_all`` — the whole node halt: freeze the logical
  clock, the protocol timers (:attr:`Supervisor.timers`) and the timeouts
  of waiting processes, and place all non-exempt processes on a halted set;
* the halt-exempt bit on processes (agent, runtime library);
* deferred halting for processes inside a ``no_halt`` critical region;
* a supervisor primitive returning register-level process state;
* ``ProcessCreated`` / ``ProcessDeleted`` / ``ProcessFailed`` events on the
  world's obs bus, so the agent can track every process (paper §5.4) —
  subscribe there; the legacy per-supervisor hook lists are gone.
"""

from __future__ import annotations

import inspect
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.mayflower.process import (
    Executor,
    NativeExecutor,
    Process,
    ProcessState,
)
from repro.mayflower.timers import Timer, TimerSet
from repro.obs import events as ev
from repro.params import Params

if TYPE_CHECKING:
    from repro.mayflower.node import Node
    from repro.sim.world import World


#: How many clean exits a node's process table keeps, oldest first out:
#: sized like the agent's ten-slot buffer of recent calls (paper §4.3).
RECENT_EXITS = 10


class Supervisor:
    """Scheduler, process table, and halt machinery for one node."""

    def __init__(self, node: "Node", world: "World", params: Params):
        self.node = node
        self.world = world
        self.params = params
        self.bus = world.bus
        #: What the agent's process listing shows, in pid order: the live
        #: processes, every failed one (post-mortem backtraces read its
        #: frames) and the last :data:`RECENT_EXITS` clean exits.
        self.processes: dict[int, Process] = {}
        #: The pids of those clean exits, oldest first.
        self._exits: deque[int] = deque()
        #: The live subset, in pid order: entered in :meth:`spawn`, left
        #: in :meth:`_finish`, the only two places liveness changes.
        #: Halting and checkpoint capture walk this, so they cost what
        #: is running, not what has ever run.
        self._live: dict[int, Process] = {}
        self._next_pid = 1
        self._ready: dict[int, list[Process]] = {}
        self.current: Optional[Process] = None
        #: The node's CPU-time cursor.  Inside a slice it runs ahead of
        #: ``world.now`` within the conservative window (see
        #: :meth:`World.window_for`); this is how multiple nodes consume
        #: CPU over the same virtual interval.
        self.local_now = 0
        self._tick_event = None
        self.halt_active = False
        #: The node's protocol timers (the RPC runtime's processing steps,
        #: retransmissions and maybe-timeouts), frozen with its processes.
        self.timers = TimerSet(self)
        #: Total CPU microseconds consumed, per process and overall.
        self.cpu_consumed = 0

    # ------------------------------------------------------------------
    # Process lifecycle
    # ------------------------------------------------------------------

    def spawn(
        self,
        body: Any,
        name: str = "proc",
        priority: int = 0,
        halt_exempt: bool = False,
    ) -> Process:
        """Create a process from a generator body or an Executor."""
        if isinstance(body, Executor):
            executor = body
        elif inspect.isgenerator(body):
            executor = NativeExecutor(body, label=name)
        else:
            raise TypeError(f"cannot make a process from {body!r}")
        pid = self._next_pid
        self._next_pid += 1
        process = Process(pid, name, executor, priority, halt_exempt)
        process.supervisor = self
        bind = getattr(executor, "bind", None)
        if bind is not None:
            bind(process)
        self.processes[pid] = process
        self._live[pid] = process
        self.bus.emit(ev.ProcessCreated, self.current_time(), self.node.node_id,
                      pid, name, priority, process)
        self.make_ready(process)
        return process

    def _finish(self, process: Process, failure: Optional[BaseException] = None) -> None:
        """End ``process``, run its ``on_exit`` callbacks, then retire it:
        drop the callbacks, timeout callback, pending value and error and
        (``Executor.retire``) the executor's run state, keeping what the
        agent reads, so a finished call is freed by refcounting alone.  A
        clean exit pushes the oldest of :data:`RECENT_EXITS` out of the
        table."""
        if failure is None:
            process.state = ProcessState.DONE
            self._exits.append(process.pid)
            if len(self._exits) > RECENT_EXITS:
                self.processes.pop(self._exits.popleft(), None)
        else:
            process.state = ProcessState.FAILED
            process.failure = failure
        self._live.pop(process.pid, None)
        process.waiting_on = None
        self._cancel_timeout(process)
        self.bus.emit(ev.ProcessDeleted, self.current_time(), self.node.node_id,
                      process.pid, process.name, process, failure is not None)
        for callback in process.on_exit:
            callback(process)
        process.on_exit = ()
        process.timeout_callback = process.pending_value = process.pending_error = None
        process.executor.retire()

    def terminate(self, process: Process) -> None:
        """Forcibly end a process (used by debugger session cleanup)."""
        if not process.is_live():
            return
        self._finish(process, failure=None)

    # ------------------------------------------------------------------
    # Ready queue
    # ------------------------------------------------------------------

    def make_ready(
        self, process: Process, front: bool = False, schedule_tick: bool = True
    ) -> None:
        if self.halt_active and not process.halt_exempt and process.no_halt_depth == 0:
            process.state = ProcessState.HALTED
            process.halted_from = ProcessState.READY
            return
        process.state = ProcessState.READY
        queue = self._ready.setdefault(process.priority, [])
        if front:
            queue.insert(0, process)
        else:
            queue.append(process)
        if schedule_tick:
            self._ensure_tick()

    def _pick(self) -> Optional[Process]:
        for priority in sorted(self._ready, reverse=True):
            queue = self._ready[priority]
            while queue:
                process = queue.pop(0)
                if process.state == ProcessState.READY:
                    return process
        return None

    def has_ready(self) -> bool:
        return any(
            process.state == ProcessState.READY
            for queue in self._ready.values()
            for process in queue
        )

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    def current_time(self) -> int:
        """This node's notion of 'now': the local cursor while a process is
        executing, the global clock otherwise."""
        if self.current is not None:
            return self.local_now
        return self.world.now

    def schedule_local(self, delay: int, fn: Callable, *args: Any):
        """Schedule an event ``delay`` after this node's current time,
        tagged with this node."""
        return self.world.schedule_at(
            self.current_time() + delay, fn, *args, node=self.node.node_id
        )

    # ------------------------------------------------------------------
    # Blocking and timeouts
    # ------------------------------------------------------------------

    def block(
        self,
        process: Process,
        waiting_on: object,
        timeout: Optional[int],
        timeout_callback: Callable[[Process], None],
    ) -> None:
        """Put the (currently running) process to sleep on ``waiting_on``."""
        process.state = ProcessState.WAITING
        process.waiting_on = waiting_on
        process.timeout_callback = timeout_callback
        process.timeout = None
        if timeout is not None:
            process.timeout = Timer(self, timeout_callback, (process,))
            process.timeout.arm(timeout)

    def unblock(self, process: Process, value: Any) -> None:
        """Deliver ``value`` to a waiting (possibly halted-waiting) process."""
        self._cancel_timeout(process)
        process.waiting_on = None
        process.pending_value = value
        if process.state == ProcessState.WAITING:
            self.make_ready(process)
        elif process.state == ProcessState.HALTED:
            # Woken while halted: it becomes ready-when-resumed.
            process.halted_from = ProcessState.READY

    def _cancel_timeout(self, process: Process) -> None:
        if process.timeout is not None:
            process.timeout.cancel()
            process.timeout = None

    # ------------------------------------------------------------------
    # Halting (paper §5.2)
    # ------------------------------------------------------------------

    def halt_all(self) -> int:
        """Halt this node: freeze its logical clock, then its protocol
        timers (``TimerFrozen``), then every non-exempt process
        (``ProcessHalted``).  Returns the count of processes halted.

        Waiting processes keep waiting but their timeouts are frozen;
        processes inside a no-halt critical region are halted when they
        exit it.  Idempotent.
        """
        self.halt_active = True
        self.node.clock.begin_halt()
        self.timers.freeze()
        halted = 0
        for process in self.live_processes():
            if self.halt_process(process):
                halted += 1
        return halted

    def halt_process(self, process: Process) -> bool:
        """Halt a single process if it is haltable right now."""
        if process.halt_exempt or not process.is_live():
            return False
        if process.state == ProcessState.HALTED:
            return False
        if process.no_halt_depth > 0:
            process.halt_deferred = True
            return False
        if process.state == ProcessState.RUNNING:
            # The only running process is the caller's (halt is invoked from
            # agent context); a running non-exempt process is halted at the
            # end of its current action by the slice loop.
            process.halt_deferred = True
            return False
        if process.state == ProcessState.READY:
            process.state = ProcessState.HALTED
            process.halted_from = ProcessState.READY
            self._emit_halted(process)
            return True
        if process.state == ProcessState.WAITING:
            if process.timeout is not None:
                process.timeout.freeze(self.current_time())
            process.state = ProcessState.HALTED
            process.halted_from = ProcessState.WAITING
            self._emit_halted(process)
            return True
        return False

    def _emit_halted(self, process: Process) -> None:
        self.bus.emit(ev.ProcessHalted, self.current_time(), self.node.node_id,
                      process.pid, process.name)

    def resume_all(self) -> int:
        """Undo :meth:`halt_all` in the same order: clock, protocol timers
        (``TimerThawed``), then each halted process (``ProcessResumed``)
        through :meth:`unhalt_process`.  Returns the count resumed."""
        self.halt_active = False
        self.node.clock.end_halt()
        self.timers.thaw()
        resumed = 0
        for process in self.live_processes():
            process.halt_deferred = False
            if self.unhalt_process(process):
                resumed += 1
                self.bus.emit(ev.ProcessResumed, self.current_time(),
                              self.node.node_id, process.pid, process.name)
        return resumed

    def unhalt_process(self, process: Process) -> bool:
        """Release a single process from the halted set (agent stepping).

        Deliberately emits no ``ProcessResumed`` event: stepping releases
        one process while the node as a whole stays halted, and a resume
        event here would wrongly close the debugger's breakpoint-log
        interval (only :meth:`resume_all` ends a halt).
        """
        if process.state != ProcessState.HALTED:
            return False
        if process.halted_from == ProcessState.WAITING:
            process.state = ProcessState.WAITING
            if process.timeout is not None:
                process.timeout.thaw()
        else:
            self.make_ready(process)
        process.halted_from = None
        return True

    def halted_processes(self) -> list[Process]:
        return [
            process
            for process in self._live.values()
            if process.state == ProcessState.HALTED
        ]

    # ------------------------------------------------------------------
    # Debugger-initiated state transfer (paper §5.4)
    # ------------------------------------------------------------------

    def debugger_wake(self, process: Process, value: Any = False) -> bool:
        """Force a waiting process out of its wait, as if it timed out."""
        if process.state not in (ProcessState.WAITING, ProcessState.HALTED):
            return False
        if process.state == ProcessState.HALTED and (
            process.halted_from != ProcessState.WAITING
        ):
            return False
        if process.timeout_callback is not None and process.waiting_on is not None:
            # Route through the wait object's timeout path so its queues
            # stay consistent.
            self._cancel_timeout(process)
            if process.state == ProcessState.HALTED:
                process.state = ProcessState.WAITING
                process.halted_from = None
                process.timeout_callback(process)
                # The unblock above readied it; re-halt bookkeeping applies
                # if the node is still halted (handled by make_ready).
            else:
                process.timeout_callback(process)
            return True
        self.unblock(process, value)
        return True

    # ------------------------------------------------------------------
    # The scheduling tick
    # ------------------------------------------------------------------

    def _ensure_tick(self, delay: int = 0) -> None:
        if self.current is not None:
            return  # the running slice reschedules on exit
        if self._tick_event is None:
            self._tick_event = self.world.schedule(
                delay, self._tick, node=self.node.node_id
            )

    def _ensure_tick_at(self, time: int) -> None:
        if self._tick_event is None:
            self._tick_event = self.world.schedule_at(
                time, self._tick, node=self.node.node_id
            )

    def _tick(self) -> None:
        self._tick_event = None
        # The node's CPU timeline is monotonic: if a slice previously ran
        # ahead of this event's timestamp, new work starts where it left off.
        self.local_now = max(self.local_now, self.world.now)
        process = self._pick()
        if process is None:
            return
        self._run_slice(process)
        if self.has_ready() and self._tick_event is None:
            self._ensure_tick_at(self.local_now + self.params.context_switch_cost)

    def _should_halt(self, process: Process) -> bool:
        return (
            self.halt_active
            and not process.halt_exempt
            and process.no_halt_depth == 0
        )

    def _run_slice(self, process: Process) -> None:
        process.state = ProcessState.RUNNING
        self.current = process
        budget = self.params.quantum
        world = self.world
        node_id = self.node.node_id
        lookahead = self.params.basic_block_latency
        fresh = True  # nothing executed yet this slice (permits overrun)
        try:
            while True:
                if self._should_halt(process):
                    # A halt arrived during this slice (e.g. the committed
                    # action delivered a trap to the agent): stop now.
                    process.state = ProcessState.HALTED
                    process.halted_from = ProcessState.READY
                    self._emit_halted(process)
                    break
                if budget <= 0:
                    # Quantum expired: back of the round-robin.
                    self.make_ready(process)
                    break
                try:
                    cost = process.executor.peek_cost()
                except ProcessExit as exit_request:
                    process.result = exit_request.value
                    self._finish(process)
                    break
                except Exception as exc:  # user program failure
                    self._fail(process, exc)
                    break
                if cost is None:
                    self._finish(process)
                    break
                window = world.window_for(node_id, lookahead)
                room = window - self.local_now
                # A fresh slice may overrun the quantum for a single
                # indivisible action (actions are small; this prevents an
                # action costing more than a quantum from starving).
                if cost <= min(budget, room) or (fresh and cost <= room):
                    self.local_now += cost
                    budget -= cost
                    self.cpu_consumed += cost
                    fresh = False
                    try:
                        process.executor.commit()
                    except ProcessExit as exit_request:
                        process.result = exit_request.value
                        self._finish(process)
                        break
                    except Exception as exc:
                        self._fail(process, exc)
                        break
                    if process.state != ProcessState.RUNNING:
                        break  # blocked, trapped, or exited
                    continue
                if process.executor.can_split():
                    allowed = min(budget, room)
                    if allowed > 0:
                        self.local_now += allowed
                        budget -= allowed
                        self.cpu_consumed += allowed
                        process.executor.consume(allowed)
                        fresh = False
                        continue
                if room < cost:
                    # The execution window closes before this action could
                    # finish: yield to the event queue and resume this
                    # process first once the window reopens.
                    self.make_ready(process, front=True, schedule_tick=False)
                    if process.state == ProcessState.READY:
                        self._ensure_tick_at(max(window, self.local_now))
                    break
                # Quantum is the binding constraint mid-slice: requeue.
                self.make_ready(process)
                break
        finally:
            self.current = None
            world.note_progress(self.local_now)

    def _fail(self, process: Process, exc: BaseException) -> None:
        self._finish(process, failure=exc)
        # Emitted after _finish so deletion subscribers and on_exit
        # callbacks observe the legacy ordering (hook ran last).
        self.bus.emit(ev.ProcessFailed, self.current_time(), self.node.node_id,
                      process.pid, process.name, process, exc)

    # ------------------------------------------------------------------

    def live_processes(self) -> list[Process]:
        """The processes that are neither done nor failed, in pid order
        (a fresh list: callers may finish processes while walking it)."""
        return list(self._live.values())

    def __repr__(self) -> str:
        return (
            f"<Supervisor node={self.node.node_id} procs={len(self.processes)} "
            f"halted={self.halt_active}>"
        )


class ProcessExit(Exception):
    """Raised inside an executor to terminate the process voluntarily."""

    def __init__(self, value: Any = None):
        super().__init__("process exit")
        self.value = value
