"""Syscalls yielded by native (generator-based) processes.

Native processes express all interaction with the supervisor by yielding
these objects.  Example::

    def worker(node):
        sem = node.supervisor_semaphore
        got = yield Wait(sem, timeout=10 * SEC)
        if not got:
            yield Cpu(50)           # handle the timeout
        yield Signal(done_sem)

Pure Python computation between yields is free; CPU time is charged via the
syscall costs (override with :class:`Cpu`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.mayflower.process import Process, Syscall
from repro.mayflower.scheduler import ProcessExit

if TYPE_CHECKING:
    from repro.mayflower.scheduler import Supervisor
    from repro.mayflower.sync import CriticalRegion, MessageQueue, Monitor, Semaphore


class Cpu(Syscall):
    """Consume ``us`` microseconds of CPU time."""

    splittable = True

    def __init__(self, us: int):
        self.us = us

    def cost(self, supervisor: "Supervisor") -> int:
        return self.us

    def perform(self, supervisor: "Supervisor", process: Process) -> None:
        return None


class Exit(Syscall):
    """Terminate the process with an optional result value."""

    def __init__(self, value: Any = None):
        self.value = value

    def perform(self, supervisor: "Supervisor", process: Process) -> Any:
        raise ProcessExit(self.value)


class Wait(Syscall):
    """Wait on a semaphore.  Resumes with True (signalled) / False (timeout)."""

    def __init__(self, semaphore: "Semaphore", timeout: Optional[int] = None):
        self.semaphore = semaphore
        self.timeout = timeout

    def cost(self, supervisor: "Supervisor") -> int:
        # halt_check_network_overhead models the rejected §5.3 design (E10).
        return (supervisor.params.syscall_cost
                + supervisor.params.halt_check_network_overhead)

    def perform(self, supervisor: "Supervisor", process: Process) -> Optional[bool]:
        return self.semaphore.wait(process, self.timeout)


class Signal(Syscall):
    """Signal a semaphore."""

    def __init__(self, semaphore: "Semaphore"):
        self.semaphore = semaphore

    def perform(self, supervisor: "Supervisor", process: Process) -> None:
        self.semaphore.signal()


class EnterRegion(Syscall):
    """Enter a critical region (blocks until granted)."""

    def __init__(self, region: "CriticalRegion", timeout: Optional[int] = None):
        self.region = region
        self.timeout = timeout

    def cost(self, supervisor: "Supervisor") -> int:
        return (supervisor.params.syscall_cost
                + supervisor.params.halt_check_network_overhead)

    def perform(self, supervisor: "Supervisor", process: Process) -> Optional[bool]:
        return self.region.enter(process, self.timeout)


class ExitRegion(Syscall):
    def __init__(self, region: "CriticalRegion"):
        self.region = region

    def perform(self, supervisor: "Supervisor", process: Process) -> None:
        self.region.exit(process)


class MonitorEnter(Syscall):
    def cost(self, supervisor: "Supervisor") -> int:
        return (supervisor.params.syscall_cost
                + supervisor.params.halt_check_network_overhead)

    def __init__(self, monitor: "Monitor", timeout: Optional[int] = None):
        self.monitor = monitor
        self.timeout = timeout

    def perform(self, supervisor: "Supervisor", process: Process) -> Optional[bool]:
        return self.monitor.enter(process, self.timeout)


class MonitorExit(Syscall):
    def __init__(self, monitor: "Monitor"):
        self.monitor = monitor

    def perform(self, supervisor: "Supervisor", process: Process) -> None:
        self.monitor.exit(process)


class CondRelease(Syscall):
    """Release the monitor and wait on a condition (first half of a wait)."""

    def __init__(
        self, monitor: "Monitor", cond_name: str, timeout: Optional[int] = None
    ):
        self.monitor = monitor
        self.cond_name = cond_name
        self.timeout = timeout

    def perform(self, supervisor: "Supervisor", process: Process) -> None:
        self.monitor.cond_release_and_wait(process, self.cond_name, self.timeout)
        return None


class CondSignal(Syscall):
    def __init__(self, monitor: "Monitor", cond_name: str, broadcast: bool = False):
        self.monitor = monitor
        self.cond_name = cond_name
        self.broadcast = broadcast

    def perform(self, supervisor: "Supervisor", process: Process) -> Any:
        if self.broadcast:
            return self.monitor.cond_broadcast(self.cond_name)
        return self.monitor.cond_signal(self.cond_name)


def monitor_wait(
    monitor: "Monitor", cond_name: str, timeout: Optional[int] = None
) -> Generator[Syscall, Any, bool]:
    """Mesa-semantics condition wait: release, wait, re-enter.

    Use as ``signalled = yield from monitor_wait(mon, "nonempty")`` from
    inside a native process that currently holds the monitor.
    """
    signalled = yield CondRelease(monitor, cond_name, timeout)
    yield MonitorEnter(monitor)
    return bool(signalled)


class Receive(Syscall):
    """Take a message from a queue, blocking until one is available.

    Resumes with the message when one is waiting.  When the wait blocks,
    the process resumes with the semaphore's verdict instead (``True``
    when signalled, ``False`` on timeout) and the pop is left to the
    caller: use :func:`receive`, which does it.
    """

    def __init__(self, queue: "MessageQueue", timeout: Optional[int] = None):
        self.queue = queue
        self.timeout = timeout

    def perform(self, supervisor: "Supervisor", process: Process) -> Any:
        got = self.queue.available.wait(process, self.timeout)
        if got is True:
            return self.queue.pop()
        return None  # blocked: the wake delivers the verdict


def receive(
    queue: "MessageQueue", timeout: Optional[int] = None
) -> Generator[Syscall, Any, Any]:
    """The one blocking receive: ``msg = yield from receive(queue)``.

    Yields one :class:`Receive`.  Returns the message, popping it here
    when the wait blocked and was signalled, or ``None`` when the wait
    timed out (or was woken with ``False``).
    """
    verdict = yield Receive(queue, timeout)
    if verdict is None or verdict is False:
        return None
    if verdict is True:
        return queue.pop()
    return verdict  # non-blocking path already popped


class Sleep(Syscall):
    """Sleep for ``us`` microseconds of (logical) time."""

    def __init__(self, us: int):
        self.us = us

    def perform(self, supervisor: "Supervisor", process: Process) -> None:
        supervisor.block(
            process,
            f"sleep({self.us})",
            self.us,
            lambda proc: supervisor.unblock(proc, value=True),
        )
        return None


class Now(Syscall):
    """Read the node's *logical* clock (what user code sees, paper §5.2)."""

    def perform(self, supervisor: "Supervisor", process: Process) -> int:
        return supervisor.node.clock.logical_now()


class Self(Syscall):
    """Return the calling process (for its pid etc.; paper §5.4 notes the
    original pid lookup "was extremely slow and had to be re-implemented" —
    here it is O(1))."""

    def perform(self, supervisor: "Supervisor", process: Process) -> Process:
        return process


class Spawn(Syscall):
    """Create a new process from a generator body."""

    def __init__(
        self,
        body: Any,
        name: str = "child",
        priority: int = 0,
        halt_exempt: bool = False,
    ):
        self.body = body
        self.name = name
        self.priority = priority
        self.halt_exempt = halt_exempt

    def perform(self, supervisor: "Supervisor", process: Process) -> Process:
        return supervisor.spawn(
            self.body,
            name=self.name,
            priority=self.priority,
            halt_exempt=self.halt_exempt,
        )


class Call(Syscall):
    """Invoke an arbitrary callable inside supervisor context.

    The escape hatch that lets native runtime code (RPC stubs, the agent)
    interact with subsystems while still being properly costed.  The
    callable receives ``(supervisor, process)`` and may block the process.
    """

    def __init__(
        self,
        fn: Callable[["Supervisor", Process], Any],
        cost_us: Optional[int] = None,
        label: str = "call",
    ):
        self.fn = fn
        self.cost_us = cost_us
        self.label = label

    def cost(self, supervisor: "Supervisor") -> int:
        if self.cost_us is not None:
            return self.cost_us
        return supervisor.params.syscall_cost

    def perform(self, supervisor: "Supervisor", process: Process) -> Any:
        return self.fn(supervisor, process)
