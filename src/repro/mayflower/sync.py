"""Process-interaction primitives: semaphores, monitors, critical regions.

Concurrent CLU mediates process interactions with monitors, critical regions
and semaphores (paper §2).  All three are provided here with the semantics
the debugger relies on:

* waits may carry timeouts, and those timeouts can be *frozen* while the
  owning node is halted at a breakpoint (paper §5.2);
* every primitive records who is waiting on it, so the agent can report a
  process's wait object (paper §5.4);
* critical regions may be marked ``no_halt`` — a process inside one (the
  heap allocator case, paper §5.5) has its halt deferred until it exits.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Optional

from repro.mayflower.process import Process

if TYPE_CHECKING:
    from repro.mayflower.scheduler import Supervisor


class Semaphore:
    """A counting semaphore with FIFO waiters and freezable timeouts."""

    def __init__(self, supervisor: "Supervisor", count: int = 0, name: str = "sem"):
        self.supervisor = supervisor
        self.count = count
        self.name = name
        self.waiters: deque[Process] = deque()

    def wait(self, process: Process, timeout: Optional[int] = None) -> Optional[bool]:
        """Attempt to pass the semaphore.

        Returns True immediately if the count was positive.  Otherwise the
        process blocks; it will later be resumed with ``True`` (signalled)
        or ``False`` (timed out) as its pending value, and this call
        returns ``None`` to indicate the block.
        """
        if self.count > 0:
            self.count -= 1
            return True
        self.waiters.append(process)
        self.supervisor.block(process, self, timeout, self._on_timeout)
        return None

    def signal(self) -> None:
        """Release one waiter, or bank the count if nobody waits.

        Safe to call from event context (e.g. a packet-delivery handler) as
        well as from process context.
        """
        while self.waiters:
            process = self.waiters.popleft()
            if not process.is_live():
                continue
            self.supervisor.unblock(process, value=True)
            return
        self.count += 1

    def _on_timeout(self, process: Process) -> None:
        try:
            self.waiters.remove(process)
        except ValueError:
            return  # already signalled in the same instant
        self.supervisor.unblock(process, value=False)

    def __str__(self) -> str:
        return f"semaphore:{self.name}"

    def __repr__(self) -> str:
        return f"<Semaphore {self.name} count={self.count} waiters={len(self.waiters)}>"


class CriticalRegion:
    """A mutual-exclusion region (paper §2, §5.5).

    ``no_halt=True`` marks regions that must never contain a halted process
    (the heap allocator): a halt arriving while a process is inside is
    deferred until the region is exited.
    """

    def __init__(
        self,
        supervisor: "Supervisor",
        name: str = "region",
        no_halt: bool = False,
    ):
        self.supervisor = supervisor
        self.name = name
        self.no_halt = no_halt
        self.holder: Optional[Process] = None
        self.waiters: deque[Process] = deque()

    def enter(self, process: Process, timeout: Optional[int] = None) -> Optional[bool]:
        if self.holder is None:
            self._grant(process)
            return True
        self.waiters.append(process)
        self.supervisor.block(process, self, timeout, self._on_timeout)
        return None

    def exit(self, process: Process) -> None:
        if self.holder is not process:
            raise RuntimeError(
                f"process {process.pid} exiting region {self.name} it does not hold"
            )
        self.holder = None
        if self.no_halt:
            process.no_halt_depth -= 1
            if process.no_halt_depth == 0 and process.halt_deferred:
                process.halt_deferred = False
                self.supervisor.halt_process(process)
        while self.waiters:
            waiter = self.waiters.popleft()
            if not waiter.is_live():
                continue
            self._grant(waiter)
            self.supervisor.unblock(waiter, value=True)
            break

    def _grant(self, process: Process) -> None:
        self.holder = process
        if self.no_halt:
            process.no_halt_depth += 1

    def _on_timeout(self, process: Process) -> None:
        try:
            self.waiters.remove(process)
        except ValueError:
            return
        self.supervisor.unblock(process, value=False)

    def __str__(self) -> str:
        return f"region:{self.name}"


class Monitor:
    """A monitor: a mutex plus named condition queues (Mesa semantics)."""

    def __init__(self, supervisor: "Supervisor", name: str = "monitor"):
        self.supervisor = supervisor
        self.name = name
        self.mutex = CriticalRegion(supervisor, name=f"{name}.lock")
        self.conditions: dict[str, deque[Process]] = {}

    def condition(self, cond_name: str) -> deque:
        return self.conditions.setdefault(cond_name, deque())

    def enter(self, process: Process, timeout: Optional[int] = None) -> Optional[bool]:
        return self.mutex.enter(process, timeout)

    def exit(self, process: Process) -> None:
        self.mutex.exit(process)

    def cond_release_and_wait(
        self,
        process: Process,
        cond_name: str,
        timeout: Optional[int] = None,
    ) -> None:
        """Atomically release the mutex and wait on a condition queue.

        Mesa semantics: the waker only makes the waiter runnable; the waiter
        must re-enter the monitor afterwards (done by the syscall helper).
        """
        queue = self.condition(cond_name)
        self.mutex.exit(process)
        queue.append(process)
        self.supervisor.block(
            process,
            f"{self.name}.{cond_name}",
            timeout,
            lambda proc: self._on_cond_timeout(cond_name, proc),
        )

    def cond_signal(self, cond_name: str) -> bool:
        """Wake one waiter on the condition.  Returns True if one was woken."""
        queue = self.condition(cond_name)
        while queue:
            process = queue.popleft()
            if not process.is_live():
                continue
            self.supervisor.unblock(process, value=True)
            return True
        return False

    def cond_broadcast(self, cond_name: str) -> int:
        woken = 0
        while self.cond_signal(cond_name):
            woken += 1
        return woken

    def _on_cond_timeout(self, cond_name: str, process: Process) -> None:
        queue = self.condition(cond_name)
        try:
            queue.remove(process)
        except ValueError:
            return
        self.supervisor.unblock(process, value=False)

    def __str__(self) -> str:
        return f"monitor:{self.name}"


class MessageQueue:
    """An unbounded FIFO usable from both process and event context.

    Packet-delivery handlers (event context) push; server processes take
    with ``yield from receive(queue)`` (:mod:`repro.mayflower.syscalls`),
    which waits on ``available`` and pops.
    """

    def __init__(self, supervisor: "Supervisor", name: str = "queue"):
        self.supervisor = supervisor
        self.name = name
        self.items: deque[Any] = deque()
        self.available = Semaphore(supervisor, count=0, name=f"{name}.avail")

    def push(self, item: Any) -> None:
        self.items.append(item)
        self.available.signal()

    def pop(self) -> Any:
        return self.items.popleft()

    def __len__(self) -> int:
        return len(self.items)

    def __str__(self) -> str:
        return f"queue:{self.name}"
