"""Light-weight processes of the Mayflower supervisor.

A :class:`Process` is the unit of scheduling.  Its behaviour is supplied by
an *executor*: either a :class:`~repro.cvm.interp.VmExecutor` running CVM
object code, or a :class:`NativeExecutor` wrapping a Python generator that
yields supervisor syscalls (used for runtime-library and server code that
does not need to be breakpointable at source level).

Executors expose a two-phase step protocol so the scheduler can respect
event-queue boundaries exactly:

* ``peek_cost()`` — return the CPU cost (µs) of the next action without
  performing it, or ``None`` if the process has finished;
* ``commit()`` — perform the action whose cost was just peeked.

The split lets the scheduler check "does this action fit before the next
queued event / end of quantum?" before any state changes.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

if TYPE_CHECKING:
    from repro.mayflower.scheduler import Supervisor


class ProcessState(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    WAITING = "waiting"
    HALTED = "halted"
    DONE = "done"
    FAILED = "failed"


class Process:
    """A Mayflower light-weight process."""

    __slots__ = ("pid", "name", "executor", "priority", "halt_exempt", "state", "waiting_on",
                 "timeout", "timeout_callback", "halted_from",
                 "pending_value", "pending_error", "no_halt_depth", "halt_deferred", "result",
                 "failure", "supervisor", "on_exit")

    def __init__(
        self,
        pid: int,
        name: str,
        executor: "Executor",
        priority: int = 0,
        halt_exempt: bool = False,
    ):
        self.pid = pid
        self.name = name
        self.executor = executor
        self.priority = priority
        #: Paper §5.2: "A bit was added ... specifying whether or not the
        #: process it describes should be halted."  Agent and critical
        #: runtime processes set this.
        self.halt_exempt = halt_exempt
        self.state = ProcessState.READY
        #: Human-readable description of what the process waits on.
        self.waiting_on: Optional[object] = None
        #: The current wait's timeout, a ``Timer`` the supervisor freezes
        #: while the process is halted.
        self.timeout = None
        #: What the wait does on a timeout (or a debugger-forced wake).
        self.timeout_callback: Optional[Callable[["Process"], None]] = None
        #: State to restore when a halted process is resumed.
        self.halted_from: Optional[ProcessState] = None
        #: Value delivered to the executor on next resume (wait results).
        self.pending_value: Any = None
        #: Exception to raise inside the executor on next resume.
        self.pending_error: Optional[BaseException] = None
        #: Count of no-halt critical regions currently held (heap allocator
        #: rule, paper §5.5): halting is deferred while this is non-zero.
        self.no_halt_depth = 0
        #: Set when a halt arrived while inside a no-halt region.
        self.halt_deferred = False
        #: Exit value or failure reason once DONE/FAILED.
        self.result: Any = None
        self.failure: Optional[BaseException] = None
        self.supervisor: Optional["Supervisor"] = None
        #: Completion callbacks (pid reaping, RPC worker recycling).
        self.on_exit: list[Callable[["Process"], None]] = []

    # ------------------------------------------------------------------

    def is_live(self) -> bool:
        return self.state not in (ProcessState.DONE, ProcessState.FAILED)

    def registers(self) -> dict:
        """Supervisor view of the process registers (paper §5.4)."""
        regs = self.executor.registers()
        regs["state"] = self.state.value
        regs["priority"] = self.priority
        if self.waiting_on is not None:
            regs["waiting_on"] = str(self.waiting_on)
        return regs

    def describe(self) -> dict:
        """Snapshot used by the agent's process-listing request."""
        return {
            "pid": self.pid,
            "name": self.name,
            "state": self.state.value,
            "priority": self.priority,
            "halt_exempt": self.halt_exempt,
            "waiting_on": str(self.waiting_on) if self.waiting_on else None,
        }

    def __repr__(self) -> str:
        return f"<Process {self.pid}:{self.name} {self.state.value}>"


class Executor:
    """Abstract two-phase executor interface (see module docstring).

    Long pure-CPU actions additionally support *partial consumption*
    (``can_split`` / ``consume``) so they can straddle scheduler quanta and
    event boundaries instead of starving.
    """

    def peek_cost(self) -> Optional[int]:
        raise NotImplementedError

    def commit(self) -> None:
        raise NotImplementedError

    def can_split(self) -> bool:
        return False

    def consume(self, dt: int) -> None:
        raise NotImplementedError("executor action is not splittable")

    def registers(self) -> dict:
        return {}

    def backtrace(self) -> list:
        return []

    def retire(self) -> None:
        """Drop the run state once the process has exited."""


class Syscall:
    """Base class for requests yielded by native processes.

    Each concrete syscall states its CPU cost and knows how to perform
    itself against the supervisor.  ``perform`` may block the process (by
    putting it on a wait queue), in which case the scheduler stops running
    it and the waker later supplies ``process.pending_value``.
    """

    #: True for pure CPU burns that may be consumed piecemeal across
    #: scheduler quanta and event boundaries.
    splittable = False

    def cost(self, supervisor: "Supervisor") -> int:
        return supervisor.params.syscall_cost

    def perform(self, supervisor: "Supervisor", process: Process) -> Any:
        raise NotImplementedError


NativeBody = Generator[Syscall, Any, Any]


class NativeExecutor(Executor):
    """Runs a Python generator that yields :class:`Syscall` objects."""

    def __init__(self, body: NativeBody, label: str = "native"):
        self._gen = body
        self._label = label
        self._pending: Optional[Syscall] = None
        self._consumed = 0  # partial CPU already charged for the pending action
        self._finished = False
        self._started = False
        self.process: Optional[Process] = None

    def bind(self, process: Process) -> None:
        self.process = process

    def peek_cost(self) -> Optional[int]:
        if self._finished:
            return None
        if self._pending is None:
            if not self._advance_generator():
                return None
        assert self.process is not None and self.process.supervisor is not None
        return self._pending.cost(self.process.supervisor) - self._consumed

    def can_split(self) -> bool:
        return self._pending is not None and self._pending.splittable

    def consume(self, dt: int) -> None:
        self._consumed += dt

    def commit(self) -> None:
        assert self._pending is not None
        assert self.process is not None and self.process.supervisor is not None
        syscall = self._pending
        self._pending = None
        self._consumed = 0
        result = syscall.perform(self.process.supervisor, self.process)
        # Non-blocking syscalls deliver their result immediately; blocking
        # ones leave pending_value to be filled in by the waker.
        if self.process.state == ProcessState.RUNNING:
            self.process.pending_value = result

    def _advance_generator(self) -> bool:
        """Resume the generator to obtain the next syscall.

        Returns False if the generator completed (process is done).
        """
        assert self.process is not None
        try:
            if self.process.pending_error is not None:
                error = self.process.pending_error
                self.process.pending_error = None
                self._pending = self._gen.throw(error)
            elif not self._started:
                self._started = True
                self._pending = next(self._gen)
            else:
                value = self.process.pending_value
                self.process.pending_value = None
                self._pending = self._gen.send(value)
            return True
        except StopIteration as stop:
            self._finished = True
            self.process.result = stop.value
            return False

    def retire(self) -> None:
        """Drop the generator, pending syscall and process back-reference:
        ``registers`` and ``backtrace`` read only the label."""
        self._gen = self._pending = self.process = None

    def registers(self) -> dict:
        return {"kind": "native", "label": self._label}

    def backtrace(self) -> list:
        return [{"proc": self._label, "line": None, "kind": "native"}]
