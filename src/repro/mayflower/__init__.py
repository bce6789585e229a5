"""Mayflower supervisor analog: light-weight processes, scheduling,
synchronization primitives, freezable timers, and node clocks.

This is the operating-system substrate of the reproduction (paper §2): each
node of a Concurrent CLU program runs under a small supervisor supporting
multiple light-weight processes that share memory, mediated by monitors,
critical regions and semaphores.  A node halt freezes its clock, its RPC
protocol timers (:class:`TimerSet`) and its waiting processes' timeouts.
"""

from repro.mayflower.clock import NodeClock
from repro.mayflower.node import Node
from repro.mayflower.process import (
    Executor,
    NativeExecutor,
    Process,
    ProcessState,
    Syscall,
)
from repro.mayflower.scheduler import ProcessExit, Supervisor
from repro.mayflower.sync import CriticalRegion, MessageQueue, Monitor, Semaphore
from repro.mayflower.timers import Timer, TimerSet

__all__ = [
    "NodeClock",
    "Node",
    "Executor",
    "NativeExecutor",
    "Process",
    "ProcessState",
    "Syscall",
    "ProcessExit",
    "Supervisor",
    "CriticalRegion",
    "MessageQueue",
    "Monitor",
    "Semaphore",
    "Timer",
    "TimerSet",
]
