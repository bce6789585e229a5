"""Freezable timer sets for protocol machinery.

When Pilgrim halts a node, *process* timeouts are frozen by the supervisor;
the RPC runtime's own timers (retransmissions, maybe-timeouts) must freeze
with them or a breakpoint would turn live calls into spurious failures.
The agent freezes the node's :class:`TimerSet` alongside its processes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.obs import events as ev

if TYPE_CHECKING:
    from repro.sim.world import World


class TimerHandle:
    """A cancellable, freezable timer."""

    __slots__ = ("timer_set", "callback", "args", "event", "frozen_remaining", "dead")

    def __init__(self, timer_set: "TimerSet", callback: Callable, args: tuple):
        self.timer_set = timer_set
        self.callback = callback
        self.args = args
        self.event = None
        self.frozen_remaining: Optional[int] = None
        self.dead = False

    def cancel(self) -> None:
        if self.event is not None:
            self.event.cancel()
            self.event = None
        self.dead = True
        self.timer_set.discard(self)


class TimerSet:
    """A group of timers that freeze and thaw together.

    ``time_source``/``node`` integrate with the parallel simulation: timers
    started from a process running ahead on its node's local cursor are
    based at that cursor, and the events are tagged with the node.
    """

    def __init__(
        self,
        world: "World",
        time_source: Optional[Callable[[], int]] = None,
        node: Optional[int] = None,
    ):
        self.world = world
        self.time_source = time_source or (lambda: world.now)
        self.node = node
        self.timers: set[TimerHandle] = set()
        self.frozen = False

    def start(self, delay: int, callback: Callable, *args: Any) -> TimerHandle:
        handle = TimerHandle(self, callback, args)
        self.timers.add(handle)
        if self.frozen:
            handle.frozen_remaining = delay
        else:
            handle.event = self.world.schedule_at(
                self.time_source() + delay, self._fire, handle, node=self.node
            )
        return handle

    def _fire(self, handle: TimerHandle) -> None:
        handle.event = None
        if handle.dead:
            return
        self.timers.discard(handle)
        handle.dead = True
        handle.callback(*handle.args)

    def discard(self, handle: TimerHandle) -> None:
        self.timers.discard(handle)

    def freeze(self) -> int:
        """Suspend all live timers; returns how many were frozen."""
        if self.frozen:
            return 0
        self.frozen = True
        count = 0
        now = self.time_source()
        for handle in self.timers:
            if handle.event is not None:
                handle.frozen_remaining = handle.event.remaining(now)
                handle.event.cancel()
                handle.event = None
                count += 1
        # A freeze marks the start of a node halt; the debugger's
        # breakpoint log subscribes to this (dormant otherwise).
        self.world.bus.emit(ev.TimerFrozen, now, self.node, count)
        return count

    def thaw(self) -> int:
        """Resume frozen timers with their remaining durations."""
        if not self.frozen:
            return 0
        self.frozen = False
        count = 0
        now = self.time_source()
        for handle in self.timers:
            if handle.frozen_remaining is not None and not handle.dead:
                remaining = handle.frozen_remaining
                handle.frozen_remaining = None
                handle.event = self.world.schedule_at(
                    now + remaining, self._fire, handle, node=self.node
                )
                count += 1
        self.world.bus.emit(ev.TimerThawed, now, self.node, count)
        return count
