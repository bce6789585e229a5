"""Freezable timers (paper §5.2): a halted node's waiting processes'
timeouts (``Process.timeout``) and RPC protocol timers (its
``Supervisor.timers``) keep the time they had left and resume with it,
or a breakpoint would turn live waits into spurious failures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.obs import events as ev

if TYPE_CHECKING:
    from repro.mayflower.scheduler import Supervisor


class Timer:
    """A one-shot callback on its node's clock: :meth:`freeze` keeps the
    time left, :meth:`thaw` re-arms it for that long."""

    __slots__ = ("supervisor", "callback", "args", "event", "left", "group")

    def __init__(self, supervisor: "Supervisor", callback: Callable, args: tuple,
                 group: Optional[dict] = None):
        self.supervisor = supervisor
        self.callback = callback
        self.args = args
        self.event = None
        #: The time left while frozen, else None.
        self.left: Optional[int] = None
        #: The :class:`TimerSet` table holding this timer until it fires
        #: or is cancelled (None for a process timeout).
        self.group = group

    def arm(self, delay: int) -> None:
        # ``supervisor.schedule_local`` inlined: every RPC starts four timers.
        supervisor = self.supervisor
        self.event = supervisor.world.schedule_at(
            supervisor.current_time() + delay, self._fire, node=supervisor.node.node_id)

    def _fire(self) -> None:
        self.event = None
        if self.group is not None:
            del self.group[self]
        self.callback(*self.args)

    def cancel(self) -> None:
        if self.event is not None:
            self.event.cancel()
            self.event = None
        self.left = None
        if self.group is not None:
            self.group.pop(self, None)

    def freeze(self, now: int) -> bool:
        """Disarm, keeping the time left at ``now``; False if not armed."""
        if self.event is None:
            return False
        self.left = self.event.remaining(now)
        self.event.cancel()
        self.event = None
        return True

    def thaw(self) -> bool:
        """Re-arm for the time kept by :meth:`freeze`; False if not frozen."""
        if self.left is None:
            return False
        left, self.left = self.left, None
        self.arm(left)
        return True


class TimerSet:
    """A node's protocol timers, frozen and thawed together by the
    supervisor's halt.  Kept in start order, so a thaw re-arms timers
    with equal deadlines in the order they were started."""

    def __init__(self, supervisor: "Supervisor"):
        self.supervisor = supervisor
        self._timers: dict[Timer, None] = {}
        self.frozen = False

    def start(self, delay: int, callback: Callable, *args: Any) -> Timer:
        timer = Timer(self.supervisor, callback, args, self._timers)
        self._timers[timer] = None
        if self.frozen:
            timer.left = delay
        else:
            timer.arm(delay)
        return timer

    def freeze(self) -> int:
        """Freeze every armed timer and emit ``TimerFrozen`` (the start of
        a node halt, which the debugger's breakpoint log reads).  Returns
        how many were frozen; 0 if the set is frozen already."""
        if self.frozen:
            return 0
        self.frozen = True
        now = self.supervisor.current_time()
        count = sum(timer.freeze(now) for timer in self._timers)
        self.supervisor.bus.emit(ev.TimerFrozen, now, self.supervisor.node.node_id, count)
        return count

    def thaw(self) -> int:
        """Re-arm every frozen timer, in start order, and emit
        ``TimerThawed``.  Returns how many were re-armed."""
        if not self.frozen:
            return 0
        self.frozen = False
        count = sum(timer.thaw() for timer in self._timers)
        self.supervisor.bus.emit(ev.TimerThawed, self.supervisor.current_time(),
                                 self.supervisor.node.node_id, count)
        return count
