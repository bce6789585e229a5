"""Node clocks: real time and the Pilgrim logical clock.

Paper §5.2: "Pilgrim maintains a logical clock at each node of the program
... implemented by computing the difference, or delta, from the real time
clock value maintained by the Mayflower supervisor."  While the node is
halted at a breakpoint, the delta is effectively

    current time - time of breakpoint + previous time delta

so the logical clock appears frozen; on resume the accumulated halt time is
folded into the delta.  All date/time values read by the user program have
the delta subtracted.
"""

from __future__ import annotations

from typing import Callable, Optional


class NodeClock:
    """Real-time clock plus the debugger-maintained logical delta.

    ``time_source`` returns the node's current time (normally
    ``supervisor.current_time``, which tracks the node's local CPU cursor).
    """

    def __init__(self, time_source: Callable[[], int], skew: int = 0, epoch: int = 0):
        self._time_source = time_source
        #: Fixed offset modelling imperfect clock synchronization between
        #: nodes ("assumed to be synchronized correctly", paper §5.2 — skew
        #: defaults to zero but is injectable for robustness tests).
        self.skew = skew
        #: Real-time epoch so dates are not tiny numbers.
        self.epoch = epoch
        #: Accumulated logical-clock delta (microseconds of halt time).
        self.delta = 0
        #: Real time at which the current halt began, or None if running.
        self.halted_at: Optional[int] = None

    def real_now(self) -> int:
        """The node's real-time clock."""
        return self.epoch + self._time_source() + self.skew

    def current_delta(self) -> int:
        """The effective delta right now (grows while halted)."""
        if self.halted_at is None:
            return self.delta
        return self.real_now() - self.halted_at + self.delta

    def logical_now(self) -> int:
        """What the user program sees when it reads the time."""
        return self.real_now() - self.current_delta()

    def begin_halt(self) -> None:
        """Freeze the logical clock (called when the node halts)."""
        if self.halted_at is None:
            self.halted_at = self.real_now()

    def end_halt(self) -> None:
        """Fold the halt duration into the delta and unfreeze."""
        if self.halted_at is not None:
            self.delta += self.real_now() - self.halted_at
            self.halted_at = None

    def reset_to_real_time(self) -> None:
        """End of a debugging session: logical clock snaps back to real time
        (paper §5.2 notes the effects of this "may be unpredictable")."""
        self.delta = 0
        self.halted_at = None

    def __repr__(self) -> str:
        return (
            f"<NodeClock real={self.real_now()} logical={self.logical_now()} "
            f"delta={self.current_delta()}>"
        )
