"""The event-driven simulation world.

A :class:`World` owns the virtual clock and an event engine from
:mod:`repro.kernel`.  Everything in the reproduction — supervisor
scheduling, packet delivery, semaphore timeouts, agent halt broadcasts —
is expressed as events scheduled here.  The world itself is a thin
facade: all queue mechanics (the timing wheel, window indexes,
cancellation, tombstone compaction) live in the kernel package, and the
world adds the clock, the seeded RNG, the instrumentation bus, and the
run loop.

Determinism rules
-----------------
* Events with equal timestamps run in the order they were scheduled (a
  monotonically increasing sequence number breaks ties) — the total
  order on ``(time, seq)`` is the kernel contract.
* All randomness flows through ``world.rng``, a seeded ``random.Random``.
* Handlers may advance the clock cooperatively with :meth:`World.advance`,
  but never past the next queued event; this is how node CPU slices
  interleave with packet deliveries at exact microsecond granularity.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Union

import random

from repro.kernel.core import (
    EventCore,
    EventHandle,
    SimulationError,
    _nothing,
    make_core,
)
from repro.obs.bus import Bus
from repro.obs.metrics import Metrics, install_default_metrics
from repro.sim.units import FOREVER

__all__ = ["EventHandle", "SimulationError", "World"]


class _ClosedCore(EventCore):
    """The engine of a closed world: empty, and it stays so.  Swapped in
    by :meth:`World.close`, so a stale callback that schedules into a
    torn-down world is refused without a test on the open-world path."""

    __slots__ = ()

    def schedule_at(self, *_args: Any, **_kwargs: Any) -> EventHandle:
        raise SimulationError("world is closed")


class World:
    """Global virtual clock plus event engine.

    Multi-node parallelism: nodes consume CPU time on *local* cursors that
    run ahead of ``now`` inside an execution window computed by
    :meth:`window_for` — a node may run up to its own next event (timer,
    packet delivery, tick), any global event, or any other node's next
    event plus the network lookahead (nothing can cross nodes faster than
    one Basic Block).  This is conservative parallel discrete-event
    simulation; it keeps two busy CPUs advancing over the same virtual
    interval instead of serializing them.

    Parameters
    ----------
    seed:
        Seed for the world's random number generator.  Two worlds created
        with the same seed and driven by the same code produce identical
        event traces.
    kernel:
        The event engine: ``"wheel"`` (a fresh
        :class:`~repro.kernel.core.EventCore`) or an already-built core
        object — how the tests inject their reference engine.
    """

    def __init__(self, seed: int = 0, kernel: Union[str, Any] = "wheel"):
        self.now: int = 0
        self.rng = random.Random(seed)
        #: The instrumentation bus: every layer emits typed events here
        #: (see :mod:`repro.obs`).  Event types with no subscribers cost
        #: one dict lookup per emit.
        self.bus = Bus()
        #: The world's metric registry; the shipped counters subscribe to
        #: the bus at birth and back the layers' public counter properties.
        self.metrics = Metrics()
        install_default_metrics(self.bus, self.metrics)
        #: The event engine (see :mod:`repro.kernel`).
        self.kernel = make_core(kernel) if isinstance(kernel, str) else kernel
        self._running = False
        self._stopped = False
        self._closed = False
        #: While run(until=...) is active, cooperative advancement and
        #: peek_next_time() are capped here so no handler runs past it.
        self._boundary: Optional[int] = None
        #: High-water mark of node-local CPU cursors, so the clock lands on
        #: the true end of computation when the event queue drains.
        self._progress = 0
        self.events_processed = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(
        self,
        delay: int,
        fn: Callable[..., Any],
        *args: Any,
        node: Optional[int] = None,
    ) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` microseconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.kernel.schedule_at(self.now + delay, fn, args, node)

    def schedule_at(
        self,
        time: int,
        fn: Callable[..., Any],
        *args: Any,
        node: Optional[int] = None,
        survives_crash: bool = False,
    ) -> EventHandle:
        """Schedule ``fn(*args)`` at an absolute virtual time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        return self.kernel.schedule_at(time, fn, args, node, survives_crash)

    def cancel_node_events(self, node: int) -> int:
        """Cancel every pending event tagged with ``node``.

        Used by :meth:`repro.mayflower.node.Node.crash`: a fail-stopped
        machine must not have timers or scheduler ticks fire after the
        crash.  Events marked ``survives_crash`` (in-flight deliveries,
        which live on the wire) are kept — they still bound execution
        windows and resolve at delivery time.  Returns the number of
        live events cancelled; see
        :meth:`repro.kernel.core.EventCore.cancel_node_events`.
        """
        return self.kernel.cancel_node_events(node)

    # ------------------------------------------------------------------
    # Cooperative clock advancement (used by node CPU slices)
    # ------------------------------------------------------------------

    def peek_next_time(self) -> int:
        """Time of the next pending event, or FOREVER if the queue is empty.

        Nothing new can be scheduled earlier than this without the clock
        first reaching it, so a handler may safely consume CPU time up to
        (but not past) this boundary.
        """
        return self.kernel.peek_next_time(self._boundary)

    def window_for(self, node: int, lookahead: int) -> int:
        """How far node ``node`` may run its CPU ahead of ``now``.

        Bounded by the node's own next event, any global event, any other
        node's next event plus ``lookahead`` (the minimum cross-node
        latency), and the active run(until=...) boundary.  Memoized in
        the kernel until the queue changes — this is the supervisor's
        per-action hot path, and at 512 nodes a slice re-derives the same
        window hundreds of times between queue mutations.
        """
        return self.kernel.window_for(node, lookahead, self._boundary)

    def advance(self, dt: int) -> None:
        """Advance the clock by ``dt`` from inside an event handler.

        The caller must have checked :meth:`peek_next_time`; advancing past a
        pending event would reorder history and raises ``SimulationError``.
        """
        if dt < 0:
            raise SimulationError(f"cannot advance backwards (dt={dt})")
        target = self.now + dt
        if target > self.peek_next_time():
            raise SimulationError(
                f"advance({dt}) would pass pending event at "
                f"t={self.peek_next_time()} (now={self.now})"
            )
        self.now = target

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def note_progress(self, time: int) -> None:
        """Record how far a node's local CPU cursor has run."""
        if time > self._progress:
            self._progress = time

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def step(self) -> bool:
        """Process a single event.  Returns False when the queue is empty."""
        handle = self.kernel.pop_next()
        if handle is None:
            return False
        self.now = handle.time
        fn, args = handle.fn, handle.args
        # Release references; pop_next already unqueued and accounted
        # the handle, so the flag and two stores are all cancel() adds.
        handle.cancelled = True
        handle.fn = _nothing
        handle.args = ()
        self.events_processed += 1
        fn(*args)
        return True

    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have been processed.  Returns the number of events
        processed by this call.

        ``until`` is exclusive: events scheduled at exactly ``until`` are
        left queued, and the clock is left at ``until``.  While the run is
        active, cooperative advancement is capped at ``until`` too, so no
        handler can carry the clock past it.
        """
        if self._running:
            raise SimulationError("World.run() is not reentrant")
        if self._closed:
            raise SimulationError("world is closed")
        self._running = True
        self._stopped = False
        self._boundary = until
        peek_next_time = self.kernel.peek_next_time
        pop_next = self.kernel.pop_next
        processed = 0
        try:
            while not self._stopped:
                if max_events is not None and processed >= max_events:
                    break
                next_time = peek_next_time(until)
                if next_time == FOREVER:
                    self.now = max(self.now, min(self._progress, until)
                                   if until is not None else self._progress)
                    break
                if until is not None and next_time >= until:
                    self.now = max(self.now, until)
                    break
                # step(), inline (the peek found a live event, so the
                # pop returns it): one frame per event instead of three.
                handle = pop_next()
                self.now = handle.time
                fn, args = handle.fn, handle.args
                handle.cancelled = True
                handle.fn = _nothing
                handle.args = ()
                self.events_processed += 1
                fn(*args)
                processed += 1
        finally:
            self._boundary = None
            self._running = False
        return processed

    def run_for(self, duration: int) -> int:
        """Run for ``duration`` microseconds of virtual time."""
        return self.run(until=self.now + duration)

    def pending_count(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return self.kernel.live

    def close(self) -> None:
        """Tear the world down cheaply (for high-churn worker pools).

        Cancels every queued event (dropping the closures and their
        captured node/runtime objects), empties the scheduling indexes,
        and clears the bus subscriptions.  The world is unusable
        afterwards — ``run`` and the two schedule calls raise — and
        campaign workers call this between grid cells so each finished
        world is freed by refcounting alone instead of lingering until
        a full cycle collection.
        """
        if self._running:
            raise SimulationError("cannot close a running world")
        self.kernel.clear()
        self.kernel = _ClosedCore(0, 0)
        self.bus.clear()
        self._stopped = True
        self._closed = True

    def __repr__(self) -> str:
        return f"<World now={self.now} pending={self.pending_count()}>"
