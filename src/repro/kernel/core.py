"""The pure event engine: handles, scheduling indexes, and the core.

The hot path of the whole reproduction — every packet delivery, timer,
scheduler tick, and halt broadcast is one of these events — lives in a
small, profilable unit with no knowledge of clusters, buses, or virtual
clocks.  :class:`~repro.sim.world.World` is a thin facade that owns the
clock, RNG, and instrumentation and delegates all queue work here.

:class:`EventCore` keeps events in a :class:`~repro.kernel.wheel.TimingWheel`
(O(1) amortized push/pop, no Python-level comparisons) plus two
secondary indexes used by the conservative parallel-execution windows:
a per-node tuple-heap of each node's pending events and a tuple-heap of
global (untagged) events.  Cancellation is lazy everywhere — a cancel
is one flag flip — with tombstone accounting that compacts any
structure before dead entries can outnumber live ones (see
:meth:`EventCore.cancel_node_events`).

The contract is the total order on ``(time, seq)``; the tests hold
:class:`EventCore` to it against a single-``heapq`` reference engine
(``tests/heap_core.py``) under mirrored random churn.
"""

from __future__ import annotations

import heapq
from heapq import heappop, heappush
from typing import Any, Callable, Iterator, Optional

from repro.kernel.wheel import TimingWheel
from repro.sim.units import FOREVER

__all__ = [
    "EventCore",
    "EventHandle",
    "SimulationError",
    "make_core",
]


class SimulationError(Exception):
    """Raised on misuse of the simulation kernel (e.g. scheduling in the past)."""


class EventHandle:
    """A cancellable reference to a scheduled event.

    Cancellation is lazy: the queue entry stays in its structures but is
    skipped when reached.  ``remaining(now)`` reports the time left
    until the event fires, which the supervisor uses to freeze semaphore
    timeouts while a node is halted at a breakpoint.

    ``node`` tags the event with the node it can affect (packet delivery
    to that node, its timers, its scheduler ticks); untagged events are
    global and bound every node's execution window.

    ``survives_crash`` marks node-tagged events whose cause lives *off*
    the node — an in-flight ring delivery is on the wire, so the
    destination crashing must not retract it (the interface-level drop
    is modelled at delivery time instead).
    """

    __slots__ = (
        "time", "seq", "fn", "args", "cancelled", "node", "survives_crash",
        "owner", "consumed",
    )

    def __init__(
        self,
        time: int,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        node: Optional[int] = None,
        survives_crash: bool = False,
        owner: Optional["EventCore"] = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.node = node
        self.survives_crash = survives_crash
        #: Back-reference to the owning core so cancellation can
        #: invalidate its caches and account the tombstone.
        self.owner = owner
        #: True once the main queue popped this handle for execution
        #: (a consumed handle is not a queue tombstone).
        self.consumed = False

    def cancel(self) -> None:
        """Cancel the event (idempotent).  One flag flip; the queue
        entry is skipped lazily when reached."""
        if not self.cancelled:
            self.cancelled = True
            if self.owner is not None:
                self.owner._note_cancel(self)
                self.owner = None
        # Drop references so cancelled closures do not pin objects alive.
        self.fn = _nothing
        self.args = ()

    def remaining(self, now: int) -> int:
        """Microseconds until this event fires (>= 0)."""
        return max(0, self.time - now)

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time} seq={self.seq} {state}>"


def _nothing(*_args: Any) -> None:
    """Placeholder callback for cancelled events."""


def _peek_tuple_heap(heap: list) -> int:
    """Minimum live time in a ``(time, seq, handle)`` heap (stale tops
    are popped lazily; popping a dead top never moves a live minimum)."""
    while heap and heap[0][2].cancelled:
        heappop(heap)
    return heap[0][0] if heap else FOREVER


#: Main-queue tombstones tolerated before a compaction sweep.  The
#: sweep keeps stored entries <= 2 x live + this slack, so a mass
#: crash can never leave the queue dominated by dead weight.
COMPACT_SLACK = 64

#: Sentinel distinguishing "no memo entry" from a memoized FOREVER.
_MISS = object()


class EventCore:
    """Timing-wheel event engine with execution-window indexes.

    The three queries the simulation asks at high frequency — next
    event overall (:meth:`peek_next_time`), next event for one node,
    next global event (both folded into :meth:`window_for`) — are each
    answered from a dedicated structure whose minimum is O(1) amortized,
    and memoized on a version counter that changes only when a live
    minimum can move (push, live cancel, live pop).
    """

    __slots__ = (
        "_wheel", "_node_index", "_global_index", "_seq", "_version",
        "live", "_tombstones", "_node_stale", "_window_cache", "_peek_cache",
    )

    def __init__(self, bucket_bits: int = 9, slot_bits: int = 12):
        self._wheel = TimingWheel(bucket_bits=bucket_bits, slot_bits=slot_bits)
        #: node -> (time, seq, handle) tuple-heap of that node's events.
        self._node_index: dict[int, list] = {}
        #: (time, seq, handle) tuple-heap of global (untagged) events.
        self._global_index: list = []
        self._seq = 0
        #: Bumped whenever a live minimum can move; the window/peek
        #: caches key on it.
        self._version = 0
        #: Live (pending, non-cancelled) events in the main queue.
        self.live = 0
        #: Cancelled-in-place entries still stored in the main queue.
        self._tombstones = 0
        #: node -> cancels since that node's index was last compacted.
        self._node_stale: dict[int, int] = {}
        #: node -> ((version, lookahead, boundary), window).
        self._window_cache: dict[int, tuple] = {}
        #: (version, {boundary: next_time}) memo for
        #: :meth:`peek_next_time` — keyed per boundary because the run
        #: loop peeks with the active boundary while :meth:`window_for`
        #: peeks unbounded, and the two must not evict each other.
        self._peek_cache: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule_at(
        self,
        time: int,
        fn: Callable[..., Any],
        args: tuple = (),
        node: Optional[int] = None,
        survives_crash: bool = False,
    ) -> EventHandle:
        """Insert ``fn(*args)`` at absolute time ``time``; returns the
        cancellable handle.  FIFO among equal times (seq breaks ties)."""
        self._seq += 1
        seq = self._seq
        self._version += 1
        handle = EventHandle(
            time, seq, fn, args, node=node,
            survives_crash=survives_crash, owner=self,
        )
        entry = (time, seq, handle)
        self._wheel.push(entry)
        self.live += 1
        if node is None:
            heappush(self._global_index, entry)
        else:
            index = self._node_index.get(node)
            if index is None:
                self._node_index[node] = [entry]
            else:
                heappush(index, entry)
        return handle

    def pop_next(self) -> Optional[EventHandle]:
        """Remove and return the next live handle, or ``None`` when the
        queue is drained.  Dead entries met on the way are discarded."""
        wheel = self._wheel
        while True:
            entry = wheel.pop()
            if entry is None:
                return None
            handle = entry[2]
            if handle.cancelled:
                self._tombstones -= 1
                continue
            handle.consumed = True
            self.live -= 1
            # A pop moves the live minimum: invalidate the memoized
            # peek/window answers even if the caller never cancels the
            # consumed handle.
            self._version += 1
            return handle

    # ------------------------------------------------------------------
    # Cancellation and compaction
    # ------------------------------------------------------------------

    def _note_cancel(self, handle: EventHandle) -> None:
        """Account one cancellation (called from :meth:`EventHandle.cancel`)."""
        self._version += 1
        if handle.consumed:
            return  # consumed handles already left the main queue
        self.live -= 1
        self._tombstones += 1
        node = handle.node
        if node is not None:
            stale = self._node_stale.get(node, 0) + 1
            self._node_stale[node] = stale
            index = self._node_index.get(node)
            # Repeated same-node cancels within one window must trigger
            # compaction too, not just the bulk-crash path: a node that
            # churns timers (schedule + cancel per RPC) would otherwise
            # drag an ever-growing dead heap around between crashes.
            if index is not None and stale * 2 >= len(index) and stale >= 8:
                self._compact_node(node)
        if self._tombstones > COMPACT_SLACK and self._tombstones > self.live:
            self._sweep()

    def _compact_node(self, node: int) -> None:
        """Drop dead entries from one node's index heap."""
        index = self._node_index.get(node)
        if index is None:
            self._node_stale.pop(node, None)
            return
        kept = [entry for entry in index if not entry[2].cancelled]
        if kept:
            heapq.heapify(kept)
            self._node_index[node] = kept
        else:
            self._node_index.pop(node, None)
        self._node_stale.pop(node, None)

    def _sweep(self) -> None:
        """Rebuild the main queue with live entries only."""
        entries = [entry for entry in self._wheel if not entry[2].cancelled]
        self._wheel.rebuild(entries)
        self._tombstones = 0
        # The global index can only shed dead tops lazily; a sweep is
        # the natural moment to drop mid-heap tombstones there too.
        kept = [e for e in self._global_index if not e[2].cancelled]
        heapq.heapify(kept)
        self._global_index = kept

    def cancel_node_events(self, node: int) -> int:
        """Cancel every pending event tagged with ``node``.

        Used by :meth:`repro.mayflower.node.Node.crash`: a fail-stopped
        machine must not have timers or scheduler ticks fire after the
        crash.  Events marked ``survives_crash`` (in-flight deliveries,
        which live on the wire) are kept — they still bound execution
        windows and resolve at delivery time.  Returns the number of
        live events cancelled.

        Cancellation is a flag flip per event; compaction triggers when
        dead entries reach half of any structure — whether they got
        there through this bulk path or through accumulated single
        cancels (see :meth:`_note_cancel`) — and a main-queue sweep
        bounds stored entries at twice the live count plus slack.
        """
        index = self._node_index.get(node)
        if not index:
            return 0
        cancelled = 0
        live = 0
        for _, _, handle in index:
            if handle.cancelled or handle.consumed:
                continue
            if handle.survives_crash:
                live += 1
            else:
                # Inline fast path of EventHandle.cancel(): flag, then
                # bulk-account below instead of once per handle.
                handle.cancelled = True
                handle.owner = None
                handle.fn = _nothing
                handle.args = ()
                cancelled += 1
        if cancelled:
            self._version += 1
            self.live -= cancelled
            self._tombstones += cancelled
        stale = self._node_stale.get(node, 0) + cancelled
        if live == 0:
            self._node_index.pop(node, None)
            self._node_stale.pop(node, None)
        elif stale * 2 >= len(index):
            self._compact_node(node)
        else:
            self._node_stale[node] = stale
        if self._tombstones > COMPACT_SLACK and self._tombstones > self.live:
            self._sweep()
        return cancelled

    # ------------------------------------------------------------------
    # Minimum queries (the execution-window hot path)
    # ------------------------------------------------------------------

    def peek_next_time(self, boundary: Optional[int] = None) -> int:
        """Time of the next live event (FOREVER when drained), capped at
        ``boundary`` when one is active."""
        cache = self._peek_cache
        if cache is not None and cache[0] == self._version:
            memo = cache[1]
            hit = memo.get(boundary, _MISS)
            if hit is not _MISS:
                return hit
        else:
            memo = {}
            self._peek_cache = (self._version, memo)
        wheel = self._wheel
        while True:
            entry = wheel.peek()
            if entry is None:
                top = FOREVER
                break
            if entry[2].cancelled:
                wheel.pop()
                self._tombstones -= 1
                continue
            top = entry[0]
            break
        if boundary is not None and boundary < top:
            top = boundary
        memo[boundary] = top
        return top

    def window_for(
        self, node: int, lookahead: int, boundary: Optional[int] = None
    ) -> int:
        """How far node ``node`` may run its CPU ahead of the clock.

        Bounded by the node's own next event, any global event, any
        other node's next event plus ``lookahead`` (the minimum
        cross-node latency), and the active run boundary.  Memoized per
        node until the queue changes.
        """
        key = (self._version, lookahead, boundary)
        cached = self._window_cache.get(node)
        if cached is not None and cached[0] == key:
            return cached[1]
        own = _peek_tuple_heap(self._node_index.get(node, []))
        global_next = _peek_tuple_heap(self._global_index)
        any_next = self.peek_next_time(None)
        window = own if own < global_next else global_next
        if any_next < FOREVER:
            window = min(window, any_next + lookahead)
        if boundary is not None and boundary < window:
            window = boundary
        self._window_cache[node] = (key, window)
        return window

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------

    def iter_handles(self) -> Iterator[EventHandle]:
        """Every handle still stored in the main queue (dead included)."""
        for entry in self._wheel:
            yield entry[2]

    def node_handles(self, node: int) -> list:
        """Handles in one node's index (dead and consumed included)."""
        return [entry[2] for entry in self._node_index.get(node, [])]

    def has_node_index(self, node: int) -> bool:
        """Whether a (possibly stale) index heap exists for ``node``."""
        return node in self._node_index

    def stored_count(self) -> int:
        """Entries held by the main queue, tombstones included."""
        return len(self._wheel)

    def clear(self) -> None:
        """Cancel and drop every event (cheap world teardown)."""
        for entry in self._wheel:
            handle = entry[2]
            handle.cancelled = True
            handle.owner = None
            handle.fn = _nothing
            handle.args = ()
        self._wheel.clear()
        self._node_index.clear()
        self._global_index.clear()
        self._node_stale.clear()
        self._window_cache.clear()
        self._peek_cache = None
        self.live = 0
        self._tombstones = 0
        self._version += 1

    def __repr__(self) -> str:
        return (
            f"<EventCore live={self.live} stored={self.stored_count()} "
            f"seq={self._seq}>"
        )


def make_core(name: str) -> EventCore:
    """Build the event engine.  There is one, :class:`EventCore`; the
    ``"wheel"`` name survives only because
    ``benchmarks/ledger/workloads/world_churn.py`` (frozen outside
    benchmark PRs) calls ``make_core("wheel")`` and
    ``World(kernel="wheel")``."""
    if name != "wheel":
        raise SimulationError(f"unknown event core {name!r} (have: 'wheel')")
    return EventCore()
