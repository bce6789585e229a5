"""The pure event engine: handles, the timing wheel, and the window indexes.

The hot path of the whole reproduction — every packet delivery, timer,
scheduler tick, and halt broadcast is one of these events — lives in
one class with no knowledge of clusters, buses, or virtual clocks.
:class:`~repro.sim.world.World` is a thin facade that owns the clock,
RNG, and instrumentation and delegates all queue work here.

:class:`EventCore` is a timing wheel (calendar queue) over integer
microseconds.  A binary heap pays O(log n) Python-level comparisons per
operation; the wheel exploits what a discrete-event simulation knows
about its keys — time only grows, and almost every event lands near
now (network latencies are a few milliseconds, timers a few hundred).
Entries are ``(time, seq, handle)`` tuples kept in one of three
containers, and which one is a function of the entry's time and the
cursor alone (``rel = (time >> bucket_bits) - cursor``):

* ``rel <= 0`` — the **cursor heap**, a tuple-heap of everything due in
  the bucket the cursor stands on (or scheduled behind it: the cursor
  tracks the earliest *pending* event, which may sit later than now);
* ``0 < rel < slots`` — that slot's **bucket**, a ``{seq: entry}``
  dict, created on first use and dropped when it empties.  When the
  cursor arrives the bucket becomes the cursor heap by one C-level
  ``sorted()`` (a sorted list is a heap);
* otherwise — the **overflow heap** beyond the wheel horizon, whose
  entries migrate inward as the cursor advances.

The cursor only advances, never past an occupied slot, and every
advance migrates the overflow entries inside the new horizon, so the
rule keeps naming the container an entry is in.  That is what lets a
cancel *remove*: a bucket entry is ``del``-eted from its dict, and only
the two heaps (at most one bucket width ahead, or a whole horizon away)
keep a cancelled entry as a tombstone, skipped when reached and swept
before tombstones can outnumber live events.

Two secondary indexes serve the conservative parallel-execution
windows: a tuple-heap per node tag of that node's pending events, and
under the ``None`` tag the global (untagged) ones.  They shed dead
entries lazily from the top and compact when half an index is dead.

The contract is the total order on ``(time, seq)``; the tests hold
:class:`EventCore` to it against a single-``heapq`` reference engine
(``tests/heap_core.py``) under mirrored generated churn.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterator, Optional

from repro.sim.units import FOREVER

__all__ = [
    "EventCore",
    "EventHandle",
    "SimulationError",
    "make_core",
]


class SimulationError(Exception):
    """Raised on misuse of the simulation kernel (e.g. scheduling in the past)."""


#: Tombstones tolerated in the cursor and overflow heaps before a
#: sweep.  A sweep runs once they exceed both this and the live count,
#: so stored entries stay <= 2 x live + this slack.
COMPACT_SLACK = 64

#: Cancels a node index absorbs before it is considered for compaction
#: (below this a rebuild costs more than the dead entries do).
_MIN_STALE = 8


class EventHandle:
    """A cancellable reference to a scheduled event.

    ``remaining(now)`` reports the time left until the event fires,
    which the supervisor uses to freeze semaphore timeouts while a node
    is halted at a breakpoint.

    ``node`` tags the event with the node it can affect (packet delivery
    to that node, its timers, its scheduler ticks); untagged events are
    global and bound every node's execution window.

    ``survives_crash`` marks node-tagged events whose cause lives *off*
    the node — an in-flight ring delivery is on the wire, so the
    destination crashing must not retract it (the interface-level drop
    is modelled at delivery time instead).

    ``owner`` is the engine while the event is queued there, and
    ``None`` once it is not: cancelled, popped for execution, or
    cleared.  ``cancelled`` is what callers read; a popped handle is
    flagged too when the run loop releases it.
    """

    __slots__ = (
        "time", "seq", "fn", "args", "cancelled", "node", "survives_crash",
        "owner",
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
        self.owner = owner

    def cancel(self) -> None:
        """Cancel the event (idempotent).

        A repeated cancel returns on its first test; cancelling a handle
        the run loop already popped only drops its references.  For a
        queued event the whole removal is here, in one frame (this is
        half of the timeout-cancel pattern that dominates churn): the
        entry leaves its bucket dict, or — inside the cursor bucket or
        beyond the horizon — stays behind as a counted tombstone.
        """
        if self.cancelled:
            return
        self.cancelled = True
        # Drop references so cancelled closures do not pin objects alive.
        self.fn = _nothing
        self.args = ()
        core = self.owner
        if core is None:
            return  # popped: pop_next accounted it and nothing stores it
        self.owner = None
        core.live -= 1
        bucket_no = self.time >> core._bits
        rel = bucket_no - core._cursor
        if 0 < rel < core._slots:
            slot = bucket_no & core._mask
            bucket = core._buckets[slot]
            del bucket[self.seq]
            if not bucket:
                core._buckets[slot] = None
                core._occupied ^= 1 << rel
        else:
            core._tombstones = dead = core._tombstones + 1
            if dead > COMPACT_SLACK and dead > core.live:
                core._sweep()
        # The node index keeps the entry; a node that churns timers
        # (schedule + cancel per RPC) must not drag an ever-growing
        # dead heap around, so half-dead indexes are rebuilt.
        node = self.node
        core._node_stale[node] = stale = core._node_stale.get(node, 0) + 1
        if stale >= _MIN_STALE and stale * 2 >= len(core._node_index[node]):
            core._compact_node(node)

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


def _peek_index(heap: list) -> int:
    """Minimum live time in an index heap (dead tops are popped lazily;
    popping a dead top never moves a live minimum)."""
    while heap and heap[0][2].owner is None:
        heappop(heap)
    return heap[0][0] if heap else FOREVER


def _drop_dead(heap: list) -> None:
    """Rebuild a heap in place without its unqueued entries."""
    heap[:] = [entry for entry in heap if entry[2].owner is not None]
    heapify(heap)


class EventCore:
    """Timing-wheel event engine with execution-window indexes.

    Parameters
    ----------
    bucket_bits:
        log2 of the bucket width in microseconds (default 9 → 512 µs,
        about one seventh of a Basic Block hop).
    slot_bits:
        log2 of the number of buckets (default 12 → 4096 buckets, a
        ~2.1 s horizon before entries spill to the overflow heap).
    """

    __slots__ = (
        "_bits", "_slots", "_mask", "_buckets", "_cursor", "_occupied",
        "_heap", "_overflow", "_node_index", "_node_stale", "_seq", "live",
        "_tombstones", "_window_cache",
    )

    def __init__(self, bucket_bits: int = 9, slot_bits: int = 12):
        self._bits = bucket_bits
        self._slots = 1 << slot_bits
        self._mask = self._slots - 1
        #: slot -> ``{seq: entry}`` for the buckets ahead of the cursor,
        #: ``None`` while a slot is empty (so an idle or drained wheel
        #: holds no containers at all).
        self._buckets: list[Optional[dict]] = [None] * self._slots
        #: Absolute bucket index (``time >> bucket_bits``) the cursor
        #: heap belongs to.  Monotonically increasing.
        self._cursor = 0
        #: Bitmask of slots holding a dict, bit ``i`` = bucket
        #: ``cursor + i`` (bit 0 is never set: that is the cursor heap).
        self._occupied = 0
        #: Tuple-heap of the entries at or behind the cursor bucket.
        self._heap: list = []
        #: Tuple-heap of the entries beyond the wheel horizon.
        self._overflow: list = []
        #: node tag -> tuple-heap of that node's events; ``None`` tags
        #: the global ones.
        self._node_index: dict[Optional[int], list] = {}
        #: node tag -> cancels since that index was last compacted.
        self._node_stale: dict[Optional[int], int] = {}
        self._seq = 0
        #: Live (pending, non-cancelled) events.
        self.live = 0
        #: Cancelled entries still stored in the two heaps.
        self._tombstones = 0
        #: node -> ((seq, live, lookahead, boundary), window).  ``seq``
        #: only grows and between two schedules ``live`` only falls, so
        #: the pair names a queue state: every schedule, pop and live
        #: cancel changes it.
        self._window_cache: dict[int, tuple] = {}

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
        self._seq = seq = self._seq + 1
        self.live += 1
        handle = EventHandle(time, seq, fn, args, node, survives_crash, self)
        entry = (time, seq, handle)
        bucket_no = time >> self._bits
        rel = bucket_no - self._cursor
        if rel <= 0:
            # Due in the cursor bucket, or between now and the earliest
            # pending event (the cursor may have passed this bucket
            # while it was empty); the heap orders by absolute key.
            heappush(self._heap, entry)
        elif rel < self._slots:
            slot = bucket_no & self._mask
            bucket = self._buckets[slot]
            if bucket is None:
                self._buckets[slot] = {seq: entry}
                self._occupied |= 1 << rel
            else:
                bucket[seq] = entry
        else:
            heappush(self._overflow, entry)
        index = self._node_index.get(node)
        if index is None:
            self._node_index[node] = [entry]
        else:
            heappush(index, entry)
        return handle

    def pop_next(self) -> Optional[EventHandle]:
        """Remove and return the next live handle, or ``None`` when the
        queue is drained.  Tombstones met on the way are discarded."""
        heap = self._heap
        while True:
            if not heap:
                heap = self._seek()
                if heap is None:
                    return None
            handle = heappop(heap)[2]
            if handle.owner is None:
                self._tombstones -= 1
                continue
            handle.owner = None
            self.live -= 1
            return handle

    def _seek(self) -> Optional[list]:
        """Move the cursor to the next occupied bucket and return it as
        the cursor heap (``None`` when the engine is drained).  Called
        only while the cursor heap is empty."""
        occupied = self._occupied
        if occupied:
            rel = (occupied & -occupied).bit_length() - 1
            self._cursor = cursor = self._cursor + rel
            self._occupied = (occupied >> rel) ^ 1
            slot = cursor & self._mask
            self._heap = sorted(self._buckets[slot].values())
            self._buckets[slot] = None
        else:
            # The wheel is empty: jump straight to the overflow
            # minimum's bucket.
            overflow = self._overflow
            while overflow and overflow[0][2].owner is None:
                heappop(overflow)
                self._tombstones -= 1
            if not overflow:
                return None
            self._cursor = overflow[0][0] >> self._bits
        if self._overflow:
            self._migrate()
        return self._heap

    def _migrate(self) -> None:
        """Pull the overflow entries inside the horizon into the wheel
        (every cursor move does, so ``rel`` keeps naming containers)."""
        overflow = self._overflow
        bits, cursor = self._bits, self._cursor
        horizon = (cursor + self._slots) << bits
        while overflow and overflow[0][0] < horizon:
            entry = heappop(overflow)
            if entry[2].owner is None:
                self._tombstones -= 1
                continue
            bucket_no = entry[0] >> bits
            if bucket_no == cursor:
                heappush(self._heap, entry)
                continue
            slot = bucket_no & self._mask
            bucket = self._buckets[slot]
            if bucket is None:
                bucket = self._buckets[slot] = {}
                self._occupied |= 1 << (bucket_no - cursor)
            bucket[entry[1]] = entry

    # ------------------------------------------------------------------
    # Cancellation and compaction (single cancels: EventHandle.cancel)
    # ------------------------------------------------------------------

    def _compact_node(self, node: Optional[int]) -> None:
        """Drop dead entries from one node's index heap."""
        index = self._node_index[node]
        _drop_dead(index)
        if not index:
            del self._node_index[node]
        self._node_stale.pop(node, None)

    def _sweep(self) -> None:
        """Drop the tombstones from the two heaps that can hold them."""
        _drop_dead(self._heap)
        _drop_dead(self._overflow)
        self._tombstones = 0

    def cancel_node_events(self, node: int) -> int:
        """Cancel every pending event tagged with ``node``.

        Used by :meth:`repro.mayflower.node.Node.crash`: a fail-stopped
        machine must not have timers or scheduler ticks fire after the
        crash.  Events marked ``survives_crash`` (in-flight deliveries,
        which live on the wire) are kept — they still bound execution
        windows and resolve at delivery time.  Returns the number of
        live events cancelled.

        Like a single cancel, each one leaves its bucket dict or becomes
        a counted tombstone; the node's index is rebuilt from the
        survivors and the sweep bound is checked once at the end.
        """
        index = self._node_index.get(node)
        if not index:
            return 0
        bits, cursor, slots, mask = (
            self._bits, self._cursor, self._slots, self._mask)
        buckets = self._buckets
        survivors = []
        cancelled = 0
        for entry in index:
            time, seq, handle = entry
            if handle.owner is None:
                continue
            if handle.survives_crash:
                survivors.append(entry)
                continue
            handle.cancelled = True
            handle.owner = None
            handle.fn = _nothing
            handle.args = ()
            cancelled += 1
            bucket_no = time >> bits
            rel = bucket_no - cursor
            if 0 < rel < slots:
                slot = bucket_no & mask
                bucket = buckets[slot]
                del bucket[seq]
                if not bucket:
                    buckets[slot] = None
                    self._occupied ^= 1 << rel
            else:
                self._tombstones += 1
        self.live -= cancelled
        if survivors:
            heapify(survivors)
            self._node_index[node] = survivors
        else:
            del self._node_index[node]
        self._node_stale.pop(node, None)
        if self._tombstones > COMPACT_SLACK and self._tombstones > self.live:
            self._sweep()
        return cancelled

    # ------------------------------------------------------------------
    # Minimum queries (the execution-window hot path)
    # ------------------------------------------------------------------

    def peek_next_time(self, boundary: Optional[int] = None) -> int:
        """Time of the next live event (FOREVER when drained), capped at
        ``boundary`` when one is active.  May advance the cursor past
        empty buckets (safe: schedules behind it join the cursor heap)."""
        heap = self._heap
        while True:
            if not heap:
                heap = self._seek()
                if heap is None:
                    top = FOREVER
                    break
            top, _, handle = heap[0]
            if handle.owner is not None:
                break
            heappop(heap)
            self._tombstones -= 1
        if boundary is not None and boundary < top:
            return boundary
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
        key = (self._seq, self.live, lookahead, boundary)
        cached = self._window_cache.get(node)
        if cached is not None and cached[0] == key:
            return cached[1]
        index = self._node_index
        own = _peek_index(index.get(node, ()))
        global_next = _peek_index(index.get(None, ()))
        any_next = self.peek_next_time()
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
        """Every handle still stored in the main queue (tombstones
        included, order unspecified)."""
        for entry in self._heap:
            yield entry[2]
        for bucket in filter(None, self._buckets):
            for entry in bucket.values():
                yield entry[2]
        for entry in self._overflow:
            yield entry[2]

    def node_handles(self, node: int) -> list:
        """Handles in one node's index (dead and consumed included)."""
        return [entry[2] for entry in self._node_index.get(node, ())]

    def has_node_index(self, node: int) -> bool:
        """Whether a (possibly stale) index heap exists for ``node``."""
        return node in self._node_index

    def stored_count(self) -> int:
        """Entries held by the main queue, tombstones included."""
        return self.live + self._tombstones

    def clear(self) -> None:
        """Cancel and drop every event (cheap world teardown)."""
        for handle in self.iter_handles():
            handle.cancelled = True
            handle.owner = None
            handle.fn = _nothing
            handle.args = ()
        self._buckets = [None] * self._slots
        self._occupied = 0
        self._heap.clear()
        self._overflow.clear()
        self._node_index.clear()
        self._node_stale.clear()
        self._window_cache.clear()
        self.live = 0
        self._tombstones = 0

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
