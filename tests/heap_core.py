"""The reference event engine: one global ``heapq`` of handles.

:class:`HeapEventCore` is the differential oracle for
:class:`repro.kernel.core.EventCore` — handle-based binary heaps ordered
by ``EventHandle.__lt__``, per-node/global index heaps, version-counter
caches, lazy cancellation (a flag flip), compaction only on the
bulk-crash path.  It lives under ``tests/`` because nothing in ``src/``
runs it: ``tests/test_kernel.py`` drives both engines through mirrored
generated churn and requires the same pops, peeks and windows (the
total order on ``(time, seq)`` is the kernel contract), and injects it
into a world as ``World(kernel=obj)``.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterator, Optional

from repro.kernel.core import EventHandle, _nothing
from repro.sim.units import FOREVER


class HeapHandle(EventHandle):
    """The oracle's handle.  :meth:`EventHandle.cancel` removes the entry
    from :class:`EventCore`'s own containers; here a cancel stays what
    it was in every engine before that one: a flag flip and a version
    bump, the entry skipped when a heap reaches it."""

    __slots__ = ("consumed",)

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            if self.owner is not None:
                self.owner._version += 1
                self.owner = None
        self.fn = _nothing
        self.args = ()


class HeapEventCore:
    """Single-``heapq`` engine with the :class:`EventCore` interface;
    it must order events exactly like :class:`EventCore`."""

    __slots__ = (
        "_queue", "_node_index", "_global_index", "_seq", "_version",
        "_window_cache", "_peek_cache",
    )

    def __init__(self):
        self._queue: list[EventHandle] = []
        self._node_index: dict[int, list[EventHandle]] = {}
        self._global_index: list[EventHandle] = []
        self._seq = 0
        self._version = 0
        self._window_cache: dict[int, tuple] = {}
        self._peek_cache: Optional[tuple] = None

    @property
    def live(self) -> int:
        """Live events (recounted; this engine keeps no tally)."""
        return sum(1 for handle in self._queue if not handle.cancelled)

    def schedule_at(
        self,
        time: int,
        fn: Callable[..., Any],
        args: tuple = (),
        node: Optional[int] = None,
        survives_crash: bool = False,
    ) -> EventHandle:
        """Insert ``fn(*args)`` at absolute time ``time`` (heap path)."""
        self._seq += 1
        self._version += 1
        handle = HeapHandle(
            time, self._seq, fn, args, node=node,
            survives_crash=survives_crash, owner=self,
        )
        #: True once the main queue popped this handle for execution.
        handle.consumed = False
        heapq.heappush(self._queue, handle)
        if node is None:
            heapq.heappush(self._global_index, handle)
        else:
            heapq.heappush(self._node_index.setdefault(node, []), handle)
        return handle

    def pop_next(self) -> Optional[EventHandle]:
        """Remove and return the next live handle (heap path)."""
        queue = self._queue
        while queue:
            handle = heapq.heappop(queue)
            if handle.cancelled:
                continue
            handle.consumed = True
            # Same cache-invalidation contract as EventCore.pop_next.
            self._version += 1
            return handle
        return None

    def cancel_node_events(self, node: int) -> int:
        """Cancel every pending event tagged with ``node`` (compaction
        is considered on this bulk path only)."""
        heap = self._node_index.get(node)
        if not heap:
            return 0
        cancelled = 0
        live = 0
        for handle in heap:
            if handle.cancelled or handle.consumed:
                continue
            if handle.survives_crash:
                live += 1
            else:
                handle.cancel()
                cancelled += 1
        if live == 0:
            self._node_index.pop(node, None)
        elif live * 2 < len(heap):
            kept = [handle for handle in heap
                    if not (handle.cancelled or handle.consumed)]
            heapq.heapify(kept)
            self._node_index[node] = kept
        return cancelled

    @staticmethod
    def _peek_heap(queue: list[EventHandle]) -> int:
        while queue and (queue[0].cancelled or queue[0].consumed):
            heapq.heappop(queue)
        return queue[0].time if queue else FOREVER

    def peek_next_time(self, boundary: Optional[int] = None) -> int:
        """Time of the next live event, capped at ``boundary``."""
        cache = self._peek_cache
        if (cache is not None and cache[0] == self._version
                and cache[1] == boundary):
            return cache[2]
        top = self._peek_heap(self._queue)
        if boundary is not None:
            top = min(top, boundary)
        self._peek_cache = (self._version, boundary, top)
        return top

    def window_for(
        self, node: int, lookahead: int, boundary: Optional[int] = None
    ) -> int:
        """Execution window for ``node`` (heap path, memoized)."""
        key = (self._version, lookahead, boundary)
        cached = self._window_cache.get(node)
        if cached is not None and cached[0] == key:
            return cached[1]
        own = self._peek_heap(self._node_index.get(node, []))
        global_next = self._peek_heap(self._global_index)
        any_next = self._peek_heap(self._queue)
        window = min(own, global_next)
        if any_next < FOREVER:
            window = min(window, any_next + lookahead)
        if boundary is not None:
            window = min(window, boundary)
        self._window_cache[node] = (key, window)
        return window

    def iter_handles(self) -> Iterator[EventHandle]:
        """Every handle still stored in the main queue."""
        return iter(self._queue)

    def node_handles(self, node: int) -> list:
        """Handles in one node's index heap."""
        return list(self._node_index.get(node, []))

    def has_node_index(self, node: int) -> bool:
        """Whether an index heap exists for ``node``."""
        return node in self._node_index

    def stored_count(self) -> int:
        """Entries held by the main queue, tombstones included."""
        return len(self._queue)

    def clear(self) -> None:
        """Cancel and drop every event."""
        for handle in self._queue:
            if not handle.cancelled:
                handle.cancelled = True
                handle.owner = None
                handle.fn = _nothing
                handle.args = ()
        self._queue.clear()
        self._node_index.clear()
        self._global_index.clear()
        self._window_cache.clear()
        self._peek_cache = None
        self._version += 1

    def __repr__(self) -> str:
        return f"<HeapEventCore stored={len(self._queue)} seq={self._seq}>"
