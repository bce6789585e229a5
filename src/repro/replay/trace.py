"""Versioned traces of a recorded run.

A trace carries four kinds of records, stored on disk in the binary
container of :mod:`repro.replay.format` (:meth:`Trace.save` /
:meth:`Trace.load`):

* a **header** — trace version, the cluster recipe (seed, node names,
  topology, clock skews, full ``Params``), the serialized ``FaultPlan``,
  the checkpoint cadence, and caller metadata.  Everything a replayer needs
  to rebuild an identical cluster;
* the **events**, one per materialized obs event, held in memory as on
  disk: a column store (:class:`EventColumns`) of header columns plus,
  per event type, one column per cell of its rows of scalars
  (:func:`~repro.obs.recorder.encode_row`: packet ids rebased to
  first-seen order, processes reduced to pid/name), int columns packed
  as arrays of the narrowest of 1, 2, 4 or 8 bytes a cell; a row, the
  ``fields`` dict and the text ``line`` are built on access;
* interleaved **checkpoint** lines (see :mod:`repro.replay.checkpoint`);
* a **footer** — final virtual time, event count, stream fingerprint,
  and how the run was driven (``until=T`` / drained / manual), which is
  what tells a replayer how far to run; the fingerprint is taken when first read.

Checkpoints are captured *inside the bus subscriber* when an event
crosses the cadence boundary — never via self-rescheduled world events,
which would keep the queue from draining and perturb the conservative
execution windows.  Capture is restricted to network/RPC events
(``SAFE_CHECKPOINT_EVENTS``): those are emitted from steady states where
the live tables and the event fold agree exactly (a reboot, by contrast,
emits its process events while the node is half-rebuilt).
"""

from __future__ import annotations

import gc
import re
from array import array
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import compress, count, islice, repeat
from operator import eq
from typing import TYPE_CHECKING, Optional

from repro.obs import events as ev
from repro.obs.recorder import (
    PayloadNormalizer,
    _all_event_types,
    encode_row,
    flatten_fields,
    payload_field_names,
    render_line,
    row_fields,
    row_layout,
    stream_fingerprint,
)
from repro.replay.checkpoint import (
    _COUNT_KEYS,
    Checkpoint,
    StateView,
    add_counts,
    capture_state,
    capture_view,
    share_unchanged,
)

if TYPE_CHECKING:
    from repro.cluster import Cluster
    from repro.faults.plan import FaultPlan

#: Version 3: a checkpoint's ``view.time`` is the running maximum of the
#: event times before it (what a fold reads there), not its own ``time``.
TRACE_VERSION = 3

#: Events per block: a file's (the last one shorter), and the most a
#: recording stages before it settles them into its columns.
_BLOCK_EVENTS = 4096

#: How :meth:`EventColumns.indices` finds the events it marks.
_MARK = re.compile(b"\x01")
_MATCH_START = re.Match.start

#: Event types a checkpoint may be captured on (see module docstring).
SAFE_CHECKPOINT_EVENTS = frozenset({
    "PacketSent",
    "PacketDelivered",
    "PacketDropped",
    "PacketNacked",
    "RpcCallStarted",
    "RpcCallCompleted",
    "RpcCallFailed",
    "RpcCallRetried",
})


#: The typecodes an all-``int`` column is held in, narrowest first, each
#: with the bound its cells stay within: ``-bound <= cell < bound``.
INT_WIDTHS = (("b", 1 << 7), ("h", 1 << 15), ("i", 1 << 31), ("q", 1 << 63))


def slot_typecode(sizes: list) -> str:
    """The narrowest typecode holding every slot of types ``sizes`` events long."""
    return next(code for code, bound in INT_WIDTHS if max(sizes) <= bound)


def pack_column(cells) -> "array | list":
    """``cells`` as a column holds them: when every one is an ``int`` (not
    a ``bool``) in the int64 range, an array of the narrowest typecode of
    :data:`INT_WIDTHS` that holds them all, else a list.  An array comes
    back as it is unless a narrower typecode holds it (the writer packs a
    block's slice of a held column); the first cell rules most other
    columns out before anything is built."""
    if type(cells) is array:
        if cells.itemsize == 1 or not cells:
            return cells
        low, high = min(cells), max(cells)
        code = next(code for code, bound in INT_WIDTHS if -bound <= low and high < bound)
        return cells if code == cells.typecode else array(code, cells)
    if cells and type(cells[0]) is not int:
        return list(cells)
    # Widths are tried narrowest first: one too narrow fails at its first
    # cell out of range, so most columns cost a pass or two.
    for code, _ in INT_WIDTHS:
        try:
            packed = array(code, cells)
        except OverflowError:
            continue
        except TypeError:  # an int beside a None or a str
            break
        if set(map(type, cells)) <= {int}:
            return packed
        break
    return list(cells)


def grow_column(column, more):
    """``column`` extended by ``more`` (``more`` itself when ``column`` is
    empty): an array while both are arrays, as wide as the wider of the
    two, else a list."""
    if not column:
        return more
    if type(column) is array:
        if type(more) is not array:
            column = column.tolist()
        elif more.itemsize > column.itemsize:
            # A thousand cells at a time through a list: ``array(code,
            # column)`` reads them one by one through the generic iterator
            # (about 1.5x slower), and one list of them all would hold
            # ~36 B a cell at once, which raises a recording's peak.
            wide = array(more.typecode)
            for start in range(0, len(column), 1024):
                wide.fromlist(column[start:start + 1024].tolist())
            column = wide
        elif more.itemsize < column.itemsize:
            more = array(column.typecode, more)
    column.extend(more)
    return column


@dataclass(slots=True)
class TraceEvent:
    """One recorded obs event, as a view: header cells, payload field
    ``names`` and row.  An :class:`EventColumns` builds one on access,
    :meth:`of` by hand."""

    index: int
    type: str
    time: int
    node: Optional[int]
    seq: int
    names: tuple
    row: tuple

    @classmethod
    def of(cls, index, type, time, node, seq, fields: dict) -> "TraceEvent":
        """An event from its structured payload dict."""
        return cls(index, type, time, node, seq, *flatten_fields(fields))

    @property
    def fields(self) -> dict:
        """The structured payload (built per access)."""
        return row_fields(self.names, self.row)

    @property
    def line(self) -> str:
        """The normalized text line (rendered per access)."""
        return render_line(self.type, self.time, self.node, self.seq,
                           self.names, self.row)

    def to_dict(self) -> dict:
        """Serialize as one JSON record (wire protocol, JSONL export)."""
        return {
            "kind": "event",
            "i": self.index,
            "type": self.type,
            "t": self.time,
            "node": self.node,
            "seq": self.seq,
            "fields": self.fields,
            "line": self.line,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceEvent":
        """Rebuild from :meth:`to_dict` output (its ``line`` is not read)."""
        return cls.of(data["i"], data["type"], data["t"], data["node"],
                      data["seq"], data["fields"])

    def __repr__(self) -> str:
        return f"<TraceEvent #{self.index} {self.type} t={self.time}>"


class EventColumns(Sequence):
    """A trace's events as the file stores them, column by column.

    Per event: its type id (``kinds``, one byte; ``names`` / ``ids``
    translate), ``times`` / ``nodes`` / ``seqs``, and ``slots``, its
    index within its type's columns (an array as wide as the largest
    ``sizes`` needs, :func:`slot_typecode`).  Per type id, fixed for the whole
    trace: its payload field names (``schema``) and each name's first
    cell in a row (``places``); and ``cells``, one column per row cell,
    ``sizes[id]`` cells long.  A column whose every cell is an ``int``
    in the int64 range is an array of the narrowest of ``'b'``, ``'h'``,
    ``'i'`` and ``'q'`` that holds them all, as the file packs it
    (``times`` and ``seqs`` too; :func:`pack_column` picks the width as
    a block settles, a loaded block's comes from the file, and
    :func:`grow_column` widens what is held when a later block needs
    more); any other is a list (``()`` until the type has an event).

    A run's :class:`EventStream` stages at most one block: times and
    seqs in lists (an int appended to an array costs 7 times as much),
    rows per type in ``staged``; :meth:`settle` packs them onto the
    columns every ``_BLOCK_EVENTS`` events and before any read.  Indexing,
    slicing and iterating hand out :class:`TraceEvent` views, their rows
    built on the spot; code that walks a whole trace reads the columns.
    """

    __slots__ = ("names", "ids", "schema", "places", "kinds", "slots", "times",
                 "nodes", "seqs", "cells", "sizes", "staged", "staged_times",
                 "staged_seqs")

    def __init__(self, events=()):
        events = list(events)
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.schema: list[tuple] = []
        self.places: list[dict[str, int]] = []
        self.cells: list[list] = []
        self.sizes: list[int] = []
        self.staged: list[list[tuple]] = []
        for position, event in enumerate(events):
            if event.index != position:
                raise ValueError(f"event index {event.index} at position "
                                 f"{position}: not its position in the trace")
            self.staged[self.declare(event.type, event.names)].append(event.row)
        self.kinds = bytearray(self.ids[event.type] for event in events)
        self.slots = array("b")
        self.times, self.seqs = [], []
        self.staged_times, self.nodes, self.staged_seqs = (
            [getattr(event, cell) for event in events] for cell in ("time", "node", "seq"))
        self.settle()

    def declare(self, kind: str, names: tuple) -> int:
        """Record (or re-check) the payload field names of ``kind`` rows;
        return its type id."""
        code = self.ids.get(kind)
        if code is not None:
            if self.schema[code] != names:
                raise ValueError(f"{kind} rows are {list(self.schema[code])} in "
                                 f"this trace, not {list(names)}")
            return code
        if len(self.names) == 256:
            raise ValueError(f"{kind} would be a trace's 257th event type")
        code = self.ids[kind] = len(self.names)
        places, width = row_layout(names)
        self.names.append(kind)
        self.schema.append(names)
        self.places.append(places)
        self.cells.append([()] * width)
        self.sizes.append(0)
        self.staged.append([])
        return code

    def settle(self) -> None:
        """Pack the staged times and seqs onto ``times`` / ``seqs``,
        transpose the staged rows onto the columns and number their
        events within their types (a no-op when none are staged)."""
        if len(self.slots) == len(self.kinds):
            return
        # Transposing allocates a few containers per column and no
        # cycles, yet a collection it set off would walk the whole live
        # run (a recording settles while its cluster runs): pause the
        # collector, as ``read_binary`` does for a load.
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.times = grow_column(self.times, pack_column(self.staged_times))
            self.seqs = grow_column(self.seqs, pack_column(self.staged_seqs))
            self.staged_times, self.staged_seqs = [], []
            feeds = []
            for code, rows in enumerate(self.staged):
                feeds.append(count(self.sizes[code]))
                if not rows:
                    continue
                columns = self.cells[code]
                if set(map(len, rows)) != {len(columns)}:
                    raise ValueError(f"a {self.names[code]} row is not one cell per "
                                     f"cell of its fields")
                chunks = map(pack_column, zip(*rows))
                columns[:] = map(grow_column, columns, chunks) if self.sizes[code] else chunks
                self.sizes[code] += len(rows)
                rows.clear()
            slots = map(next, map(feeds.__getitem__, self.kinds[len(self.slots):]))
            self.slots = grow_column(self.slots, array(slot_typecode(self.sizes), slots))
        finally:
            if collecting:
                gc.enable()

    def rows(self):
        """Every event's row in trace order, built as iterated: each
        type's columns zipped, dealt out by the events' type ids."""
        self.settle()
        feeds = [zip(*columns) if columns else repeat(()) for columns in self.cells]
        return map(next, map(feeds.__getitem__, self.kinds))

    def columns(self) -> tuple:
        """What ``render_line`` takes per event, as parallel iterables."""
        self.settle()
        return (map(self.names.__getitem__, self.kinds), self.times, self.nodes,
                self.seqs, map(self.schema.__getitem__, self.kinds), self.rows())

    def indices(self, kinds, start: int = 0, stop: Optional[int] = None) -> list[int]:
        """The indices in ``[start, stop)`` of the events whose type is
        named in ``kinds``, ascending: one translate marks them, one
        search finds each mark, so the cost is per event found (the
        contract filters read types of density 0 to 1/8, where a
        ``compress`` over every index costs 2 to 30 times more)."""
        stop = len(self.kinds) if stop is None else stop
        mask = bytearray(256)
        for kind in kinds:
            if kind in self.ids:
                mask[self.ids[kind]] = 1
        return list(map(_MATCH_START, _MARK.finditer(self.kinds.translate(mask), start, stop)))

    def tally(self) -> dict[str, int]:
        """Events per type, for every type the trace holds."""
        seen = map(self.kinds.count, range(len(self.names)))
        return {kind: count for kind, count in zip(self.names, seen) if count}

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, index):
        if type(index) is slice:
            return [self[at] for at in range(*index.indices(len(self.kinds)))]
        code = self.kinds[index]
        at = index if index >= 0 else index + len(self.kinds)
        try:
            slot = self.slots[at]
        except IndexError:  # staged, not yet settled
            self.settle()
            slot = self.slots[at]
        return TraceEvent(at, self.names[code], self.times[at], self.nodes[at], self.seqs[at],
                          self.schema[code], tuple([column[slot] for column in self.cells[code]]))

    def __iter__(self):
        return map(TraceEvent, count(), *self.columns())

    def __eq__(self, other) -> bool:
        if isinstance(other, (EventColumns, list)):
            return list(self) == list(other)
        return NotImplemented

    def where(self, name: str, value) -> list[TraceEvent]:
        """The events whose field ``name`` (a flattened object's first
        cell: a packet's id) is ``value``, in trace order."""
        self.settle()
        found = []
        for kind, places, columns in zip(self.names, self.places, self.cells):
            if name in places:
                hits = compress(count(), map(eq, columns[places[name]], repeat(value)))
                found += map(self.indices([kind]).__getitem__, hits)
        return [self[index] for index in sorted(found)]

    def lines(self):
        """Every event's normalized line, rendered as iterated."""
        return map(render_line, *self.columns())

    def first_difference(self, other: "EventColumns", upto: Optional[int] = None):
        """The first index below ``upto`` (default: the longer length) at
        which the two streams' lines differ or one has run out, if any.
        Cells are compared (``==``: ``1`` passes for ``True``) and only a
        pair whose cells differ is rendered, to tell if its lines do."""
        stop = max(len(self), len(other)) if upto is None else upto
        shared = min(len(self), len(other), stop)
        pairs = zip(zip(*self.columns()), zip(*other.columns()))
        for index, (mine, theirs) in enumerate(islice(pairs, shared)):
            if mine != theirs and render_line(*mine) != render_line(*theirs):
                return index
        return shared if shared < stop else None


class Trace:
    """A fully recorded run: header, events, checkpoints, footer."""

    def __init__(
        self,
        header: dict,
        events,
        checkpoints: list[Checkpoint],
        footer: dict,
    ):
        self.header = header
        #: An :class:`EventColumns`; a list of ``TraceEvent`` is laid out as one.
        self.events = events if isinstance(events, EventColumns) else EventColumns(events)
        self.checkpoints = checkpoints
        self._footer = footer
        self._digest_pending = False
        #: Per event contract, the violations its full fold recorded
        #: (:func:`repro.contracts.offline.trace_folds`).
        self.folded: dict = {}
        #: A :class:`repro.kernel.profile.ProfileHook` when the run was
        #: recorded under ``REPRO_PROFILE=1``; :meth:`save` drops its
        #: stats next to the trace file.
        self.profile = None

    # -- derived accessors ---------------------------------------------

    @property
    def seed(self) -> int:
        """The recorded run's world seed."""
        return self.header["seed"]

    @property
    def topology(self) -> str:
        """The recorded run's transport fabric (pre-``repro.net`` traces
        carry no topology key and were all recorded on the ring)."""
        return self.header.get("topology", "ring")

    @property
    def footer(self) -> dict:
        """Final time, event count, fingerprint and drive.  A trace sealed by
        :meth:`TraceWriter.finish` (its columns not mutated since) takes its
        fingerprint on this first read; any other's is as given."""
        if self._digest_pending:
            self._digest_pending = False
            self._footer["fingerprint"] = self.fingerprint()
        return self._footer

    @property
    def final_time(self) -> int:
        """Virtual time when the recording was sealed."""
        return self._footer["final_time"]

    @property
    def drive(self) -> dict:
        """How the recorded run was driven (``manual`` when unrecorded)."""
        return self._footer.get("drive") or {"mode": "manual"}

    def max_times(self) -> array:
        """The clock a fold reads at each cursor ``0 .. n``: the base
        view's time, then the running maximum of the event times, as an
        ``array('q')``.  Event times are not monotone across nodes (a node
        runs ahead inside its window); their running maximum is."""
        high = self.checkpoints[0].view.time if self.checkpoints else 0
        highs, times = array("q", [high]), self.events.times
        # Packed a block at a time, and by a loop, not ``accumulate(times,
        # max)``: a call of ``max`` per event costs twice the loop.
        for start in range(0, len(times), _BLOCK_EVENTS):
            block = []
            for time in times[start:start + _BLOCK_EVENTS]:
                if time > high:
                    high = time
                block.append(high)
            highs.fromlist(block)
        return highs

    def prefix_before(self, time: int) -> int:
        """How many leading events a run whose recipe differs from this
        recording only from virtual time ``time`` on reproduces
        (:func:`prefix_before` over :meth:`max_times`)."""
        return prefix_before(self.max_times(), time)

    def checkpoint(self, index: int) -> Checkpoint:
        """Checkpoint ``index``, counted from the first; any other index
        (negative included) raises :class:`IndexError` naming the range."""
        if not 0 <= index < len(self.checkpoints):
            raise IndexError(
                f"checkpoint {index} out of range (trace has "
                f"{len(self.checkpoints)} checkpoints: 0..{len(self.checkpoints) - 1})")
        return self.checkpoints[index]

    def base_view(self) -> StateView:
        """The state at recording start (checkpoint #0, always present:
        agents spawned before the writer attached are invisible to the
        event stream, so folds must start here, not from empty)."""
        return self.checkpoints[0].view

    def lines(self) -> list[str]:
        """The normalized stream, one line per recorded event."""
        return list(self.events.lines())

    def fingerprint(self) -> str:
        """Digest of the normalized stream (recomputed, not the footer's)."""
        return stream_fingerprint(self.events.lines())

    def __len__(self) -> int:
        return len(self.events)

    @property
    def n_events(self) -> int:
        """Event count (wire-friendly mirror of ``len(trace.events)``)."""
        return len(self.events)

    @property
    def n_checkpoints(self) -> int:
        """Checkpoint count (wire-friendly mirror)."""
        return len(self.checkpoints)

    # -- persistence ----------------------------------------------------

    def save(self, path) -> None:
        """Write the trace to ``path`` in the binary container
        (:func:`repro.replay.format.write_binary`)."""
        from repro.replay.format import write_binary
        write_binary(self, path)
        if self.profile is not None:
            self.profile.dump_next_to(path)

    @classmethod
    def load(cls, path) -> "Trace":
        """Load and validate a trace previously written by :meth:`save`
        (:func:`repro.replay.format.read_binary`); anything else raises
        :class:`~repro.replay.format.TraceFormatError`."""
        from repro.replay.format import read_binary
        return read_binary(path)

    def __repr__(self) -> str:
        return (
            f"<Trace seed={self.header.get('seed')} events={len(self.events)} "
            f"checkpoints={len(self.checkpoints)}>"
        )


def prefix_before(highs: list[int], time: int) -> int:
    """The one prefix rule: the number ``k`` of events whose running
    maximum time (``highs``, as :meth:`Trace.max_times` builds it) is
    below ``time``.  A run that differs from a recording only from
    ``time`` on reproduces its events ``[0, k)``, up to where its own
    ``k`` falls short; a fork, a bounded replay and ``at(time - 1)`` all
    cut there."""
    return max(0, bisect_left(highs, time) - 1)


class EventStream:
    """A bus's recorded event types, each written into :attr:`events` as
    it is emitted: four header cells and one
    :func:`~repro.obs.recorder.encode_row` through the stream's one
    :class:`~repro.obs.recorder.PayloadNormalizer` (packet ids rebased in
    first-seen order), with at most one block staged: the stream settles
    its columns every ``_BLOCK_EVENTS`` events, so a bare-bus stream and
    a recording without checkpoints are bounded alike.  No live event
    outlives its delivery.

    One stream per run: a :class:`TraceWriter` is one, and a
    :class:`~repro.contracts.online.ContractMonitor` folds the writer's
    or, over a bare bus, a stream of its own.
    """

    def __init__(self, bus):
        self.bus = bus
        self.events = EventColumns()
        self._normalizer = PayloadNormalizer()
        self._watch = float("inf")  # a writer's: events from this time go to ``_crossed``
        self._types = _all_event_types()
        self._codes = {}
        for event_type in self._types:
            self._codes[event_type] = self.events.declare(
                event_type.__name__, payload_field_names(event_type))
            bus.subscribe(event_type, self._on_event)

    def _on_event(self, event: ev.Event) -> None:
        events = self.events
        code = self._codes[type(event)]
        times = events.staged_times
        events.kinds.append(code)
        times.append(event[0])
        events.nodes.append(event[1])
        events.staged_seqs.append(event[2])
        events.staged[code].append(encode_row(event, self._normalizer))
        if len(times) >= _BLOCK_EVENTS:
            events.settle()
        if event[0] >= self._watch:
            self._crossed(event)

    def detach(self) -> None:
        """Stop observing the bus."""
        for event_type in self._types:
            self.bus.unsubscribe(event_type, self._on_event)


class TraceWriter(EventStream):
    """Record a cluster's obs stream (plus checkpoints) into a trace.

    Attach *before* driving the run; recording is itself observable
    (subscribing materializes otherwise-dormant event types), so a
    replayer attaches its own writer to reproduce the same stream.
    """

    def __init__(
        self,
        cluster: "Cluster",
        plan: Optional["FaultPlan"] = None,
        checkpoint_every: Optional[int] = None,
        meta: Optional[dict] = None,
    ):
        super().__init__(cluster.world.bus)
        self.cluster = cluster
        # Not ``asdict`` (a deep-copy walk): ``extras`` is the one dict.
        params = {f.name: getattr(cluster.params, f.name)
                  for f in fields(cluster.params)}
        params["extras"] = dict(params["extras"])
        self.header = {
            "version": TRACE_VERSION,
            "seed": cluster.seed,
            "names": list(cluster.names),
            "topology": cluster.topology,
            "clock_skews": list(cluster.clock_skews),
            "params": params,
            "fault_plan": plan.to_dict() if plan is not None else None,
            "checkpoint_every": checkpoint_every,
            "meta": meta or {},
        }
        self.checkpoints: list[Checkpoint] = []
        self._finished = False
        #: ``(name, priority) -> {name, priority}`` over every checkpoint.
        self._shared: dict = {}
        self._count_codes = tuple(map(self.events.ids.__getitem__, _COUNT_KEYS))
        self._checkpoint_every = checkpoint_every
        if checkpoint_every is not None:
            self._next_checkpoint_at = self._watch = cluster.world.now + checkpoint_every
        # Checkpoint #0: the state at attach.  Pre-attach history (the
        # agents' ProcessCreated, boot-time setup) rode the dormant path
        # and is not in the stream; every fold starts from this base.
        self._capture_checkpoint(cluster.world.now)

    # ------------------------------------------------------------------

    def _capture_checkpoint(self, time: int) -> None:
        view = capture_view(self.cluster, time, self._shared)
        if self.checkpoints:  # the last one's counts plus what was recorded since
            last = self.checkpoints[-1]
            view.counts = last.view.counts.copy()
            add_counts(view.counts, self.events.kinds, self._count_codes, last.index,
                       len(self.events))
        self.checkpoints.append(Checkpoint(
            index=len(self.events),
            time=time,
            state=capture_state(self.cluster),
            view=share_unchanged(view, self.checkpoints),
        ))

    def _crossed(self, event: ev.Event) -> None:
        """An event at or past the watched time: once one has crossed the
        cadence boundary, the next safe event (of any time) captures."""
        if type(event).__name__ not in SAFE_CHECKPOINT_EVENTS:
            self._watch = 0  # pending: every later event is handed on
            return
        time = event[0]
        while self._next_checkpoint_at <= time:
            self._next_checkpoint_at += self._checkpoint_every
        self._watch = self._next_checkpoint_at
        self._capture_checkpoint(time)

    # ------------------------------------------------------------------

    def finish(self, drive: Optional[dict] = None) -> Trace:
        """Stop recording and seal the trace.

        ``drive`` records how the run was driven so a replayer can drive
        identically: ``{"mode": "until", "until": T}``, ``{"mode":
        "drain"}``, or ``{"mode": "manual"}`` (interactive sessions,
        which support time travel but not re-execution).  Sealing renders
        nothing (:attr:`Trace.footer` digests the columns on its first
        read), so the trace's columns are not to be mutated.
        """
        if self._finished:
            raise RuntimeError("TraceWriter.finish() called twice")
        self._finished = True
        self.detach()
        self.events.settle()
        footer = {
            "final_time": self.cluster.world.now,
            "events": len(self.events),
            "drive": drive or {"mode": "manual"},
        }
        trace = Trace(self.header, self.events, self.checkpoints, footer)
        trace._digest_pending = True
        # A checkpoint's view is what a fold reads at its index: its clock
        # is the running maximum of the event times before it, not its own.
        highs = trace.max_times()
        for checkpoint in self.checkpoints:
            checkpoint.view.time = highs[checkpoint.index]
        return trace

    def __repr__(self) -> str:
        return (
            f"<TraceWriter events={len(self.events)} "
            f"checkpoints={len(self.checkpoints)}>"
        )
