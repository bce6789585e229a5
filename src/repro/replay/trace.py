"""Versioned traces of a recorded run.

A trace carries four kinds of records, stored on disk in the binary
container of :mod:`repro.replay.format` (:meth:`Trace.save` /
:meth:`Trace.load`):

* a **header** — trace version, the cluster recipe (seed, node names,
  topology, clock skews, full ``Params``), the serialized ``FaultPlan``,
  the checkpoint cadence, and caller metadata.  Everything a replayer needs
  to rebuild an identical cluster;
* the **events**, one per materialized obs event, held in memory as on
  disk: a column store (:class:`EventColumns`) of header columns plus
  one row of scalars per event (:func:`~repro.obs.recorder.encode_row`:
  packet ids rebased to first-seen order, processes reduced to pid/name);
  the ``fields`` dict and the text ``line`` are derived on access;
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

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import accumulate, count, islice
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
    Checkpoint,
    StateView,
    capture_state,
    capture_view,
    metric_counts,
)

if TYPE_CHECKING:
    from repro.cluster import Cluster
    from repro.faults.plan import FaultPlan

#: Version 3: a checkpoint's ``view.time`` is the running maximum of the
#: event times before it (what a fold reads there), not its own ``time``.
TRACE_VERSION = 3

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
    """A trace's events as parallel columns: ``types`` / ``times`` /
    ``nodes`` / ``seqs``, one ``rows`` tuple of scalars per event, and per
    type (fixed for the whole trace) the payload field names its rows
    encode (``schema``) and each name's first cell (``positions``).

    Indexing, slicing and iterating hand out :class:`TraceEvent` views
    built on the spot; code that walks a whole trace reads the columns.
    """

    __slots__ = ("types", "times", "nodes", "seqs", "rows", "schema", "positions")

    def __init__(self, events=()):
        events = list(events)
        self.schema: dict[str, tuple] = {}
        self.positions: dict[str, dict[str, int]] = {}
        for position, event in enumerate(events):
            if event.index != position:
                raise ValueError(f"event index {event.index} at position "
                                 f"{position}: not its position in the trace")
            self.declare(event.type, event.names)
        self.types, self.times, self.nodes, self.seqs, self.rows = (
            [getattr(event, cell) for event in events]
            for cell in ("type", "time", "node", "seq", "row"))

    def declare(self, kind: str, names: tuple) -> tuple:
        """Record (or re-check) the payload field names of ``kind`` rows."""
        known = self.schema.setdefault(kind, names)
        if known != names:
            raise ValueError(f"{kind} rows are {list(known)} in this trace, not {list(names)}")
        self.positions[kind] = row_layout(names)[0]
        return known

    def columns(self) -> tuple:
        """What ``render_line`` takes per event, as parallel iterables."""
        return (self.types, self.times, self.nodes, self.seqs,
                map(self.schema.__getitem__, self.types), self.rows)

    def __len__(self) -> int:
        return len(self.types)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[at] for at in range(*index.indices(len(self.types)))]
        kind = self.types[index]
        at = index if index >= 0 else index + len(self.types)
        return TraceEvent(at, kind, self.times[at], self.nodes[at],
                          self.seqs[at], self.schema[kind], self.rows[at])

    def __iter__(self):
        return map(TraceEvent, count(), *self.columns())

    def __eq__(self, other) -> bool:
        if isinstance(other, (EventColumns, list)):
            return list(self) == list(other)
        return NotImplemented

    def where(self, name: str, value) -> list[TraceEvent]:
        """The events whose field ``name`` (a flattened object's first
        cell: a packet's id) is ``value``, in trace order."""
        at = {kind: places[name] for kind, places in self.positions.items() if name in places}
        return [self[index] for index, kind in enumerate(self.types)
                if kind in at and self.rows[index][at[kind]] == value]

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

    def max_times(self) -> list[int]:
        """The clock a fold reads at each cursor ``0 .. n``: the base
        view's time, then the running maximum of the event times.  Event
        times are not monotone across nodes (a node runs ahead inside its
        window); their running maximum is."""
        start = self.checkpoints[0].view.time if self.checkpoints else 0
        return list(accumulate(self.events.times, max, initial=start))

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
    first-seen order).  No live event outlives its delivery.

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
        for event_type in self._types:
            self.events.declare(event_type.__name__, payload_field_names(event_type))
            bus.subscribe(event_type, self._on_event)

    def _on_event(self, event: ev.Event) -> None:
        events = self.events
        events.types.append(type(event).__name__)
        events.times.append(event[0])
        events.nodes.append(event[1])
        events.seqs.append(event[2])
        events.rows.append(encode_row(event, self._normalizer))
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
        #: Metric values at attach; view counts are deltas against this,
        #: so fold-derived counts (which only see post-attach events)
        #: line up with live captures.
        self._base_counts = metric_counts(cluster.world.metrics)
        self._checkpoint_every = checkpoint_every
        if checkpoint_every is not None:
            self._next_checkpoint_at = self._watch = cluster.world.now + checkpoint_every
        # Checkpoint #0: the state at attach.  Pre-attach history (the
        # agents' ProcessCreated, boot-time setup) rode the dormant path
        # and is not in the stream; every fold starts from this base.
        self._capture_checkpoint(cluster.world.now)

    # ------------------------------------------------------------------

    def _capture_checkpoint(self, time: int) -> None:
        self.checkpoints.append(Checkpoint(
            index=len(self.events),
            time=time,
            state=capture_state(self.cluster),
            view=capture_view(self.cluster, self._base_counts, time),
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
