"""Time-travel queries over a recorded trace.

The cursor model: a :class:`TimeTravel` session sits *between* events of
the trace; position ``k`` means events ``[0, k)`` have happened.  Every
query moves the cursor (at most a bisect) and answers with a
:class:`Moment`: the last applied event plus the
:class:`~repro.replay.checkpoint.StateView` at the cursor, built when
first read.  A view is folded one way, whichever query handed it out:
a copy of the nearest checkpoint at or before its cursor, then only the
events since that change a table; counts and time come off columns
built once (``docs/time-travel.md`` prices each query).

``at(t)`` uses prefix semantics: the cursor lands after the longest
event prefix whose times are all <= t.  Event times are stamped by the
emitting node's local cursor and can be *locally* non-monotonic across
nodes; the prefix rule (:func:`~repro.replay.trace.prefix_before`, over
the running maximum of event times, which is monotone) keeps the answer
deterministic, makes checkpoint-assisted seeks equal to full folds by
construction, and is the same cut a fork and a bounded replay make.

Causality is the classic Lamport happens-before over the trace: program
order per node, plus a cross-node edge from each ``PacketSent`` to the
``PacketDelivered`` with the same (rebased) packet id — the only way
information crosses nodes in this system.
"""

from __future__ import annotations

import bisect
from itertools import chain, compress, repeat
from typing import Optional

from repro.debugger.errors import DebuggerError
from repro.replay.checkpoint import _COUNT_KEYS, _TABLE_FOLDS, StateView, add_counts, empty_view
from repro.replay.trace import Trace, TraceEvent, prefix_before

#: Events the halt-cause scan recognizes as "why" candidates.
_CAUSE_TYPES = ("BreakpointHit", "ProcessFailed")

#: The byte ``TimeTravel._kinds`` holds per event: a code for each type
#: a query counts or searches for, 0 for the rest.
_CODES = {kind: code for code, kind in enumerate(
    sorted({*_COUNT_KEYS, *_TABLE_FOLDS, *_CAUSE_TYPES}), start=1)}
_COUNT_CODES = tuple(map(_CODES.__getitem__, _COUNT_KEYS))
#: ``bytes.translate`` table: 1 for the kind codes of table events.
_TABLE_MASK = bytes(code in {_CODES[kind] for kind in _TABLE_FOLDS}
                    for code in range(256))


class Moment:
    """The state of the run at one cursor position.

    Handed out by a :class:`TimeTravel`, it builds ``event`` and folds
    ``view`` each the first time it is read, at ``index`` however far the
    cursor has moved since, and drops the session with the fold.
    Read it on its session's thread, or copy it there first: a copy or a
    pickle builds both and carries the four fields only."""

    __slots__ = ("index", "time", "_event", "_view", "_travel")

    def __init__(self, index: int, time: int, view: Optional[StateView],
                 event: Optional[TraceEvent]):
        self.index, self.time, self._view, self._event = index, time, view, event
        self._travel: Optional[TimeTravel] = None

    @property
    def event(self) -> Optional[TraceEvent]:
        """The event that brought the run here (None at the very start)."""
        if self._event is None and self.index and self._travel is not None:
            self._event = self._travel.events[self.index - 1]
        return self._event

    @property
    def view(self) -> StateView:
        """The folded state of the run at ``index``."""
        if self._travel is not None:
            self.event  # built now: the session is dropped with the fold
            self._view, self._travel = self._travel._view_at(self.index), None
        return self._view

    def __eq__(self, other) -> bool:
        return isinstance(other, Moment) and self.__reduce__() == other.__reduce__()

    def __reduce__(self):
        return Moment, (self.index, self.time, self.view, self.event)

    def __repr__(self) -> str:
        what = self.event.type if self.event else "start"
        return f"<Moment #{self.index} t={self.time} after {what}>"


class TimeTravel:
    """Cursor-based navigation over one trace."""

    def __init__(self, trace: Trace):
        self.trace = trace
        self.events = trace.events
        if trace.checkpoints:
            self._base = trace.base_view()
        else:
            # A checkpoint-free trace (hand-built in tests): fold from
            # nothing, using the node set the header names imply.
            self._base = empty_view(range(len(trace.header.get("names", []))))
        # Checkpoint indices ascend (``TraceWriter`` produces them so, a
        # loaded trace is checked for it), so a seek's seed is a bisect away.
        self._starts = [checkpoint.index for checkpoint in trace.checkpoints]
        #: What queries read instead of walking events, built off the
        #: trace's own columns.  Per cursor: the running maximum of event
        #: times (monotone, so a prefix cutoff is a bisect).  Per event:
        #: kind code (one translate of the type ids), "is a table event".
        #: Per type id: its table fold, if any.
        self.events.settle()
        names = self.events.names
        self._max_times = trace.max_times()
        self._kinds = bytes(self.events.kinds.translate(
            bytes(map(_CODES.get, names, repeat(0))).ljust(256, b"\0")))
        self._tabled = self._kinds.translate(_TABLE_MASK)
        self._folds = list(map(_TABLE_FOLDS.get, names))
        self.cursor = len(self.events)
        #: The end-of-run contracts' prefix fold, kept to go on.
        self._prefix = None
        #: (previous event on the node, matching PacketSent) per event.
        self._preds: Optional[tuple] = None
        self._stats = dict.fromkeys(
            ("folds", "table_events_folded", "prefix_events_fed",
             "prefix_restarts", "edge_builds"), 0)

    def stats(self) -> dict:
        """Exact work counters: views folded (each on a ``Moment``'s first
        read), table events run for them, the contract fold's events and
        restarts, predecessor-graph builds."""
        return dict(self._stats)

    # ------------------------------------------------------------------
    # Seeking
    # ------------------------------------------------------------------

    def _view_at(self, index: int) -> StateView:
        """Fold the view at cursor ``index`` onto a copy of the latest
        checkpoint at or before it.  Only table events are run, off the
        columns; counts and time come off the columns too."""
        start, seed = 0, self._base
        nearest = bisect.bisect_right(self._starts, index) - 1
        if nearest >= 0:
            start, seed = self._starts[nearest], self.trace.checkpoints[nearest].view
        view = seed.copy()
        events, folds = self.events, self._folds
        kinds, nodes, slots, cells, places = (events.kinds, events.nodes, events.slots,
                                              events.cells, events.places)
        tabled = self._tabled[start:index]
        for position in compress(range(start, index), tabled):
            kind = kinds[position]
            folds[kind](view, str(nodes[position]), cells[kind], slots[position], places[kind])
        # The checkpoint's counts plus the events since.
        add_counts(view.counts, self._kinds, _COUNT_CODES, start, index)
        view.time = self._max_times[index]
        self._stats["folds"] += 1
        self._stats["table_events_folded"] += tabled.count(1)
        return view

    def _moment(self) -> Moment:
        moment = Moment(self.cursor, self._max_times[self.cursor], None, None)
        moment._travel = self
        return moment

    def at(self, t: int) -> Moment:
        """Seek to virtual time ``t``: the longest prefix of events whose
        times are all <= t (virtual time is whole microseconds)."""
        self.cursor = prefix_before(self._max_times, t + 1)
        return self._moment()

    def seek(self, index: int) -> Moment:
        """Seek to an explicit cursor position (0..len(trace))."""
        self.cursor = max(0, min(index, len(self.events)))
        return self._moment()

    def step(self) -> Moment:
        """Apply the next event (no-op at the end of the trace)."""
        self.cursor = min(self.cursor + 1, len(self.events))
        return self._moment()

    def reverse_step(self) -> Moment:
        """Un-apply the last event (no-op at the start of the trace)."""
        self.cursor = max(self.cursor - 1, 0)
        return self._moment()

    def current(self) -> Moment:
        """The moment at the cursor, without moving it."""
        return self._moment()

    # ------------------------------------------------------------------
    # Why-halted
    # ------------------------------------------------------------------

    def first_contract_violation(self, contracts=None):
        """The earliest invariant violation at or before the cursor.

        The earliest violation of ``contracts`` (default: the universal
        safety catalogue) in the event prefix ``[0, cursor)``, or ``None``.
        A contract whose checker has no ``finish()`` of its own answers by
        a bisect in the full fold the trace keeps, which ``check_trace``
        reads (the :class:`~repro.contracts.dsl.BaseChecker` rule); the
        others fold the prefix, kept: a later cursor feeds only the events
        in between, an earlier one (or other contracts) starts it over.
        """
        from repro.contracts.dsl import BaseChecker, CheckerBank, universal_contracts
        from repro.contracts.offline import earliest, trace_folds

        if contracts is None:
            contracts = universal_contracts()
        elif hasattr(contracts, "event_contracts"):
            contracts = contracts.event_contracts()
        contracts = tuple(contracts)
        ended = tuple(c for c in contracts if c.state.finish is not BaseChecker.finish)
        found: dict = {}
        if ended:
            bank = self._prefix
            if bank is None or bank.count > self.cursor or bank.contracts != ended:
                self._stats["prefix_restarts"] += bank is not None
                bank = self._prefix = CheckerBank(ended)
            self._stats["prefix_events_fed"] += bank.feed(self.events, bank.count,
                                                          self.cursor)
            found.update(zip(ended, bank.results()))
        rest = tuple(c for c in contracts if c not in found)
        for contract, folded in zip(rest, trace_folds(self.trace, rest)):
            found[contract] = folded[:bisect.bisect_left(
                folded, self.cursor, key=lambda v: v.index)]
        return earliest(chain.from_iterable(map(found.__getitem__, contracts)))

    def why_halted(self, node: Optional[int] = None) -> dict:
        """Explain the halt state at the cursor.

        Returns ``{"halted": False}`` when nothing (or nothing on
        ``node``) is halted; otherwise the halted pids per node, the
        event that opened the current halt episode, and its cause — the
        nearest preceding ``BreakpointHit`` or ``ProcessFailed`` (the
        agent broadcasts a halt right after either).  Both shapes carry
        ``contract``: the first universal-contract violation in the
        prefix (``None`` when the invariants hold) — the invariant-level
        "why" alongside the event-level one.
        """
        view = self._moment().view
        contract = self.first_contract_violation()
        halted = {
            node_key: pids for node_key, pids in view.halted.items()
            if pids and (node is None or node_key == str(node))
        }
        if not halted:
            return {"halted": False, "contract": contract}
        # The episode opens at the first halt after the last resume.
        kinds = self._kinds
        resumed = kinds.rfind(_CODES["ProcessResumed"], 0, self.cursor)
        opened = kinds.find(_CODES["ProcessHalted"], resumed + 1, self.cursor)
        first_halt = cause = None
        if opened >= 0:
            first_halt = self.events[opened]
            caused = max(kinds.rfind(_CODES[kind], 0, opened)
                         for kind in _CAUSE_TYPES)
            cause = self.events[caused] if caused >= 0 else None
        return {
            "halted": True,
            "nodes": halted,
            "since": first_halt.time if first_halt is not None else None,
            "halt_event": first_halt,
            "cause": cause,
            "contract": contract,
        }

    # ------------------------------------------------------------------
    # Causality (happens-before over the trace)
    # ------------------------------------------------------------------

    def _predecessors(self) -> tuple:
        """The happens-before graph as two columns, built on first use:
        per event, the previous event on its node and (for a delivery)
        the matching ``PacketSent``; -1 where there is none."""
        if self._preds is None:
            self._stats["edge_builds"] += 1
            previous, origin = [], []
            last_on_node: dict = {}
            sent_at: dict[int, int] = {}
            events = self.events
            sent = events.ids.get("PacketSent")
            # Per type id: its packet id column, for the two packet types.
            packets = [cells[places["packet"]] if kind in ("PacketSent", "PacketDelivered")
                       and "packet" in places else None
                       for kind, places, cells in zip(events.names, events.places, events.cells)]
            for index, (kind, node, slot) in enumerate(zip(
                    events.kinds, events.nodes, events.slots)):
                previous.append(last_on_node.get(node, -1))
                last_on_node[node] = index
                origin.append(-1)
                column = packets[kind]
                if column is not None and column[slot] is not None:
                    if kind == sent:
                        sent_at[column[slot]] = index
                    else:
                        origin[-1] = sent_at.get(column[slot], -1)
            self._preds = (previous, origin)
        return self._preds

    def causal_predecessors(self, index: int) -> list[TraceEvent]:
        """Every event that happens-before ``events[index]``, in trace
        order — the causal history of a packet/RPC/halt.  Any ``index``
        outside ``0..n-1`` (negative included) raises :class:`DebuggerError`
        naming the range."""
        if not 0 <= index < len(self.events):
            raise DebuggerError(f"event {index} out of range (trace has "
                                f"{len(self.events)} events: 0..{len(self.events) - 1})")
        columns = self._predecessors()
        seen = set()
        stack = [index]
        while stack:
            current = stack.pop()
            for column in columns:
                pred = column[current]
                if pred >= 0 and pred not in seen:
                    seen.add(pred)
                    stack.append(pred)
        return [self.events[i] for i in sorted(seen)]

    def __repr__(self) -> str:
        return (
            f"<TimeTravel cursor={self.cursor}/{len(self.events)} "
            f"t={self._max_times[self.cursor]}>"
        )
