"""Time-travel queries over a recorded trace.

The cursor model: a :class:`TimeTravel` session sits *between* events of
the trace; position ``k`` means events ``[0, k)`` have happened.  Every
query answers with a :class:`Moment` — the folded
:class:`~repro.replay.checkpoint.StateView` at the cursor plus the last
applied event.  Seeking uses the trace's checkpoints: ``at(t)`` folds
from the nearest checkpoint at or before the target instead of from the
beginning.

``at(t)`` uses prefix semantics: the cursor lands after the longest
event prefix whose times are all <= t.  Event times are stamped by the
emitting node's local cursor and can be *locally* non-monotonic across
nodes; the prefix rule (implemented over the running maximum of event
times, which is monotone) keeps the answer deterministic and makes
checkpoint-assisted seeks equal to full folds by construction.

Causality is the classic Lamport happens-before over the trace: program
order per node, plus a cross-node edge from each ``PacketSent`` to the
``PacketDelivered`` with the same (rebased) packet id — the only way
information crosses nodes in this system.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass
from typing import Optional

from repro.replay.checkpoint import StateView, apply_event, empty_view
from repro.replay.trace import Trace, TraceEvent

_INDEX_OF = operator.attrgetter("index")

#: Events the halt-cause scan recognizes as "why" candidates.
_CAUSE_TYPES = ("BreakpointHit", "ProcessFailed")


@dataclass
class Moment:
    """The state of the run at one cursor position."""

    index: int
    time: int
    view: StateView
    #: The event that brought the run here (None at the very start).
    event: Optional[TraceEvent]

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
        #: Running maximum of event times — monotone, so prefix cutoffs
        #: are a binary search.
        self._max_times: list[int] = []
        high = self._base.time
        for event in self.events:
            high = max(high, event.time)
            self._max_times.append(high)
        self.cursor = len(self.events)
        #: The view at the cursor once folded.  Every ``Moment`` handed
        #: out shares it, so it is replaced, never mutated.
        self._view: Optional[StateView] = None

    # ------------------------------------------------------------------
    # Seeking
    # ------------------------------------------------------------------

    def _view_at(self, index: int) -> StateView:
        """Fold the view at cursor ``index``, seeded from the latest
        checkpoint at or before it."""
        start, view = 0, self._base
        # Checkpoint indices ascend (``TraceWriter`` produces them so, a
        # loaded trace is checked for it), so the seed is a bisect away.
        checkpoints = self.trace.checkpoints
        nearest = bisect.bisect_right(checkpoints, index, key=_INDEX_OF) - 1
        if nearest >= 0:
            start, view = checkpoints[nearest].index, checkpoints[nearest].view
        view = view.copy()
        for event in self.events[start:index]:
            apply_event(view, event)
        return view

    def _moment(self) -> Moment:
        if self._view is None:
            self._view = self._view_at(self.cursor)
        event = self.events[self.cursor - 1] if self.cursor > 0 else None
        time = self._max_times[self.cursor - 1] if self.cursor > 0 else self._base.time
        return Moment(index=self.cursor, time=time, view=self._view,
                      event=event)

    def at(self, t: int) -> Moment:
        """Seek to virtual time ``t``: the longest prefix of events whose
        times are all <= t."""
        self.cursor = bisect.bisect_right(self._max_times, t)
        self._view = None
        return self._moment()

    def seek(self, index: int) -> Moment:
        """Seek to an explicit cursor position (0..len(trace))."""
        self.cursor = max(0, min(index, len(self.events)))
        self._view = None
        return self._moment()

    def step(self) -> Moment:
        """Apply the next event (no-op at the end of the trace)."""
        if self.cursor < len(self.events):
            if self._view is not None:
                # Fold onto a copy: a Moment must stay frozen at its
                # instant, and one already holds the current view.
                self._view = self._view.copy()
                apply_event(self._view, self.events[self.cursor])
            self.cursor += 1
        return self._moment()

    def reverse_step(self) -> Moment:
        """Un-apply the last event (no-op at the start of the trace).

        Events are not invertible, so the view is re-folded from the
        nearest earlier checkpoint.
        """
        if self.cursor > 0:
            self.cursor -= 1
            self._view = None
        return self._moment()

    def current(self) -> Moment:
        """The moment at the cursor, without moving it."""
        return self._moment()

    # ------------------------------------------------------------------
    # Why-halted
    # ------------------------------------------------------------------

    def first_contract_violation(self, contracts=None):
        """The earliest invariant violation at or before the cursor.

        Folds ``contracts`` (default: the universal safety catalogue)
        over the event prefix ``[0, cursor)`` through the offline
        backend and returns the minimum-index
        :class:`~repro.contracts.report.ContractViolation`, or ``None``
        when every contract holds this far.
        """
        from repro.contracts.dsl import universal_contracts
        from repro.contracts.offline import first_violation

        if contracts is None:
            contracts = universal_contracts()
        elif hasattr(contracts, "event_contracts"):
            contracts = contracts.event_contracts()
        return first_violation(self.events, contracts,
                               upto_index=self.cursor)

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
        first_halt = None
        for index in range(self.cursor - 1, -1, -1):
            event = self.events[index]
            if event.type == "ProcessResumed":
                break
            if event.type == "ProcessHalted":
                first_halt = event
        cause = None
        if first_halt is not None:
            for index in range(first_halt.index, -1, -1):
                event = self.events[index]
                if event.type in _CAUSE_TYPES:
                    cause = event
                    break
        return {
            "halted": True,
            "nodes": halted,
            "since": first_halt.time if first_halt is not None else None,
            "halt_event": first_halt,
            "cause": cause,
            "contract": contract,
        }

    # ------------------------------------------------------------------
    # Causality (Lamport ordering over the trace)
    # ------------------------------------------------------------------

    def _edges_into(self) -> list[list[int]]:
        """Predecessor edge lists: program order + packet delivery."""
        preds: list[list[int]] = [[] for _ in self.events]
        last_on_node: dict = {}
        sent_at: dict[int, int] = {}
        for index, event in enumerate(self.events):
            prev = last_on_node.get(event.node)
            if prev is not None:
                preds[index].append(prev)
            last_on_node[event.node] = index
            packet = event.fields.get("packet")
            if isinstance(packet, dict):
                pkt = packet.get("pkt")
                if event.type == "PacketSent":
                    sent_at[pkt] = index
                elif event.type == "PacketDelivered":
                    origin = sent_at.get(pkt)
                    if origin is not None:
                        preds[index].append(origin)
        return preds

    def lamport_clocks(self) -> list[int]:
        """One Lamport timestamp per event (trace order is a
        linearization of happens-before, so a single forward pass works)."""
        preds = self._edges_into()
        clocks = [0] * len(self.events)
        for index in range(len(self.events)):
            clocks[index] = 1 + max(
                (clocks[p] for p in preds[index]), default=0
            )
        return clocks

    def causal_predecessors(self, index: int) -> list[TraceEvent]:
        """Every event that happens-before ``events[index]``, in trace
        order — the causal history of a packet/RPC/halt."""
        preds = self._edges_into()
        seen = set()
        stack = list(preds[index])
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(preds[current])
        return [self.events[i] for i in sorted(seen)]

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------

    def find_packet(self, pkt: int) -> list[TraceEvent]:
        """Events carrying rebased packet id ``pkt``, in trace order."""
        return [
            event for event in self.events
            if isinstance(event.fields.get("packet"), dict)
            and event.fields["packet"].get("pkt") == pkt
        ]

    def find_rpc(self, call_id: int) -> list[TraceEvent]:
        """Events of RPC call ``call_id``, in trace order."""
        return [
            event for event in self.events
            if event.fields.get("call_id") == call_id
        ]

    def __repr__(self) -> str:
        return (
            f"<TimeTravel cursor={self.cursor}/{len(self.events)} "
            f"t={self._moment().time}>"
        )
