"""The online backend: contracts as an obs-bus subscriber.

:class:`ContractMonitor` mirrors the trace writer's stream discipline
exactly — it subscribes to every *recorded* event type (the
``__all__`` catalogue), numbers events in delivery order, and rebases
packet ids eagerly in first-seen order through its own
:class:`~repro.obs.recorder.PayloadNormalizer` — so its event indices,
``seq`` values, and rendered evidence lines are byte-identical to the
:class:`~repro.replay.trace.TraceEvent` stream a co-attached writer
would produce.  That is the whole equivalence argument: both backends
drive the same :class:`~repro.contracts.dsl.CheckerBank` over the same
facts.

The dormant path stays free: attaching a monitor materializes events
(like any recorder — compare monitored runs against monitored runs),
but a world with no monitor pays nothing, and the ``ContractViolated``
events a monitor emits ride the dormant path themselves unless someone
subscribes to them.
"""

from __future__ import annotations

from typing import Optional

from repro.contracts.dsl import CheckerBank, ContractSet, EventFact
from repro.contracts.report import ContractReport, ContractViolation
from repro.obs import events as ev
from repro.obs.bus import Bus
from repro.obs.recorder import PayloadNormalizer, _all_event_types

#: Recorded event types that carry a live packet payload needing eager
#: id rebasing (first-seen order must match the trace writer's).
_PACKET_EVENTS = frozenset(
    {"PacketSent", "PacketDelivered", "PacketNacked", "PacketDropped"}
)


class ContractMonitor:
    """Check a contract set live against a world's obs bus.

    ``contracts`` is a :class:`~repro.contracts.dsl.ContractSet` or an
    iterable of contracts; only the event-backed ones run here (probe
    contracts need a finished cluster — see
    :meth:`~repro.contracts.dsl.ContractSet.check_probes`).  Violations
    are re-emitted on the bus as typed
    :class:`~repro.obs.events.ContractViolated` events the moment a
    checker records them, evidence window included.
    """

    def __init__(self, bus: Bus, contracts, emit: bool = True):
        self.bus = bus
        if isinstance(contracts, ContractSet):
            self.name = contracts.name
            event_contracts = contracts.event_contracts()
        else:
            self.name = "contracts"
            event_contracts = tuple(contracts)
        self._normalizer = PayloadNormalizer()
        self._index = 0
        self._bank = CheckerBank(
            event_contracts, sink=self._emit_violation if emit else None
        )
        self._report: Optional[ContractReport] = None
        # One closure per event type: the subscription already fixes the
        # type, so the type name and the packet-rebase test are decided
        # once here instead of per delivered event (the hot path the
        # ledger prices as ``contracts.online_us_per_event``).
        self._handlers = {
            event_type: self._make_handler(event_type.__name__)
            for event_type in _all_event_types()
        }
        for event_type, handler in self._handlers.items():
            bus.subscribe(event_type, handler)

    def detach(self) -> None:
        """Unsubscribe from the bus (the report stays computable)."""
        for event_type, handler in self._handlers.items():
            self.bus.unsubscribe(event_type, handler)
        self._handlers = {}

    # ------------------------------------------------------------------

    def _make_handler(self, type_name: str):
        # The handler captures the bank's fused fold list for its type —
        # the same list feed() would look up — so the per-event work is
        # exactly: count, (maybe rebase), build the fact, run the folds.
        states = self._bank.states_for(type_name)
        normalizer = self._normalizer
        if type_name in _PACKET_EVENTS:
            rebase = normalizer.rebase
            def handler(event: ev.Event) -> None:
                index = self._index
                self._index = index + 1
                packet = event.packet
                if packet is not None:
                    # Eager rebase keeps first-seen order aligned with a
                    # co-attached trace writer, so lazily rendered
                    # evidence lines cite the same pkt#N ids.
                    rebase(packet.packet_id)
                fact = EventFact(index, event, normalizer, type_name)
                for state in states:
                    state.on_event(fact)
        elif not states:
            # No contract consumes this type: count it (index parity
            # with the trace writer) and move on — no fact built.
            def handler(event: ev.Event) -> None:
                self._index += 1
        elif len(states) == 1:
            on_event = states[0].on_event
            def handler(event: ev.Event) -> None:
                index = self._index
                self._index = index + 1
                on_event(EventFact(index, event, normalizer, type_name))
        else:
            def handler(event: ev.Event) -> None:
                index = self._index
                self._index = index + 1
                fact = EventFact(index, event, normalizer, type_name)
                for state in states:
                    state.on_event(fact)
        return handler

    def _emit_violation(self, violation: ContractViolation) -> None:
        self.bus.emit(
            ev.ContractViolated,
            time=violation.time or 0,
            node=violation.node,
            contract=violation.contract,
            message=violation.message,
            index=violation.index or 0,
            evidence=violation.evidence,
        )

    # ------------------------------------------------------------------

    @property
    def events(self) -> int:
        """Events observed so far."""
        return self._index

    def report(self) -> ContractReport:
        """Finalize (liveness phase included) and cache the report."""
        if self._report is None:
            # The handlers count events on the monitor (the bank's own
            # count only ticks through feed(), the offline entry point).
            self._report = self._bank.report(
                name=self.name, events=self._index
            )
        return self._report

    def __repr__(self) -> str:
        return (f"<ContractMonitor {self.name!r} events={self._index} "
                f"contracts={len(self._bank.contracts)}>")
