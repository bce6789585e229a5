"""The online entry point: contracts folded as a run's stream fills.

:class:`ContractMonitor` feeds each event the run's
:class:`~repro.replay.trace.EventStream` records, one at a time, to the
same :class:`~repro.contracts.dsl.CheckerBank` that
:func:`~repro.contracts.offline.check_trace` feeds a loaded trace in one
run: same columns, same folds, each checker's events in the same order,
so the two agree by construction.

The dormant path stays free: a world with no monitor pays nothing, and
the ``ContractViolated`` events a monitor emits ride the dormant path
themselves unless someone subscribes to them.
"""

from __future__ import annotations

from typing import Optional

from repro.contracts.dsl import CheckerBank, ContractSet
from repro.contracts.report import ContractReport, ContractViolation
from repro.obs import events as ev
from repro.replay.trace import EventStream


class ContractMonitor:
    """Check a contract set live, one event as it is recorded.

    ``stream`` is the :class:`~repro.replay.trace.EventStream` to fold:
    a :class:`~repro.replay.trace.TraceWriter`, whose columns and bus
    subscription the monitor then shares, or a bare
    :class:`~repro.obs.bus.Bus`, over which it records a stream of its
    own.  ``contracts`` is a :class:`~repro.contracts.dsl.ContractSet` or
    an iterable of contracts; only the event-backed ones run here (probe
    contracts need a finished cluster — see
    :meth:`~repro.contracts.dsl.ContractSet.check_probes`).  Violations
    are re-emitted on the bus as typed
    :class:`~repro.obs.events.ContractViolated` events the moment a
    checker records them, evidence window included.
    """

    def __init__(self, stream, contracts):
        if not isinstance(stream, EventStream):
            stream = EventStream(stream)
        self.bus = stream.bus
        if isinstance(contracts, ContractSet):
            self.name = contracts.name
            event_contracts = contracts.event_contracts()
        else:
            self.name = "contracts"
            event_contracts = tuple(contracts)
        self._bank = CheckerBank(event_contracts, sink=self._emit_violation)
        self._report: Optional[ContractReport] = None
        stream.listeners.append(self._bank.feed)

    def _emit_violation(self, violation: ContractViolation) -> None:
        self.bus.emit(ev.ContractViolated, violation.time or 0, violation.node,
                      violation.contract, violation.message, violation.index or 0,
                      violation.evidence)

    def report(self) -> ContractReport:
        """Finalize (liveness phase included) and cache the report."""
        if self._report is None:
            self._report = self._bank.report(name=self.name)
        return self._report

    def __repr__(self) -> str:
        return (f"<ContractMonitor {self.name!r} events={self._bank.count} "
                f"contracts={len(self._bank.contracts)}>")
