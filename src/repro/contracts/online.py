"""The online entry point: contracts over a run's stream.

:class:`ContractMonitor` remembers the run's
:class:`~repro.replay.trace.EventStream` and where it attached, and at
:meth:`~ContractMonitor.report` folds what the stream recorded since
through :func:`~repro.contracts.offline.fold_run`, the one fold
:func:`~repro.contracts.offline.check_trace` runs over a loaded trace:
the two agree by construction.

Nothing is folded while the run goes: a monitor riding a writer costs
the run nothing, and one over a bare bus only its own stream.
"""

from __future__ import annotations

from typing import Optional

from repro.contracts.offline import fold_run, split_contracts
from repro.contracts.report import ContractReport
from repro.replay.trace import EventStream


class ContractMonitor:
    """Check a contract set over the events a run records from now on.

    ``stream`` is the :class:`~repro.replay.trace.EventStream` to fold:
    a :class:`~repro.replay.trace.TraceWriter`, whose columns the
    monitor then shares, or a bare :class:`~repro.obs.bus.Bus`, over
    which it records a stream of its own.  ``contracts`` is a
    :class:`~repro.contracts.dsl.ContractSet` or an iterable of
    contracts; only the event-backed ones run here (probe contracts need
    a finished cluster — see
    :meth:`~repro.contracts.dsl.ContractSet.check_probes`).
    """

    def __init__(self, stream, contracts):
        if not isinstance(stream, EventStream):
            stream = EventStream(stream)
        self._stream = stream
        self._attach = len(stream.events)
        self.name, self._contracts = split_contracts(contracts)
        self._report: Optional[ContractReport] = None

    def report(self) -> ContractReport:
        """Fold the events recorded since attach (liveness phase
        included) and cache the report."""
        if self._report is None:
            self._report = fold_run(self._stream.events, self.name,
                                    self._contracts, self._attach)
        return self._report

    def __repr__(self) -> str:
        events = len(self._stream.events) - self._attach
        return (f"<ContractMonitor {self.name!r} events={events} "
                f"contracts={len(self._contracts)}>")
