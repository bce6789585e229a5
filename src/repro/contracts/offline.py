"""The offline entry point: contracts as a fold over a loaded trace.

:func:`check_trace` folds a trace's columns through :func:`fold_run`,
the one fold an online :class:`~repro.contracts.online.ContractMonitor`
also runs over its stream at ``report()``: one run, each checker once,
so the two return byte-identical :class:`ContractReport`\\ s
(``report.canonical()``) by construction.
"""

from __future__ import annotations

from repro.contracts.dsl import CheckerBank, ContractSet
from repro.contracts.report import ContractReport
from repro.replay.trace import EventColumns, Trace


def split_contracts(contracts) -> tuple:
    """``(name, event contracts)`` of a
    :class:`~repro.contracts.dsl.ContractSet` (its event-backed subset:
    probe contracts need a finished cluster) or of an iterable of
    contracts (named ``"contracts"``)."""
    if isinstance(contracts, ContractSet):
        return contracts.name, contracts.event_contracts()
    return "contracts", tuple(contracts)


def fold_run(events, name: str, contracts: tuple, start: int = 0) -> ContractReport:
    """Fold ``contracts`` over events ``[start, len(events))`` of the
    columns ``events`` as one run and return the report ``name``d so."""
    bank = CheckerBank(contracts)
    bank.feed(events, start, len(events))
    return bank.report(name=name)


def check_trace(trace: Trace, contracts) -> ContractReport:
    """Fold a contract set over a loaded trace.

    ``contracts`` is a :class:`~repro.contracts.dsl.ContractSet` or an
    iterable of contracts; only event-backed contracts participate
    (probe contracts need a finished cluster).  The fold covers the
    whole recording — to check a prefix, fold a sliced trace or use the
    time-travel layer's first-violation scan.
    """
    return fold_run(trace.events, *split_contracts(contracts))


def fold_prefix(bank: CheckerBank, events, upto_index=None):
    """Feed ``bank`` the events of ``events[:upto_index]`` it has not
    seen (``bank.count`` onwards) as one run and return the earliest
    violation by anchor index (or ``None``); a list of ``TraceEvent``\\ s
    is laid out as the :class:`~repro.replay.trace.EventColumns` a trace
    holds.

    The incremental fold: a bank kept between calls pays only for the
    events since the last one — sound because reporting never mutates a
    checker (the :class:`~repro.contracts.dsl.BaseChecker` rule).  It
    cannot move back: a shorter prefix needs a fresh bank.
    """
    if upto_index is not None and upto_index < bank.count:
        raise ValueError(f"bank has folded {bank.count} events, past {upto_index}")
    if not isinstance(events, EventColumns):
        events = EventColumns(events)
    last = len(events)
    start, stop, _ = slice(bank.count, upto_index).indices(last)
    bank.feed(events, start, stop)
    return min(bank.report().violations, default=None,
               key=lambda v: last if v.index is None else v.index)


def first_violation(events, contracts, upto_index=None):
    """Fold event contracts over ``events[:upto_index]`` and return the
    earliest violation by anchor index (or ``None``): :func:`fold_prefix`
    on a fresh bank, the reference a kept one is tested against."""
    return fold_prefix(CheckerBank(tuple(contracts)), events, upto_index)
