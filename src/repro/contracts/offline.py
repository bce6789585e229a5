"""The offline entry point: contracts as a fold over a loaded trace.

:func:`check_trace` folds a trace's columns as one run, each checker
once, as an online :class:`~repro.contracts.online.ContractMonitor`
folds its stream at ``report()`` (:func:`fold_run`), so the two return
byte-identical :class:`ContractReport`\\ s (``report.canonical()``) by
construction; the trace keeps what each contract's fold recorded.
"""

from __future__ import annotations

from repro.contracts.dsl import CheckerBank, ContractSet, assemble
from repro.contracts.report import ContractReport, earliest
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


def trace_folds(trace: Trace, contracts: tuple) -> list:
    """Per event contract of ``contracts``, its full fold's results over
    ``trace`` (:meth:`~repro.contracts.dsl.CheckerBank.results`), kept in
    ``trace.folded``: the contracts not yet there are folded, as one run."""
    kept = trace.folded
    missing = tuple(c for c in dict.fromkeys(contracts) if c not in kept)
    if missing:
        bank = CheckerBank(missing)
        bank.feed(trace.events, 0, len(trace.events))
        kept.update(zip(missing, bank.results()))
    return [kept[c] for c in contracts]


def check_trace(trace: Trace, contracts) -> ContractReport:
    """Fold a contract set over a loaded trace.

    ``contracts`` is a :class:`~repro.contracts.dsl.ContractSet` or an
    iterable of contracts; only event-backed contracts participate
    (probe contracts need a finished cluster).  The report covers the
    whole recording, from the folds the trace keeps (:func:`trace_folds`,
    which ``TimeTravel.first_contract_violation`` reads for a prefix).
    """
    name, contracts = split_contracts(contracts)
    return assemble(name, contracts, trace_folds(trace, contracts), len(trace.events))


def fold_prefix(bank: CheckerBank, events, upto_index=None):
    """Feed ``bank`` the events of ``events[:upto_index]`` it has not
    seen (``bank.count`` onwards) as one run and return the earliest
    violation (:func:`~repro.contracts.report.earliest`, or ``None``); a
    list of ``TraceEvent``\\ s is laid out as the
    :class:`~repro.replay.trace.EventColumns` a trace holds.

    The incremental fold: a bank kept between calls pays only for the
    events since the last one — sound because reporting never mutates a
    checker (the :class:`~repro.contracts.dsl.BaseChecker` rule).  It
    cannot move back: a shorter prefix needs a fresh bank.
    """
    if upto_index is not None and upto_index < bank.count:
        raise ValueError(f"bank has folded {bank.count} events, past {upto_index}")
    if not isinstance(events, EventColumns):
        events = EventColumns(events)
    start, stop, _ = slice(bank.count, upto_index).indices(len(events))
    bank.feed(events, start, stop)
    return earliest(bank.report().violations)


def first_violation(events, contracts, upto_index=None):
    """Fold event contracts over ``events[:upto_index]`` and return the
    earliest violation (or ``None``): :func:`fold_prefix` on a fresh
    bank, the reference a kept one and time travel are tested against."""
    return fold_prefix(CheckerBank(tuple(contracts)), events, upto_index)
