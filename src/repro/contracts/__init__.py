"""``repro.contracts`` — the declarative invariant layer.

One DSL (:mod:`~repro.contracts.dsl`), one fold over one stream, two
entry points: online (:class:`~repro.contracts.online.ContractMonitor`)
and offline (:func:`~repro.contracts.offline.check_trace`), both
returning the frozen :class:`~repro.contracts.report.ContractReport`.
Campaign scenarios, the shrinker, time travel, branch diffs, the REPL's
``check``/``contracts`` commands, and the service protocol all judge
runs through this package — see ``docs/contracts.md``.
"""

from repro.contracts.dsl import (
    ALL_EVENTS,
    AT_MOST_ONCE_AFTER_REBOOT,
    CLOCK_MONOTONICITY,
    CONTRACTS,
    EXACTLY_ONCE_DELIVERY,
    HALT_TRANSPARENCY,
    NO_LOST_CALLS,
    REGISTER_LINEARIZABILITY,
    SINGLE_LEADER,
    UNIVERSAL_SET,
    CheckerBank,
    Contract,
    ContractSet,
    EventContract,
    Fact,
    ProbeContract,
    catalog,
    contracts_for_trace,
    get_contract,
    resolve_contracts,
    universal_contracts,
)
from repro.contracts.offline import check_trace, first_violation
from repro.contracts.online import ContractMonitor
from repro.contracts.report import (
    ContractReport,
    ContractViolation,
    merge_reports,
)

__all__ = [
    "ALL_EVENTS",
    "AT_MOST_ONCE_AFTER_REBOOT",
    "CLOCK_MONOTONICITY",
    "CONTRACTS",
    "EXACTLY_ONCE_DELIVERY",
    "HALT_TRANSPARENCY",
    "NO_LOST_CALLS",
    "REGISTER_LINEARIZABILITY",
    "SINGLE_LEADER",
    "UNIVERSAL_SET",
    "CheckerBank",
    "Contract",
    "ContractMonitor",
    "ContractReport",
    "ContractSet",
    "ContractViolation",
    "EventContract",
    "Fact",
    "ProbeContract",
    "catalog",
    "check_trace",
    "contracts_for_trace",
    "first_violation",
    "get_contract",
    "merge_reports",
    "resolve_contracts",
    "universal_contracts",
]
