"""Frozen wire records for contract verdicts.

A :class:`ContractReport` is the one shape every backend hands out when
asked "was this run correct?": the campaign runner's per-cell verdicts,
the REPL's ``check`` command, the service wire protocol, and the
offline :func:`~repro.contracts.offline.check_trace` fold all return
it.  The online and offline backends are held to *byte-identical*
reports (compare with :meth:`ContractReport.canonical`), which tier-1's
``tests/test_contracts.py`` asserts over the golden traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.debugger.api import Record


@dataclass(frozen=True)
class ContractViolation(Record):
    """One invariant breach, anchored to the event that exposed it.

    ``index``/``time``/``node`` locate the anchoring event in the
    checker's stream numbering (``None`` for end-of-run probe verdicts);
    ``evidence`` is a bounded window of normalized event lines — the
    same bytes a :class:`~repro.replay.trace.TraceEvent` line carries,
    so a violation cites positions a time-travel cursor can jump to.
    """

    contract: str = ""
    message: str = ""
    index: Optional[int] = None
    time: Optional[int] = None
    node: Optional[int] = None
    evidence: tuple = ()

    def to_plain(self) -> dict:
        """A purely-JSON dict (tuples listed) for canonical comparison."""
        return {
            "contract": self.contract,
            "message": self.message,
            "index": self.index,
            "time": self.time,
            "node": self.node,
            "evidence": list(self.evidence),
        }


@dataclass(frozen=True)
class ContractReport(Record):
    """Per-contract verdicts plus the violations behind every ``fail``.

    ``verdicts`` maps contract name to ``"pass"`` / ``"fail"`` /
    ``"skipped"`` (a dependent contract whose prerequisite already
    failed) in the contract set's declaration order; ``events`` counts
    the stream the event-backed checkers examined, so two reports over
    the same run agree on their evidence base, not just their verdicts.
    """

    name: str = "contracts"
    verdicts: dict = field(default_factory=dict)
    violations: tuple = ()
    events: int = 0

    @property
    def ok(self) -> bool:
        """True when no contract failed."""
        return not any(v == "fail" for v in self.verdicts.values())

    def first_violation(self) -> Optional[ContractViolation]:
        """The earliest violation (:func:`earliest`), or ``None`` on a
        clean report."""
        return earliest(self.violations)

    def to_plain(self) -> dict:
        """A purely-JSON dict for canonical comparison and cell results."""
        return {
            "name": self.name,
            "verdicts": dict(self.verdicts),
            "violations": [v.to_plain() for v in self.violations],
            "events": self.events,
        }

    def canonical(self) -> str:
        """Canonical JSON — the byte string the equivalence suite compares."""
        import json

        return json.dumps(self.to_plain(), sort_keys=True)

    def messages(self) -> list:
        """The violation messages, in discovery order."""
        return [v.message for v in self.violations]


def earliest(violations) -> Optional[ContractViolation]:
    """The violation with the lowest anchor index (``None`` last), the
    first in order among ties, or ``None`` for none: the one meaning of
    "first violation" for a report, a prefix fold and time travel."""
    return min(violations, default=None,
               key=lambda v: (v.index is None, v.index or 0))


def merge_reports(first: ContractReport, second: ContractReport,
                  order: Optional[list] = None) -> ContractReport:
    """Combine two disjoint reports (probe-side + event-side) into one.

    ``order`` optionally fixes the verdict-key ordering (a contract
    set's declaration order); violations concatenate first-then-second.
    """
    verdicts = dict(first.verdicts)
    verdicts.update(second.verdicts)
    if order:
        verdicts = {name: verdicts[name] for name in order if name in verdicts}
    return ContractReport(
        name=first.name,
        verdicts=verdicts,
        violations=tuple(first.violations) + tuple(second.violations),
        events=max(first.events, second.events),
    )
