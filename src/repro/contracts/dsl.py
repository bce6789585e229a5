"""The declarative invariant DSL: frozen dataclasses + combinators.

A :class:`Contract` names one distributed invariant.  Two flavours:

* :class:`EventContract` — compiled from a pure fold over the obs event
  stream.  Both entry points fold it once over a run of columns:
  online (:class:`~repro.contracts.online.ContractMonitor`, the run's
  stream at ``report()``) and offline
  (:func:`~repro.contracts.offline.check_trace`, a loaded trace), so the
  two agree by construction.
* :class:`ProbeContract` — an end-of-run predicate over the *probes*
  dict a scenario's builder returned (server-side logs, VM consoles).
  Probe state never enters the event stream, so these only run where a
  finished cluster is in hand (live cells, verified replays).

Contracts compose into :class:`ContractSet`\\ s — the named verdict
oracles that replaced the campaign's ad-hoc closures.  Combinators:
``set_a + set_b`` concatenates, :meth:`Contract.named` re-brands, and
``ProbeContract.requires`` chains prerequisite contracts (a dependent
check is ``skipped``, not failed, when its prerequisite already broke).

Everything here is a module-level frozen dataclass or class, so
contract sets pickle across campaign worker processes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Optional

from repro.contracts.report import ContractReport, ContractViolation

#: Sentinel event-name tuple meaning "every event type" (clock checks).
ALL_EVENTS: tuple = ("*",)


# ----------------------------------------------------------------------
# Facts: one event as a checker sees it, backend-neutral
# ----------------------------------------------------------------------


class Fact:
    """Event ``index`` of an :class:`~repro.replay.trace.EventColumns`,
    as a violation anchors or cites it: checkers fold the columns and
    build one only when they record a violation.  The header is read
    directly (``index``/``type``/``time``/``node``), payload cells via
    :meth:`get`, evidence via :meth:`line`."""

    __slots__ = ("index", "type", "time", "node", "_events")

    def __init__(self, events, index: int):
        self.index = index
        self.type = events.names[events.kinds[index]]
        self.time = events.times[index]
        self.node = events.nodes[index]
        self._events = events

    def get(self, name: str):
        """The recorded event's cell of that name."""
        return cell(self._events, self.index, name)

    def line(self) -> str:
        """The recorded event's line (rendered per call; cite sparingly)."""
        return self._events[self.index].line


def cell(events, index: int, name: str):
    """Event ``index``'s payload cell ``name`` in the columns ``events``
    (``None`` when its type has none): how a checker reads a row."""
    kind = events.kinds[index]
    at = events.places[kind].get(name)
    return None if at is None else events.cells[kind][at][events.slots[index]]


# ----------------------------------------------------------------------
# Contract dataclasses
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Contract:
    """Base invariant: a stable name plus a human description."""

    name: str
    description: str

    def named(self, name: str) -> "Contract":
        """Combinator: the same invariant under a different name."""
        return dataclasses.replace(self, name=name)


@dataclass(frozen=True)
class EventContract(Contract):
    """An invariant compiled from a fold over the obs event stream.

    ``events`` lists the event type names the fold consumes
    (:data:`ALL_EVENTS` for stream-wide checks); ``state`` is a zero-arg
    factory (a module-level checker class) producing a fresh fold with
    ``fold(events, positions)`` / ``finish()`` methods.
    """

    events: tuple = ()
    state: Callable = field(repr=False, default=None)


@dataclass(frozen=True)
class ProbeContract(Contract):
    """An end-of-run predicate over a scenario's probes.

    ``check(facts)`` returns ``None`` (pass) or the violation message;
    ``requires`` names contracts that must pass first — when one of them
    failed, this check is recorded ``skipped`` instead of running on
    garbage (e.g. parsing the console of a client that never finished).
    """

    check: Callable = field(repr=False, default=None)
    requires: tuple = ()


@dataclass(frozen=True)
class ContractSet:
    """A named, ordered collection of contracts: one verdict oracle.

    ``derive(cluster, probes)`` distills the end-of-run facts the probe
    contracts share (the fix for the duplicated per-call bookkeeping the
    old strict/soak closures each re-derived).  Sets concatenate with
    ``+``.
    """

    name: str
    contracts: tuple
    derive: Optional[Callable] = field(repr=False, default=None)

    def __add__(self, other: "ContractSet") -> "ContractSet":
        """Combinator: concatenated contracts under a joined name."""
        return ContractSet(
            name=f"{self.name}+{other.name}",
            contracts=self.contracts + other.contracts,
            derive=self.derive or other.derive,
        )

    def names(self) -> list:
        """Contract names in declaration order."""
        return [c.name for c in self.contracts]

    def event_contracts(self) -> tuple:
        """The event-backed subset, declaration order preserved."""
        return tuple(c for c in self.contracts if isinstance(c, EventContract))

    def probe_contracts(self) -> tuple:
        """The probe-backed subset, declaration order preserved."""
        return tuple(c for c in self.contracts if isinstance(c, ProbeContract))

    def get(self, name: str) -> Optional[Contract]:
        """Look up one contract by name."""
        for contract in self.contracts:
            if contract.name == name:
                return contract
        return None

    def check_probes(self, cluster, probes) -> ContractReport:
        """Evaluate the probe contracts against a finished cluster.

        Returns a probe-side :class:`ContractReport` (event contracts
        are absent from its verdicts; merge with the event backend's
        report via :func:`~repro.contracts.report.merge_reports`).
        """
        facts = (self.derive(cluster, probes) if self.derive is not None
                 else {"cluster": cluster, "probes": probes})
        verdicts: dict = {}
        violations: list = []
        failed: set = set()
        for contract in self.probe_contracts():
            if any(req in failed for req in contract.requires):
                verdicts[contract.name] = "skipped"
                continue
            message = contract.check(facts)
            if message is None:
                verdicts[contract.name] = "pass"
            else:
                verdicts[contract.name] = "fail"
                failed.add(contract.name)
                violations.append(ContractViolation(
                    contract=contract.name, message=message,
                ))
        return ContractReport(
            name=self.name, verdicts=verdicts, violations=tuple(violations),
        )


class CheckerBank:
    """The one fold core: fresh checker folds, each contract's declared
    ``events`` filter, and the report assembly.  One bank per checked
    stream, fed runs of events through :meth:`feed`."""

    def __init__(self, contracts):
        self.contracts = tuple(contracts)
        self._checkers = [(c, c.state()) for c in self.contracts]
        for contract, state in self._checkers:
            # A renamed contract's violations carry its verdict's name.
            state.NAME = contract.name
        #: Per checker its fold and the types it reads (``None``: all),
        #: stream-wide checkers first, each group in declaration order.
        self._folds = sorted(
            ((state.fold, None if c.events == ALL_EVENTS else frozenset(c.events))
             for c, state in self._checkers), key=lambda pair: pair[1] is not None)
        self.count = 0

    def feed(self, events, start: int, stop: int) -> int:
        """Fold events ``[start, stop)`` of the columns ``events`` into
        each checker, once, over the indices of the types it reads, and
        return how many events the checkers read (one per checker)."""
        self.count += stop - start
        events.settle()
        read = 0
        for fold, wanted in self._folds:
            positions = (range(start, stop) if wanted is None
                         else events.indices(wanted, start, stop))
            fold(events, positions)
            read += len(positions)
        return read

    def results(self) -> list:
        """Per contract, in declaration order, the violations its checker
        recorded in ``fold()`` and then those ``finish()`` adds (read-only)."""
        return [tuple(state.violations) + tuple(state.finish())
                for _, state in self._checkers]

    def report(self, name: str = "contracts") -> ContractReport:
        """Run the liveness phase and assemble the report (read-only)."""
        return assemble(name, self.contracts, self.results(), self.count)


def assemble(name: str, contracts: tuple, results: list, events: int) -> ContractReport:
    """The report ``name``d so of ``contracts`` whose folds over
    ``events`` events gave ``results`` (as :meth:`CheckerBank.results`)."""
    return ContractReport(
        name=name, violations=tuple(chain.from_iterable(results)), events=events,
        verdicts={c.name: "fail" if found else "pass" for c, found in zip(contracts, results)})


# ----------------------------------------------------------------------
# Checker folds for the shipped event contracts
# ----------------------------------------------------------------------


class BaseChecker:
    """Common checker plumbing: a violation list and a no-op finish.

    The rule incremental folds stand on: only :meth:`fold` mutates a
    checker, so a bank that was reported can be fed further and reported
    again, and answers as a fresh one would.  State keeps event indices,
    never :class:`Fact`\\ s: a fold builds those only to record a
    violation.

    The rule prefix queries stand on: a checker that does not override
    :meth:`finish` records each violation at the event it is folding.
    So its violations over a prefix ``[0, k)`` are those of a full fold
    with ``index < k``, and time travel answers from one full fold a
    trace keeps; a checker with end-of-run verdicts is folded over the
    prefix itself."""

    NAME = "contract"

    def __init__(self) -> None:
        self.violations: list = []

    def violate(self, events, index: int, message: str, cited: tuple = ()) -> None:
        """Record one violation anchored at event ``index`` of ``events``,
        the lines of the events ``cited`` as its evidence."""
        anchor = Fact(events, index)
        self.violations.append(ContractViolation(
            contract=self.NAME,
            message=message,
            index=index,
            time=anchor.time,
            node=anchor.node,
            evidence=tuple(Fact(events, at).line() for at in cited),
        ))

    def fold(self, events, positions) -> None:
        """Fold the events at ``positions``, ascending indices into the
        columns ``events`` of the types the contract reads; for a
        stream-wide contract, a ``range`` (override)."""

    def finish(self) -> list:
        """End-of-run (liveness) violations; default none.  Read-only."""
        return []


class ExactlyOnceChecker(BaseChecker):
    """``exactly_once_delivery``: no RPC call id ever completes twice."""

    NAME = "exactly_once_delivery"

    def __init__(self) -> None:
        super().__init__()
        self._completed: dict = {}

    def fold(self, events, positions) -> None:
        """Track completions per call id; a repeat is a violation."""
        completed = self._completed
        for index in positions:
            call_id = cell(events, index, "call_id")
            first = completed.setdefault(call_id, index)
            if first != index:
                self.violate(
                    events, index,
                    f"call {call_id} completed twice "
                    f"(first at event {first}, again at event {index})",
                    cited=(first, index),
                )


class StaleRebootChecker(BaseChecker):
    """``at_most_once_after_reboot``: a call the rebooted server refused
    as stale must never subsequently complete (that would mean the
    pre-reboot execution leaked through the dedup barrier)."""

    NAME = "at_most_once_after_reboot"

    def __init__(self) -> None:
        super().__init__()
        self._stale: dict = {}

    def fold(self, events, positions) -> None:
        """Remember stale rejections; completion afterwards violates."""
        kinds, stale, rejection = events.kinds, self._stale, events.ids.get("RpcStaleRejected")
        for index in positions:
            call_id = cell(events, index, "call_id")
            if kinds[index] == rejection:
                stale.setdefault(call_id, index)
                continue
            rejected = stale.get(call_id)
            if rejected is not None:
                self.violate(
                    events, index,
                    f"call {call_id} completed at event {index} after a "
                    f"stale rejection at event {rejected}",
                    cited=(rejected, index),
                )


class ClockMonotonicityChecker(BaseChecker):
    """``clock_monotonicity``: per-node event times never run backwards
    (a reboot may reset the node's cursor; the check restarts there)."""

    NAME = "clock_monotonicity"

    def __init__(self) -> None:
        super().__init__()
        self._last: dict = {}

    def fold(self, events, positions) -> None:
        """Fold every event of the run ``positions`` (a ``range``, as
        for every stream-wide checker), off slices of its columns;
        compare against the node's running max."""
        last, reboot = self._last, events.ids.get("NodeRebooted")
        run = slice(positions.start, positions.stop)
        for index, kind, time, node in zip(positions, events.kinds[run],
                                           events.times[run], events.nodes[run]):
            if node is None:
                continue
            # A reboot restarts the node's check at its own time.
            prev = None if kind == reboot else last.get(node)
            if prev is None or time > prev:
                last[node] = time
            elif time < prev:
                self.violate(
                    events, index,
                    f"node {node} time ran backwards: t={time} after "
                    f"t={prev} at event {index}",
                    cited=(index,),
                )


class HaltTransparencyChecker(BaseChecker):
    """``halt_transparency``: a halted node's frozen timers must not
    fire — no retransmissions while its timer set is frozen (§5.2's
    transparency guarantee, stated as a stream invariant)."""

    NAME = "halt_transparency"

    def __init__(self) -> None:
        super().__init__()
        self._frozen: dict = {}

    def fold(self, events, positions) -> None:
        """Track freeze windows per node; retries inside one violate."""
        kinds, nodes, frozen = events.kinds, events.nodes, self._frozen
        freeze, thaw, retry = map(events.ids.get, ("TimerFrozen", "TimerThawed",
                                                   "RpcCallRetried"))
        for index in positions:
            kind, node = kinds[index], nodes[index]
            if kind == freeze:
                frozen[node] = index
            elif kind == thaw:
                frozen.pop(node, None)
            elif kind == retry:
                window = frozen.get(node)
                if window is not None:
                    self.violate(
                        events, index,
                        f"node {node} retransmitted call {cell(events, index, 'call_id')} "
                        f"while halted (frozen since event {window})",
                        cited=(window, index),
                    )


class NoLostCallsChecker(BaseChecker):
    """``no_lost_calls`` (liveness): every started RPC call completes.

    Failed and never-resolved calls both count as lost; violations are
    reported at end of run, anchored at the call's start event."""

    NAME = "no_lost_calls"

    def __init__(self) -> None:
        super().__init__()
        self._open: dict = {}
        self._events = None

    def fold(self, events, positions) -> None:
        """Open on start, close on completion."""
        kinds, opened = events.kinds, self._open
        start, completion = events.ids.get("RpcCallStarted"), events.ids.get("RpcCallCompleted")
        self._events = events
        for index in positions:
            call_id = cell(events, index, "call_id")
            if kinds[index] == start:
                opened[call_id] = index
            elif kinds[index] == completion:
                opened.pop(call_id, None)

    def finish(self) -> list:
        """One violation per call that never completed."""
        found = []
        for call_id, index in self._open.items():
            fact = Fact(self._events, index)
            found.append(ContractViolation(
                contract=self.NAME,
                message=(
                    f"call {call_id} "
                    f"({fact.get('service')}.{fact.get('proc')}) started at "
                    f"event {index} never completed"
                ),
                index=index,
                time=fact.time,
                node=fact.node,
                evidence=(fact.line(),),
            ))
        return found


class SingleLeaderChecker(BaseChecker):
    """``single_leader``: at most one node claims leadership per term
    (two claimants for one term is split brain)."""

    NAME = "single_leader"

    def __init__(self) -> None:
        super().__init__()
        self._terms: dict = {}

    def fold(self, events, positions) -> None:
        """Fold ``leader`` observations; a second claimant violates."""
        nodes, terms = events.nodes, self._terms
        for index in positions:
            if cell(events, index, "kind") != "leader":
                continue
            term = cell(events, index, "key")
            claim = terms.setdefault(term, index)
            if nodes[claim] != nodes[index]:
                self.violate(
                    events, index,
                    f"split brain: term {term} claimed by node {nodes[index]} at "
                    f"event {index} (node {nodes[claim]} already led since "
                    f"event {claim})",
                    cited=(claim, index),
                )


class _Op:
    """One client operation reconstructed from invoke/return observations."""

    __slots__ = ("op", "key", "value", "invoked", "returned", "node", "pid")

    def __init__(self, op, key, value, invoked, node, pid):
        self.op = op
        self.key = key
        self.value = value
        self.invoked = invoked
        self.returned = None
        self.node = node
        self.pid = pid


class LinearizabilityChecker(BaseChecker):
    """``register_linearizability``: per-key single-register histories
    (distinct write values) admit a linearization.

    Necessary-condition analysis in the Wing & Gong style, exact for
    the distinct-write-value register: a completed read must return a
    value some write could have installed — never a value no write
    produced, never a value whose write began after the read returned,
    and never a value provably overwritten before the read began.
    Writes that never returned may have applied at any later point, so
    they are admissible but impose no ordering.
    """

    NAME = "register_linearizability"

    def __init__(self) -> None:
        super().__init__()
        self._pending: dict = {}
        self._ops: list = []
        self._events = None

    def fold(self, events, positions) -> None:
        """Pair invoke/return observations into operations."""
        nodes, pending = events.nodes, self._pending
        self._events = events
        for index in positions:
            kind = cell(events, index, "kind")
            if kind == "invoke":
                pid = cell(events, index, "pid")
                pending[(nodes[index], pid)] = _Op(
                    cell(events, index, "op"), cell(events, index, "key"),
                    cell(events, index, "value"), index, nodes[index], pid)
            elif kind == "return":
                op = pending.pop((nodes[index], cell(events, index, "pid")), None)
                if op is None:
                    continue
                op.returned = index
                op.value = cell(events, index, "value")
                self._ops.append(op)

    def finish(self) -> list:
        """Analyze each key's completed history."""
        found: list = []
        ops = self._ops + list(self._pending.values())
        for key in sorted({op.key for op in ops}):
            history = [op for op in ops if op.key == key]
            writes = [op for op in history if op.op == "put"]
            initial = _Op("put", key, 0, -1, None, None)
            initial.returned = -1
            writers = writes + [initial]
            reads = sorted(
                (op for op in history
                 if op.op == "get" and op.returned is not None),
                key=lambda op: op.returned,
            )
            completed_writes = [w for w in writers if w.returned is not None]
            for read in reads:
                candidates = [w for w in writers if w.value == read.value]
                if not candidates:
                    found.append(self._violation(
                        read,
                        f"get({key}) returned {read.value} at event "
                        f"{read.returned} but no write produced it",
                    ))
                    continue
                if not any(self._admissible(w, read, completed_writes)
                           for w in candidates):
                    found.append(self._violation(
                        read,
                        f"non-linearizable read: get({key}) returned "
                        f"{read.value} at event {read.returned} after its "
                        f"write was overwritten",
                    ))
        return found

    @staticmethod
    def _admissible(writer: _Op, read: _Op, completed_writes: list) -> bool:
        """Could ``read`` have observed ``writer`` in some linearization?"""
        if writer.invoked > read.returned:
            return False  # the write began after the read finished
        if writer.returned is None:
            return True  # pending write: may apply arbitrarily late
        for other in completed_writes:
            if other is writer:
                continue
            # ``other`` provably overwrote ``writer`` before the read began.
            if writer.returned < other.invoked and other.returned < read.invoked:
                return False
        return True

    def _violation(self, read: _Op, message: str) -> ContractViolation:
        """A violation anchored at the read's return observation."""
        evidence = tuple(Fact(self._events, index).line()
                         for index in (read.invoked, read.returned))
        return ContractViolation(
            contract=self.NAME,
            message=message,
            index=read.returned,
            time=None,
            node=read.node,
            evidence=evidence,
        )


# ----------------------------------------------------------------------
# The shipped catalogue
# ----------------------------------------------------------------------

EXACTLY_ONCE_DELIVERY = EventContract(
    name="exactly_once_delivery",
    description="no RPC call id completes more than once",
    events=("RpcCallCompleted",),
    state=ExactlyOnceChecker,
)

AT_MOST_ONCE_AFTER_REBOOT = EventContract(
    name="at_most_once_after_reboot",
    description="a stale-rejected call never completes afterwards",
    events=("RpcStaleRejected", "RpcCallCompleted"),
    state=StaleRebootChecker,
)

CLOCK_MONOTONICITY = EventContract(
    name="clock_monotonicity",
    description="per-node event times never run backwards (reboot resets)",
    events=ALL_EVENTS,
    state=ClockMonotonicityChecker,
)

HALT_TRANSPARENCY = EventContract(
    name="halt_transparency",
    description="no retransmissions fire while a node's timers are frozen",
    events=("TimerFrozen", "TimerThawed", "RpcCallRetried"),
    state=HaltTransparencyChecker,
)

REGISTER_LINEARIZABILITY = EventContract(
    name="register_linearizability",
    description="per-key register histories admit a linearization",
    events=("Observation",),
    state=LinearizabilityChecker,
)

NO_LOST_CALLS = EventContract(
    name="no_lost_calls",
    description="liveness: every started RPC call eventually completes",
    events=("RpcCallStarted", "RpcCallCompleted"),
    state=NoLostCallsChecker,
)

SINGLE_LEADER = EventContract(
    name="single_leader",
    description="at most one node claims leadership per term",
    events=("Observation",),
    state=SingleLeaderChecker,
)

#: Every shipped event contract, by name (the REPL's ``contracts`` list).
CONTRACTS: dict = {
    contract.name: contract
    for contract in (
        EXACTLY_ONCE_DELIVERY,
        AT_MOST_ONCE_AFTER_REBOOT,
        CLOCK_MONOTONICITY,
        HALT_TRANSPARENCY,
        REGISTER_LINEARIZABILITY,
        NO_LOST_CALLS,
        SINGLE_LEADER,
    )
}


def universal_contracts() -> tuple:
    """The safety contracts every recorded run should satisfy.

    Excludes the liveness contract (``no_lost_calls``): faulty runs
    legitimately lose calls, and the debugger's default ``check`` must
    not cry wolf over the very faults a campaign injected.
    """
    return (
        EXACTLY_ONCE_DELIVERY,
        AT_MOST_ONCE_AFTER_REBOOT,
        CLOCK_MONOTONICITY,
        HALT_TRANSPARENCY,
        REGISTER_LINEARIZABILITY,
        SINGLE_LEADER,
    )


#: The default verdict oracle for traces recorded outside any scenario.
UNIVERSAL_SET = ContractSet(
    name="universal",
    contracts=universal_contracts(),
)


def get_contract(name: str) -> Contract:
    """Look up a shipped contract by name, with a helpful error."""
    contract = CONTRACTS.get(name)
    if contract is None:
        known = ", ".join(sorted(CONTRACTS))
        raise KeyError(f"unknown contract {name!r} (known: {known})")
    return contract


def resolve_contracts(spec) -> ContractSet:
    """Coerce any caller-facing contract spec to a :class:`ContractSet`.

    Accepts ``None`` (the universal safety set), a :class:`ContractSet`,
    a single :class:`Contract`, or an iterable mixing contracts and
    shipped-catalogue names — the shapes the REPL's ``check`` command
    and the service wire op hand in.
    """
    if spec is None:
        return UNIVERSAL_SET
    if isinstance(spec, ContractSet):
        return spec
    if isinstance(spec, Contract):
        return ContractSet(name=spec.name, contracts=(spec,))
    if isinstance(spec, str):
        spec = [spec]
    contracts = tuple(
        get_contract(item) if isinstance(item, str) else item
        for item in spec
    )
    name = contracts[0].name if len(contracts) == 1 else "custom"
    return ContractSet(name=name, contracts=contracts)


def catalog() -> list:
    """Listing rows for every shipped contract (the ``contracts``
    command): name, description, and the event types it folds."""
    return [
        {
            "name": contract.name,
            "description": contract.description,
            "events": list(contract.events),
        }
        for contract in CONTRACTS.values()
    ]


def contracts_for_trace(trace) -> ContractSet:
    """The contract set a recorded trace is judged under by default.

    A campaign trace names its scenario in the header meta, so that
    scenario's own contract set applies; any other recording gets the
    universal safety catalogue.
    """
    meta = trace.header.get("meta") or {}
    campaign = meta.get("campaign") or {}
    scenario_name = campaign.get("scenario")
    if scenario_name:
        try:
            from repro.campaign.scenarios import get_scenario

            return get_scenario(scenario_name).contracts
        except KeyError:
            pass
    return UNIVERSAL_SET
