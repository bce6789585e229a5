"""The declarative invariant DSL: frozen dataclasses + combinators.

A :class:`Contract` names one distributed invariant.  Two flavours:

* :class:`EventContract` — compiled from a pure fold over the obs event
  stream.  The *same* checker class runs behind both entry points:
  online (:class:`~repro.contracts.online.ContractMonitor`, as a run's
  stream fills) and offline (:func:`~repro.contracts.offline.check_trace`,
  over a loaded trace), each folding :class:`Fact` views of the same
  columns, so the two agree by construction.
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
from typing import Callable, Optional

from repro.contracts.report import ContractReport, ContractViolation

#: Sentinel event-name tuple meaning "every event type" (clock checks).
ALL_EVENTS: tuple = ("*",)


# ----------------------------------------------------------------------
# Facts: one event as a checker sees it, backend-neutral
# ----------------------------------------------------------------------


class Fact:
    """Event ``index`` of an :class:`~repro.replay.trace.EventColumns`,
    as a checker sees it: a run's stream as it fills (online) or a
    loaded trace (offline).  The header is read directly
    (``index``/``type``/``time``/``node``), payload cells via :meth:`get`,
    evidence via :meth:`line`."""

    __slots__ = ("index", "type", "time", "node", "_events")

    def __init__(self, events, index: int):
        self.index = index
        self.type = events.types[index]
        self.time = events.times[index]
        self.node = events.nodes[index]
        self._events = events

    def get(self, name: str):
        """The recorded event's cell of that name."""
        at = self._events.positions[self.type].get(name)
        return None if at is None else self._events.rows[self.index][at]

    def line(self) -> str:
        """The recorded event's line (rendered per call; cite sparingly)."""
        return self._events[self.index].line


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
    ``on_event(fact)`` / ``finish()`` methods.
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
    """The one fold core: fresh checker folds, an event-name dispatch
    table honouring each contract's declared ``events`` filter, and the
    report assembly.  One bank per checked stream, fed through
    :meth:`feed` by the online monitor and the offline fold alike.

    ``sink``, when set, receives each violation the moment a fold
    records it (the monitor's hook for emitting ``ContractViolated``
    events mid-run); end-of-run liveness violations surface only in the
    report.
    """

    def __init__(self, contracts, sink: Optional[Callable] = None):
        self.contracts = tuple(contracts)
        self._checkers = [(c, c.state()) for c in self.contracts]
        self._dispatch: dict = {}
        self._broad: list = []
        #: Per-type fused dispatch (broad + type-specific, declaration
        #: order), built lazily on first sight of each type — one dict
        #: hit per event on the hot path.
        self._by_type: dict = {}
        self.count = 0
        for contract, state in self._checkers:
            if sink is not None:
                state.sink = sink
            if contract.events == ALL_EVENTS:
                self._broad.append(state)
            else:
                for event_name in contract.events:
                    self._dispatch.setdefault(event_name, []).append(state)

    def feed(self, events, index: int) -> None:
        """Fold event ``index`` of the columns ``events`` into every
        checker that reads its type; a type none reads builds no fact."""
        self.count += 1
        kind = events.types[index]
        states = self._by_type.get(kind)
        if states is None:
            states = self._by_type[kind] = self._broad + self._dispatch.get(kind, [])
        if states:
            fact = Fact(events, index)
            for state in states:
                state.on_event(fact)

    def report(self, name: str = "contracts") -> ContractReport:
        """Run the liveness phase and assemble the report (read-only)."""
        verdicts: dict = {}
        violations: list = []
        for contract, state in self._checkers:
            found = list(state.violations) + list(state.finish())
            verdicts[contract.name] = "fail" if found else "pass"
            violations.extend(found)
        return ContractReport(
            name=name, verdicts=verdicts, violations=tuple(violations),
            events=self.count,
        )


# ----------------------------------------------------------------------
# Checker folds for the shipped event contracts
# ----------------------------------------------------------------------


class BaseChecker:
    """Common checker plumbing: a violation list and a no-op finish.

    The rule incremental folds stand on: only :meth:`on_event` mutates
    a checker, so a bank that was reported can be fed further and
    reported again, and answers as a fresh one would."""

    NAME = "contract"

    #: Optional callable receiving each violation as it is recorded
    #: (the online monitor's emission hook); set by the bank.
    sink: Optional[Callable] = None

    def __init__(self) -> None:
        self.violations: list = []

    def violate(self, fact: Optional[Fact], message: str,
                evidence: tuple = ()) -> None:
        """Record one violation anchored at ``fact`` (or end-of-run)."""
        violation = ContractViolation(
            contract=self.NAME,
            message=message,
            index=None if fact is None else fact.index,
            time=None if fact is None else fact.time,
            node=None if fact is None else fact.node,
            evidence=evidence,
        )
        self.violations.append(violation)
        if self.sink is not None:
            self.sink(violation)

    def on_event(self, fact: Fact) -> None:
        """Fold one event (override)."""

    def finish(self) -> list:
        """End-of-run (liveness) violations; default none.  Read-only."""
        return []


class ExactlyOnceChecker(BaseChecker):
    """``exactly_once_delivery``: no RPC call id ever completes twice."""

    NAME = "exactly_once_delivery"

    def __init__(self) -> None:
        super().__init__()
        self._completed: dict = {}

    def on_event(self, fact: Fact) -> None:
        """Track completions per call id; a repeat is a violation."""
        call_id = fact.get("call_id")
        prev = self._completed.get(call_id)
        if prev is None:
            self._completed[call_id] = fact
            return
        self.violate(
            fact,
            f"call {call_id} completed twice "
            f"(first at event {prev.index}, again at event {fact.index})",
            evidence=(prev.line(), fact.line()),
        )


class StaleRebootChecker(BaseChecker):
    """``at_most_once_after_reboot``: a call the rebooted server refused
    as stale must never subsequently complete (that would mean the
    pre-reboot execution leaked through the dedup barrier)."""

    NAME = "at_most_once_after_reboot"

    def __init__(self) -> None:
        super().__init__()
        self._stale: dict = {}

    def on_event(self, fact: Fact) -> None:
        """Remember stale rejections; completion afterwards violates."""
        call_id = fact.get("call_id")
        if fact.type == "RpcStaleRejected":
            self._stale.setdefault(call_id, fact)
            return
        stale = self._stale.get(call_id)
        if stale is not None:
            self.violate(
                fact,
                f"call {call_id} completed at event {fact.index} after a "
                f"stale rejection at event {stale.index}",
                evidence=(stale.line(), fact.line()),
            )


class ClockMonotonicityChecker(BaseChecker):
    """``clock_monotonicity``: per-node event times never run backwards
    (a reboot may reset the node's cursor; the check restarts there)."""

    NAME = "clock_monotonicity"

    def __init__(self) -> None:
        super().__init__()
        self._last: dict = {}

    def on_event(self, fact: Fact) -> None:
        """Fold every event; compare against the node's running max."""
        node = fact.node
        if node is None:
            return
        if fact.type == "NodeRebooted":
            self._last[node] = fact.time
            return
        prev = self._last.get(node)
        if prev is not None and fact.time < prev:
            self.violate(
                fact,
                f"node {node} time ran backwards: t={fact.time} after "
                f"t={prev} at event {fact.index}",
                evidence=(fact.line(),),
            )
        if prev is None or fact.time > prev:
            self._last[node] = fact.time


class HaltTransparencyChecker(BaseChecker):
    """``halt_transparency``: a halted node's frozen timers must not
    fire — no retransmissions while its timer set is frozen (§5.2's
    transparency guarantee, stated as a stream invariant)."""

    NAME = "halt_transparency"

    def __init__(self) -> None:
        super().__init__()
        self._frozen: dict = {}

    def on_event(self, fact: Fact) -> None:
        """Track freeze windows per node; retries inside one violate."""
        node = fact.node
        if fact.type == "TimerFrozen":
            self._frozen[node] = fact
        elif fact.type == "TimerThawed":
            self._frozen.pop(node, None)
        elif fact.type == "RpcCallRetried":
            window = self._frozen.get(node)
            if window is not None:
                self.violate(
                    fact,
                    f"node {node} retransmitted call {fact.get('call_id')} "
                    f"while halted (frozen since event {window.index})",
                    evidence=(window.line(), fact.line()),
                )


class NoLostCallsChecker(BaseChecker):
    """``no_lost_calls`` (liveness): every started RPC call completes.

    Failed and never-resolved calls both count as lost; violations are
    reported at end of run, anchored at the call's start event."""

    NAME = "no_lost_calls"

    def __init__(self) -> None:
        super().__init__()
        self._open: dict = {}

    def on_event(self, fact: Fact) -> None:
        """Open on start, close on completion."""
        call_id = fact.get("call_id")
        if fact.type == "RpcCallStarted":
            self._open[call_id] = fact
        elif fact.type == "RpcCallCompleted":
            self._open.pop(call_id, None)

    def finish(self) -> list:
        """One violation per call that never completed."""
        found = []
        for call_id, fact in self._open.items():
            found.append(ContractViolation(
                contract=self.NAME,
                message=(
                    f"call {call_id} "
                    f"({fact.get('service')}.{fact.get('proc')}) started at "
                    f"event {fact.index} never completed"
                ),
                index=fact.index,
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

    def on_event(self, fact: Fact) -> None:
        """Fold ``leader`` observations; a second claimant violates."""
        if fact.get("kind") != "leader":
            return
        term = fact.get("key")
        claim = self._terms.get(term)
        if claim is None:
            self._terms[term] = fact
            return
        if claim.node != fact.node:
            self.violate(
                fact,
                f"split brain: term {term} claimed by node {fact.node} at "
                f"event {fact.index} (node {claim.node} already led since "
                f"event {claim.index})",
                evidence=(claim.line(), fact.line()),
            )


class _Op:
    """One client operation reconstructed from invoke/return observations."""

    __slots__ = ("op", "key", "value", "invoked", "returned", "node",
                 "pid", "invoke_fact", "return_fact")

    def __init__(self, op, key, value, invoked, node, pid, invoke_fact=None):
        self.op = op
        self.key = key
        self.value = value
        self.invoked = invoked
        self.returned = None
        self.node = node
        self.pid = pid
        self.invoke_fact = invoke_fact
        self.return_fact = None


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

    def on_event(self, fact: Fact) -> None:
        """Pair invoke/return observations into operations."""
        kind = fact.get("kind")
        if kind == "invoke":
            self._pending[(fact.node, fact.get("pid"))] = _Op(
                fact.get("op"), fact.get("key"), fact.get("value"),
                fact.index, fact.node, fact.get("pid"), fact,
            )
        elif kind == "return":
            op = self._pending.pop((fact.node, fact.get("pid")), None)
            if op is None:
                return
            op.returned = fact.index
            op.value = fact.get("value")
            op.return_fact = fact
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
        evidence = tuple(fact.line()
                         for fact in (read.invoke_fact, read.return_fact)
                         if fact is not None)
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
