"""Branching time travel: fork-and-perturb what-if exploration.

A recorded trace pins a whole execution; this module turns any of its
checkpoints into a **branch point**.  :func:`fork_trace` re-executes the
recording's recipe in-process through the one executor (the parent
trace is never touched), merges a :class:`Perturbation` into the
recorded fault plan so the delta fires at or after the fork point, and
seals the divergent future as an ordinary child
:class:`~repro.replay.trace.Trace`.  Because the simulation is
deterministic, the child reproduces the parent's prefix before the
delta first fires (the running-max rule ``at(t)`` uses) — forking is
"replay plus one new decision", not an approximation.

Branches are first-class debugger objects held in a navigable
:class:`BranchTree`.  A branch's identity is **content-addressed** the
way the campaign journal addresses cells: ``sha256`` over the parent
trace fingerprint, the checkpoint index, and the canonical perturbation
spec — so forking the same what-if twice dedupes to the same branch
instead of re-running it.

Perturbations are :class:`~repro.faults.plan.FaultAction` deltas: any
:class:`~repro.faults.plan.FaultPlan` builder kind (crash, partition,
delay, ...), or :meth:`Perturbation.flip_race`, which compiles a
:class:`~repro.replay.races.MessageRace` reported by
:func:`~repro.replay.races.detect_races` into a targeted delivery delay
that makes the second racing message overtake the first.

:func:`diff_branches` is the MAD-style event-graph diff between any two
branches: the first divergent event, per-node divergence times, and
halt-state/count deltas of the two final states.

The surface is wired end to end: ``fork`` / ``branches`` /
``diff_branches`` on :class:`~repro.debugger.pilgrim.Pilgrim` and
:class:`~repro.replay.session.TraceSession`, the REPL commands ``fork``
/ ``branches`` / ``diff``, and the service daemon's ``branch`` session
kind (a branch is just another dormant session spec).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from itertools import zip_longest
from typing import Callable, Optional, Union

from repro.debugger.api import Record
from repro.debugger.errors import DebuggerError, register_error
from repro.faults.plan import FaultAction, FaultPlan
from repro.obs.recorder import render_line
from repro.replay.races import MessageRace, deliveries
from repro.replay.replay import Recipe, execute, require_same_events, require_same_prefix
from repro.replay.trace import Trace

#: Perturbation kinds the REPL's ``fork`` command accepts — exactly the
#: :class:`~repro.faults.plan.FaultPlan` builder methods.
FAULT_KINDS = (
    "crash", "reboot", "partition", "heal", "loss", "nack",
    "delay", "duplicate", "reorder", "link_down",
)


@register_error
class BranchError(DebuggerError):
    """A fork/branch request that cannot be satisfied.

    Raised for unknown branch ids, out-of-range checkpoints,
    perturbations scheduled before their fork point and missing
    scenario builders.
    Part of the :mod:`repro.debugger.errors` hierarchy (stable wire code
    ``branch``) so the session daemon relays it losslessly.
    """

    code = "branch"


# ----------------------------------------------------------------------
# Perturbation specs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Perturbation:
    """The delta a fork applies to the recorded fault plan.

    ``actions`` are ordinary :class:`~repro.faults.plan.FaultAction`
    entries at absolute virtual times; every one must fire at or after
    the fork checkpoint's time (:meth:`validate`), which is what keeps
    the pre-fork prefix byte-identical to the parent.  ``kind`` names
    the spec for listings (a fault-plan builder kind, or
    ``"flip_race"``); ``note`` is free-form context.
    """

    kind: str
    actions: tuple = ()
    note: str = ""

    @classmethod
    def from_plan(cls, plan: FaultPlan, kind: str = "fault",
                  note: str = "") -> "Perturbation":
        """Wrap a hand-built :class:`FaultPlan` delta as a perturbation."""
        return cls(kind=kind, actions=tuple(plan.actions), note=note)

    @classmethod
    def flip_race(cls, trace: Trace, race: MessageRace,
                  margin: int = 1000) -> "Perturbation":
        """Compile a detected message race into a delivery reordering.

        Finds the two racing deliveries in ``trace``, locates the send
        of the message that arrived *first*, and emits one targeted
        ``delay`` action (scoped to that source → destination pair,
        windowed to cover the first send but not the second) whose extra
        latency pushes the first delivery ``margin`` microseconds past
        the second — so a fork running this perturbation experiences the
        opposite arrival order, the one the other run of the race pair
        observed.
        """
        first = _find_delivery(trace, race.dst, race.first)
        second = _find_delivery(trace, race.dst, race.second)
        send_first = _find_send(trace, first.fields["packet"]["pkt"])
        send_second = _find_send(trace, second.fields["packet"]["pkt"])
        extra = (second.time - first.time) + margin
        if send_second.time > send_first.time:
            duration = send_second.time - send_first.time
        else:
            duration = margin
        action = FaultAction(
            at=send_first.time, kind="delay", duration=duration,
            extra=extra, src=race.first[0], dst=race.dst,
        )
        return cls(
            kind="flip_race", actions=(action,),
            note=(f"delay {race.first} past {race.second} "
                  f"at node {race.dst}"),
        )

    def validate(self, fork_time: int) -> None:
        """Reject actions that would fire before the fork point.

        An action earlier than the fork checkpoint would perturb the
        shared prefix, and the branch would no longer be a fork of that
        moment — it would be a different execution altogether.
        """
        if not self.actions:
            return
        earliest = min(action.at for action in self.actions)
        if earliest < fork_time:
            raise BranchError(
                f"perturbation fires at t={earliest}us, before the fork "
                f"checkpoint at t={fork_time}us; fork from an earlier "
                f"checkpoint or move the action later"
            )

    def first_at(self) -> Optional[int]:
        """Virtual time of the earliest delta action (``None`` if empty)."""
        return min((action.at for action in self.actions), default=None)

    def to_dict(self) -> dict:
        """JSON-serializable form; exact round-trip via :meth:`from_dict`."""
        return {
            "kind": self.kind,
            "note": self.note,
            "actions": FaultPlan(actions=list(self.actions)).to_dict()["actions"],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Perturbation":
        """Rebuild from :meth:`to_dict` output (wire/spec form)."""
        plan = FaultPlan.from_dict({"actions": data.get("actions", [])})
        return cls(kind=data.get("kind", "fault"),
                   actions=tuple(plan.actions),
                   note=data.get("note", ""))

    def canonical(self) -> str:
        """Canonical JSON encoding, the content-addressing input."""
        return json.dumps(self.to_dict(), sort_keys=True)


def as_perturbation(spec: Union["Perturbation", dict]) -> "Perturbation":
    """Accept a :class:`Perturbation` or its wire dict form."""
    if isinstance(spec, Perturbation):
        return spec
    if isinstance(spec, dict):
        return Perturbation.from_dict(spec)
    raise BranchError(
        f"perturbation must be a Perturbation or spec dict, "
        f"not {type(spec).__name__}"
    )


def parse_perturbation(kind: str, pairs: list,
                       parse_time: Callable[[str], int] = int) -> Perturbation:
    """Build a perturbation from REPL-style ``key=value`` arguments.

    ``kind`` is a :class:`FaultPlan` builder name (:data:`FAULT_KINDS`);
    time-valued keys go through ``parse_time`` (the REPL passes its
    duration parser, so ``at=300ms`` works), ``groups`` uses the
    ``0,2|1`` spelling, and everything else parses as int/float/str.
    """
    if kind not in FAULT_KINDS:
        raise BranchError(
            f"unknown perturbation kind {kind!r} "
            f"(known: {', '.join(FAULT_KINDS)})"
        )
    time_keys = {"at", "duration", "extra", "jitter"}
    kwargs: dict = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise BranchError(f"expected key=value, got {pair!r}")
        if key in time_keys:
            kwargs[key] = parse_time(raw)
        elif key in ("src", "dst"):
            kwargs[key] = int(raw)
        elif key == "probability":
            kwargs[key] = float(raw)
        elif key == "groups":
            kwargs[key] = tuple(
                tuple(int(n) for n in group.split(",") if n)
                for group in raw.split("|")
            )
        else:
            kwargs[key] = raw
    plan = FaultPlan()
    try:
        getattr(plan, kind)(**kwargs)
    except TypeError as exc:
        raise BranchError(f"bad {kind} arguments: {exc}") from None
    return Perturbation(kind=kind, actions=tuple(plan.actions))


# ----------------------------------------------------------------------
# Scenario builders by reference (picklable/spec-able fork inputs)
# ----------------------------------------------------------------------


def resolve_builder(ref: Union[str, Callable]) -> Callable:
    """Resolve a scenario builder reference to a callable.

    Accepts a callable unchanged, ``"scenario:NAME"`` for the campaign
    catalogue (:data:`repro.campaign.scenarios.SCENARIOS`), or a dotted
    ``"package.module:function"`` path — the JSON-safe spellings a
    service session spec can carry.
    """
    if callable(ref):
        return ref
    if not isinstance(ref, str) or ":" not in ref:
        raise BranchError(
            f"builder reference must be callable, 'scenario:NAME', or "
            f"'module:function', not {ref!r}"
        )
    prefix, _, name = ref.partition(":")
    if prefix == "scenario":
        from repro.campaign.scenarios import get_scenario
        try:
            return get_scenario(name).build
        except KeyError as exc:
            raise BranchError(str(exc.args[0])) from None
    import importlib
    try:
        module = importlib.import_module(prefix)
    except ImportError as exc:
        raise BranchError(f"cannot import builder module {prefix!r}: {exc}") \
            from None
    build = getattr(module, name, None)
    if not callable(build):
        raise BranchError(f"{ref!r} does not name a callable builder")
    return build


# ----------------------------------------------------------------------
# The fork engine
# ----------------------------------------------------------------------


def _resolve_checkpoint(parent: Trace, checkpoint_index: int):
    """Index into the parent's checkpoints, with a typed error."""
    try:
        return parent.checkpoint(checkpoint_index)
    except IndexError as exc:
        raise BranchError(str(exc)) from None


def fork_trace(
    parent: Trace,
    build: Callable,
    checkpoint_index: int,
    perturbation: Union[Perturbation, dict],
    run_until: Optional[int] = None,
) -> Trace:
    """Fork ``parent`` at a checkpoint and return the divergent child.

    A fork is a replay plus one decision: :func:`~repro.replay.replay.execute`
    over the parent's :class:`Recipe`, its fault plan merged with the
    perturbation's delta (every action at or after the fork checkpoint)
    and its drive optionally overridden.  The spec is validated before
    anything runs: bad checkpoints and pre-fork actions raise
    :class:`BranchError`, a non-re-executable parent
    :class:`~repro.replay.replay.ReplayUnsupported`.  The parent trace is
    never touched.

    The child differs from the recording only from the time the delta
    first fires (or :meth:`Recipe.bound_cut`, if earlier), so it must reproduce the
    parent's events before :meth:`~repro.replay.trace.Trace.prefix_before`
    that time — the rule ``at(t)`` and a bounded replay use — or this
    raises :class:`~repro.replay.replay.ReplayDivergence`.
    """
    perturbation = as_perturbation(perturbation)
    checkpoint = _resolve_checkpoint(parent, checkpoint_index)
    perturbation.validate(checkpoint.time)
    recorded = Recipe.of(parent)
    recipe = recorded.running_until(run_until)
    delta = FaultPlan(actions=list(perturbation.actions))
    merged = FaultPlan.merge([plan for plan in (recipe.plan, delta) if plan is not None])
    meta = {
        "branch_of": parent.fingerprint(),
        "checkpoint": checkpoint_index,
        "fork_time": checkpoint.time,
        "perturbation": perturbation.to_dict(),
    }
    cluster, *_, child = execute(
        replace(recipe, plan=merged if merged.actions else None), build, meta=meta)
    cluster.close()
    cuts = [t for t in (perturbation.first_at(), recorded.bound_cut(run_until))
            if t is not None]
    if cuts:
        require_same_prefix(parent, child, min(cuts))
    else:
        require_same_events(parent, child)
    return child


def _find_delivery(trace: Trace, dst: int, key: tuple):
    """The ``PacketDelivered`` event a race key names (see races.py)."""
    for event, to, found in deliveries(trace):
        if to == dst and found == tuple(key):
            return event
    raise BranchError(f"no delivery {key} to node {dst} in this trace")


def _find_send(trace: Trace, pkt: int):
    """The ``PacketSent`` event with rebased packet id ``pkt``."""
    for event in trace.events.where("packet", pkt):
        if event.type == "PacketSent":
            return event
    raise BranchError(f"no send of packet {pkt} in this trace")


# ----------------------------------------------------------------------
# Branches and the tree
# ----------------------------------------------------------------------


def branch_key(parent_fingerprint: str, checkpoint_index: int,
               perturbation: Perturbation,
               run_until: Optional[int] = None) -> str:
    """Content address of a fork: identical what-ifs hash identically.

    Same scheme as the campaign journal's cell keys — ``sha256`` over a
    canonical JSON document of everything that determines the child
    trace: the parent's stream fingerprint, the checkpoint, the
    perturbation spec, and any drive override.
    """
    blob = json.dumps({
        "parent": parent_fingerprint,
        "checkpoint": checkpoint_index,
        "perturbation": json.loads(perturbation.canonical()),
        "run_until": run_until,
    }, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class BranchInfo(Record):
    """Wire record describing one branch (the ``branches`` listing row)."""

    id: str
    parent: Optional[str]
    checkpoint: int
    fork_time: int
    kind: str
    note: str
    actions: int
    events: int
    final_time: int
    fingerprint: str


@dataclass(frozen=True)
class BranchDiff(Record):
    """MAD-style event-graph diff between two branches.

    ``first_divergence`` pinpoints the first event index where the two
    normalized streams differ (``None`` when identical), with the
    diverging line and virtual time on each side; ``per_node`` maps each
    diverging node to the time its own event subsequence first departs;
    ``halted_a``/``halted_b`` and ``count_delta`` compare the two final
    folded states.  ``contracts_a``/``contracts_b`` are each side's
    per-contract verdict map (the offline fold) and
    ``first_contract_divergence`` the first contract — in declaration
    order — the two sides judge differently (``None`` when every verdict
    agrees): the invariant-level diff on top of the event-level one.
    """

    identical: bool
    first_divergence: Optional[dict]
    per_node: dict
    halted_a: dict
    halted_b: dict
    count_delta: dict
    events_a: int
    events_b: int
    final_time_a: int
    final_time_b: int
    contracts_a: dict = field(default_factory=dict)
    contracts_b: dict = field(default_factory=dict)
    first_contract_divergence: Optional[dict] = None


@dataclass
class Branch:
    """One node of a :class:`BranchTree`: a trace plus its provenance."""

    id: str
    parent: Optional[str]
    checkpoint: int
    fork_time: int
    perturbation: Optional[Perturbation]
    trace: Trace = field(repr=False)

    def info(self) -> BranchInfo:
        """The wire/listing record for this branch."""
        pert = self.perturbation
        return BranchInfo(
            id=self.id,
            parent=self.parent,
            checkpoint=self.checkpoint,
            fork_time=self.fork_time,
            kind=pert.kind if pert is not None else "root",
            note=pert.note if pert is not None else "",
            actions=len(pert.actions) if pert is not None else 0,
            events=self.trace.n_events,
            final_time=self.trace.final_time,
            fingerprint=self.trace.fingerprint(),
        )


def diff_branches(trace_a: Trace, trace_b: Trace,
                  contracts=None) -> BranchDiff:
    """Event-graph diff of two executions of one scenario family.

    Symmetric by construction: ``diff_branches(b, a)`` is the same
    report with the ``a``/``b`` sides swapped.  ``contracts`` (default:
    the universal safety catalogue) is folded offline over both streams
    for the invariant-level comparison.
    """
    from repro.contracts.dsl import UNIVERSAL_SET
    from repro.contracts.offline import check_trace
    from repro.replay.timetravel import TimeTravel

    if contracts is None:
        contracts = UNIVERSAL_SET
    report_a = check_trace(trace_a, contracts)
    report_b = check_trace(trace_b, contracts)
    first_contract: Optional[dict] = None
    for name in report_a.verdicts:
        verdict_a = report_a.verdicts.get(name)
        verdict_b = report_b.verdicts.get(name)
        if verdict_a != verdict_b:
            first_contract = {"contract": name, "a": verdict_a,
                              "b": verdict_b}
            break

    # Compare columns; render only the lines a difference is cited with.
    events_a, events_b = trace_a.events, trace_b.events
    first: Optional[dict] = None
    index = events_a.first_difference(events_b)
    if index is not None:
        end_a, end_b = (events[index] if index < len(events) else None
                        for events in (events_a, events_b))
        first = {
            "index": index,
            "a": end_a and end_a.line,
            "b": end_b and end_b.line,
            "time_a": end_a and end_a.time,
            "time_b": end_b and end_b.time,
        }

    per_node: dict = {}
    by_node_a = _events_by_node(trace_a)
    by_node_b = _events_by_node(trace_b)
    for node in sorted(set(by_node_a) | set(by_node_b)):
        for cells_a, cells_b in zip_longest(by_node_a.get(node, ()),
                                            by_node_b.get(node, ())):
            if cells_a != cells_b and _line(cells_a) != _line(cells_b):
                per_node[node] = {"time_a": cells_a and cells_a[1],
                                  "time_b": cells_b and cells_b[1]}
                break

    view_a = TimeTravel(trace_a).at(trace_a.final_time).view
    view_b = TimeTravel(trace_b).at(trace_b.final_time).view
    halted_a = {n: list(p) for n, p in sorted(view_a.halted.items()) if p}
    halted_b = {n: list(p) for n, p in sorted(view_b.halted.items()) if p}
    count_delta = {
        key: [view_a.counts.get(key, 0), view_b.counts.get(key, 0)]
        for key in sorted(set(view_a.counts) | set(view_b.counts))
        if view_a.counts.get(key, 0) != view_b.counts.get(key, 0)
    }
    return BranchDiff(
        identical=first is None,
        first_divergence=first,
        per_node=per_node,
        halted_a=halted_a,
        halted_b=halted_b,
        count_delta=count_delta,
        events_a=len(events_a),
        events_b=len(events_b),
        final_time_a=trace_a.final_time,
        final_time_b=trace_b.final_time,
        contracts_a=dict(report_a.verdicts),
        contracts_b=dict(report_b.verdicts),
        first_contract_divergence=first_contract,
    )


def _events_by_node(trace: Trace) -> dict:
    """Per-node subsequences of the events, each as the cells its line
    renders from (bus-global events under -1)."""
    by_node: dict = {}
    for cells in zip(*trace.events.columns()):
        node = cells[2] if cells[2] is not None else -1
        by_node.setdefault(node, []).append(cells)
    return by_node


def _line(cells: Optional[tuple]) -> Optional[str]:
    return None if cells is None else render_line(*cells)


class BranchTree:
    """A navigable tree of divergent executions rooted at one trace.

    The root is the recorded execution itself; :meth:`fork` grows a
    child (or grandchild — any branch can be forked again) per
    perturbation, deduplicating by content address.  Branches are
    addressed by full id, any unique prefix, or ``"root"``.
    """

    def __init__(self, trace: Trace, build: Union[str, Callable, None] = None,
                 contracts=None):
        self.build = build
        #: Contract set judging this tree's branches (diffs, race
        #: classification); flip_race forks inherit it.  ``None`` means
        #: the universal safety catalogue.
        self.contracts = contracts
        root = Branch(
            id=trace.fingerprint(),
            parent=None,
            checkpoint=0,
            fork_time=trace.checkpoints[0].time if trace.checkpoints else 0,
            perturbation=None,
            trace=trace,
        )
        self.root = root
        self._branches: dict[str, Branch] = {root.id: root}

    def __len__(self) -> int:
        return len(self._branches)

    def get(self, ref: Optional[str]) -> Branch:
        """Resolve ``"root"``, a full branch id, or a unique id prefix."""
        if ref is None or ref == "root":
            return self.root
        exact = self._branches.get(ref)
        if exact is not None:
            return exact
        matches = [b for bid, b in self._branches.items()
                   if bid.startswith(ref)]
        if len(matches) == 1:
            return matches[0]
        if matches:
            raise BranchError(f"branch id prefix {ref!r} is ambiguous "
                              f"({len(matches)} matches)")
        raise BranchError(f"no branch {ref!r} (see 'branches')")

    def _builder(self) -> Callable:
        if self.build is None:
            raise BranchError(
                "no scenario builder attached to this trace session; "
                "pass build= (a callable, 'scenario:NAME', or "
                "'module:function') to fork"
            )
        return resolve_builder(self.build)

    def fork(
        self,
        perturbation: Union[Perturbation, dict],
        checkpoint: int = 0,
        parent: Optional[str] = None,
        run_until: Optional[int] = None,
    ) -> Branch:
        """Fork a branch (default: the root) at one of its checkpoints.

        Content-addressed: an identical (parent, checkpoint,
        perturbation, drive) spec returns the already-recorded branch
        without re-executing anything.  ``checkpoint`` counts from the
        first (``0 .. n - 1``); anything else is a :class:`BranchError`.
        """
        parent_branch = self.get(parent)
        pert = as_perturbation(perturbation)
        checkpoint_obj = _resolve_checkpoint(parent_branch.trace, checkpoint)
        bid = branch_key(parent_branch.trace.fingerprint(), checkpoint,
                         pert, run_until)
        existing = self._branches.get(bid)
        if existing is not None:
            return existing
        child_trace = fork_trace(parent_branch.trace, self._builder(),
                                 checkpoint, pert, run_until=run_until)
        branch = Branch(
            id=bid,
            parent=parent_branch.id,
            checkpoint=checkpoint,
            fork_time=checkpoint_obj.time,
            perturbation=pert,
            trace=child_trace,
        )
        self._branches[bid] = branch
        return branch

    def branches(self) -> list[BranchInfo]:
        """Listing rows for every branch, root first, insertion order."""
        return [branch.info() for branch in self._branches.values()]

    def lineage(self, ref: str) -> list[Branch]:
        """Root-to-branch path of ``ref`` (the branch's ancestry)."""
        chain: list[Branch] = []
        branch: Optional[Branch] = self.get(ref)
        while branch is not None:
            chain.append(branch)
            branch = (self._branches.get(branch.parent)
                      if branch.parent else None)
        chain.reverse()
        return chain

    def diff(self, a: str, b: str) -> BranchDiff:
        """Event-graph diff between two branches (by id/prefix/"root"),
        judged under this tree's contract set."""
        return diff_branches(self.get(a).trace, self.get(b).trace,
                             contracts=self.contracts)

    def __repr__(self) -> str:
        return f"<BranchTree branches={len(self._branches)}>"


def classify_races(tree: BranchTree, races: list,
                   checkpoint: int = 0) -> list:
    """The races → contracts bridge: which order inversions *matter*.

    For each detected :class:`~repro.replay.races.MessageRace`, forks
    the tree's root with :meth:`Perturbation.flip_race` (the fork
    inherits the tree's contract set via :attr:`BranchTree.contracts`)
    and folds the contracts over the flipped future.  A race whose flip
    turns any baseline-passing contract verdict into ``fail`` comes back
    tagged ``harmful=True``; a flip every contract survives is
    ``harmful=False``.  Races whose flip cannot be executed (e.g. the
    delay would fire before the fork checkpoint) are left unclassified
    (``harmful=None``).  Returns new race records in input order.
    """
    from repro.contracts.dsl import UNIVERSAL_SET
    from repro.contracts.offline import check_trace

    contracts = tree.contracts if tree.contracts is not None else UNIVERSAL_SET
    baseline = check_trace(tree.root.trace, contracts).verdicts
    classified: list = []
    for race in races:
        try:
            perturbation = Perturbation.flip_race(tree.root.trace, race)
            branch = tree.fork(perturbation, checkpoint=checkpoint)
        except BranchError:
            classified.append(race)
            continue
        flipped = check_trace(branch.trace, contracts).verdicts
        harmful = any(
            baseline.get(name) != "fail" and verdict == "fail"
            for name, verdict in flipped.items()
        )
        classified.append(replace(race, harmful=harmful))
    return classified
