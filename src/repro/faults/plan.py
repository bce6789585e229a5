"""Seeded nemesis schedules: declarative fault plans over a cluster.

A :class:`FaultPlan` is a list of :class:`FaultAction` entries at
absolute virtual times; :class:`Nemesis` applies one to a cluster by
scheduling ordinary world events, so fault timing interleaves with the
workload deterministically — same seed, same plan, same event stream.

Window-style actions (``loss``, ``nack``, ``delay``, ``duplicate``,
``reorder``, and ``partition`` with a duration) emit ``FaultInjected``
when they open and ``FaultHealed`` when they close; ``crash`` emits
``FaultInjected`` and ``reboot`` leads to the node's own
``NodeRebooted``.

Example::

    plan = (FaultPlan()
        .crash(at=200 * MS, node="server")
        .reboot(at=400 * MS, node="server")
        .partition(at=800 * MS, groups=[[0, 2], [1]], duration=150 * MS)
        .delay(at=1 * SEC, duration=300 * MS, extra=5 * MS, jitter=2 * MS))
    Nemesis(cluster, plan)
    cluster.run(until=5 * SEC)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.faults import shaper as sh
from repro.faults.shaper import FaultRule, LinkShaper
from repro.obs import events as ev

if TYPE_CHECKING:
    from repro.cluster import Cluster

NodeRef = Union[int, str]


@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault.  ``kind`` is one of ``crash``, ``reboot``,
    ``partition``, ``heal``, ``loss``, ``nack``, ``delay``,
    ``duplicate``, ``reorder``, ``link_down``."""

    at: int
    kind: str
    node: Optional[NodeRef] = None
    groups: tuple = ()
    #: Window length for rule/partition actions; ``None`` leaves the
    #: fault active until an explicit ``heal``.
    duration: Optional[int] = None
    probability: float = 1.0
    extra: int = 0
    jitter: int = 0
    src: Optional[int] = None
    dst: Optional[int] = None


@dataclass
class FaultPlan:
    """A builder-style list of fault actions."""

    actions: list[FaultAction] = field(default_factory=list)

    def _add(self, action: FaultAction) -> "FaultPlan":
        self.actions.append(action)
        return self

    def crash(self, at: int, node: NodeRef) -> "FaultPlan":
        """Fail-stop ``node`` at time ``at`` (volatile state is lost)."""
        return self._add(FaultAction(at, "crash", node=node))

    def reboot(self, at: int, node: NodeRef) -> "FaultPlan":
        """Restart a crashed ``node`` at time ``at``."""
        return self._add(FaultAction(at, "reboot", node=node))

    def partition(
        self,
        at: int,
        groups: Sequence[Sequence[int]],
        duration: Optional[int] = None,
    ) -> "FaultPlan":
        """Split the network into ``groups`` at ``at``; heal after ``duration``."""
        frozen = tuple(tuple(group) for group in groups)
        return self._add(
            FaultAction(at, "partition", groups=frozen, duration=duration)
        )

    def heal(self, at: int) -> "FaultPlan":
        """Remove every partition at time ``at``."""
        return self._add(FaultAction(at, "heal"))

    def loss(self, at: int, duration: int, probability: float = 1.0,
             src: Optional[int] = None, dst: Optional[int] = None) -> "FaultPlan":
        """Silently drop matching packets for ``duration`` with ``probability``."""
        return self._add(FaultAction(
            at, "loss", duration=duration, probability=probability,
            src=src, dst=dst,
        ))

    def nack(self, at: int, duration: int, probability: float = 1.0,
             src: Optional[int] = None, dst: Optional[int] = None) -> "FaultPlan":
        """Drop matching packets *with* sender notification (NACK) for ``duration``."""
        return self._add(FaultAction(
            at, "nack", duration=duration, probability=probability,
            src=src, dst=dst,
        ))

    def delay(self, at: int, duration: int, extra: int, jitter: int = 0,
              src: Optional[int] = None, dst: Optional[int] = None) -> "FaultPlan":
        """Add ``extra`` (+- ``jitter``) latency to matching packets for ``duration``."""
        return self._add(FaultAction(
            at, "delay", duration=duration, extra=extra, jitter=jitter,
            src=src, dst=dst,
        ))

    def duplicate(self, at: int, duration: int, probability: float = 1.0,
                  src: Optional[int] = None, dst: Optional[int] = None) -> "FaultPlan":
        """Deliver matching packets twice with ``probability`` for ``duration``."""
        return self._add(FaultAction(
            at, "duplicate", duration=duration, probability=probability,
            src=src, dst=dst,
        ))

    def reorder(self, at: int, duration: int, probability: float = 1.0,
                src: Optional[int] = None, dst: Optional[int] = None) -> "FaultPlan":
        """Randomly re-queue matching packets with ``probability`` for ``duration``."""
        return self._add(FaultAction(
            at, "reorder", duration=duration, probability=probability,
            src=src, dst=dst,
        ))

    def link_down(self, at: int, src: int, dst: int,
                  duration: Optional[int] = None) -> "FaultPlan":
        """Cut the directed link ``src -> dst`` at ``at``.

        Packets on the link fail with hardware-visible NACKs, exactly
        like a crashed destination interface — a cable pull, not
        congestion.  On the mesh this downs one physical link; on the
        ring it models a station refusing one peer's minipackets.  The
        cut is one-directional: take both directions down for a full
        link failure.  ``duration=None`` leaves it down for the run.
        """
        return self._add(FaultAction(
            at, "link_down", duration=duration, src=src, dst=dst,
        ))

    def __len__(self) -> int:
        return len(self.actions)

    # ------------------------------------------------------------------
    # Splitting / merging (the campaign shrinker's step primitives)
    # ------------------------------------------------------------------

    #: Action kinds that open a window (have a ``duration`` to narrow).
    WINDOW_KINDS = frozenset({
        "partition", "loss", "nack", "delay", "duplicate", "reorder",
        "link_down",
    })

    def split(self) -> list["FaultPlan"]:
        """One single-action plan per action, in plan order.

        ``FaultPlan.merge(plan.split())`` reproduces a time-sorted plan
        exactly; the shrinker drops members of this list to test smaller
        plans.  An empty plan splits into an empty list.
        """
        return [FaultPlan(actions=[action]) for action in self.actions]

    @classmethod
    def merge(cls, plans: Sequence["FaultPlan"]) -> "FaultPlan":
        """Combine plans into one, actions stably sorted by fire time.

        The sort is stable, so overlapping windows keep their relative
        order within and across the input plans — merging preserves the
        deterministic firing order of same-time actions.  Merging no
        plans yields the empty plan.
        """
        actions = [action for plan in plans for action in plan.actions]
        actions.sort(key=lambda action: action.at)
        return cls(actions=actions)

    def without(self, indices) -> "FaultPlan":
        """A copy of the plan with the actions at ``indices`` removed."""
        drop = set(indices)
        return FaultPlan(actions=[
            action for i, action in enumerate(self.actions) if i not in drop
        ])

    def narrowed(self, index: int, factor: int = 2) -> "FaultPlan":
        """A copy with action ``index``'s fault window cut by ``factor``.

        Only window actions (those with a ``duration``) can be narrowed;
        the floor is one microsecond.  Raises ``ValueError`` for
        point-in-time actions (crash/reboot/heal) or un-windowed rules.
        """
        action = self.actions[index]
        if action.duration is None:
            raise ValueError(
                f"action #{index} ({action.kind}) has no window to narrow"
            )
        shrunk = FaultAction(
            at=action.at,
            kind=action.kind,
            node=action.node,
            groups=action.groups,
            duration=max(1, action.duration // factor),
            probability=action.probability,
            extra=action.extra,
            jitter=action.jitter,
            src=action.src,
            dst=action.dst,
        )
        actions = list(self.actions)
        actions[index] = shrunk
        return FaultPlan(actions=actions)

    def window_count(self) -> int:
        """How many actions open a fault window (the shrinker's size
        measure: crash/reboot pairs count as one disruption each)."""
        return sum(
            1 for action in self.actions
            if action.kind in self.WINDOW_KINDS or action.kind == "crash"
        )

    # ------------------------------------------------------------------
    # Serialization (the replay trace header embeds the plan)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-serializable form of the plan; see :meth:`from_dict`."""
        return {
            "actions": [
                {
                    "at": action.at,
                    "kind": action.kind,
                    "node": action.node,
                    "groups": [list(group) for group in action.groups],
                    "duration": action.duration,
                    "probability": action.probability,
                    "extra": action.extra,
                    "jitter": action.jitter,
                    "src": action.src,
                    "dst": action.dst,
                }
                for action in self.actions
            ]
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output.  The round-trip is
        exact: ``FaultPlan.from_dict(plan.to_dict()) == plan``."""
        actions = [
            FaultAction(
                at=entry["at"],
                kind=entry["kind"],
                node=entry.get("node"),
                groups=tuple(tuple(group) for group in entry.get("groups", ())),
                duration=entry.get("duration"),
                probability=entry.get("probability", 1.0),
                extra=entry.get("extra", 0),
                jitter=entry.get("jitter", 0),
                src=entry.get("src"),
                dst=entry.get("dst"),
            )
            for entry in data.get("actions", [])
        ]
        return cls(actions=actions)


class Nemesis:
    """Applies fault plans to a cluster via the world event queue."""

    #: Action kinds that install a shaper rule for a window.
    _RULE_KINDS = {
        "loss": sh.LOSS,
        "nack": sh.NACK,
        "delay": sh.DELAY,
        "duplicate": sh.DUPLICATE,
        "reorder": sh.REORDER,
        # A downed link is a scoped always-on NACK: hardware-visible
        # non-receipt on one directed pair (see FaultPlan.link_down).
        "link_down": sh.NACK,
    }

    def __init__(self, cluster: "Cluster", plan: Optional[FaultPlan] = None):
        self.cluster = cluster
        self.world = cluster.world
        self.bus = cluster.world.bus
        self.shaper = cluster.net.shaper or LinkShaper(cluster.net)
        self.faults_fired = 0
        self._next_fault_id = 0
        if plan is not None:
            self.schedule(plan)

    def schedule(self, plan: FaultPlan) -> None:
        """Queue every action of ``plan`` at its absolute virtual time."""
        for action in plan.actions:
            self.world.schedule_at(action.at, self._fire, action)

    # ------------------------------------------------------------------

    def _emit_injected(self, action: FaultAction, node: Optional[int],
                       detail: str) -> int:
        self._next_fault_id += 1
        fault_id = self._next_fault_id
        self.bus.emit(ev.FaultInjected, self.world.now, node, action.kind, fault_id, detail)
        return fault_id

    def _emit_healed(self, kind: str, fault_id: int) -> None:
        self.bus.emit(ev.FaultHealed, self.world.now, None, kind, fault_id)

    def _fire(self, action: FaultAction) -> None:
        self.faults_fired += 1
        if action.kind == "crash":
            node = self.cluster.node(action.node)
            self._emit_injected(action, node.node_id, node.name)
            node.crash()
        elif action.kind == "reboot":
            # Node.reboot emits NodeRebooted itself.
            self.cluster.reboot(action.node)
        elif action.kind == "partition":
            self.shaper.partition(action.groups)
            detail = "|".join(str(sorted(g)) for g in self.shaper.partition_groups)
            fault_id = self._emit_injected(action, None, detail)
            if action.duration is not None:
                self.world.schedule(action.duration, self._heal_partition, fault_id)
        elif action.kind == "heal":
            self.shaper.heal_partition()
            self._emit_healed("partition", 0)
        elif action.kind in self._RULE_KINDS:
            rule = FaultRule(
                self._RULE_KINDS[action.kind],
                probability=action.probability,
                src=action.src,
                dst=action.dst,
                extra=action.extra,
                jitter=action.jitter,
            )
            self.shaper.add_rule(rule)
            fault_id = self._emit_injected(action, action.dst, repr(rule))
            if action.duration is not None:
                self.world.schedule(
                    action.duration, self._end_rule, action.kind, rule, fault_id
                )
        else:
            raise ValueError(f"unknown fault kind {action.kind!r}")

    def _heal_partition(self, fault_id: int) -> None:
        self.shaper.heal_partition()
        self._emit_healed("partition", fault_id)

    def _end_rule(self, kind: str, rule: FaultRule, fault_id: int) -> None:
        self.shaper.remove_rule(rule)
        self._emit_healed(kind, fault_id)

    def __repr__(self) -> str:
        return f"<Nemesis fired={self.faults_fired}>"
