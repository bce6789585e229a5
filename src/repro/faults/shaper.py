"""Transport-level packet shaping for fault injection.

The shaper hangs off any :class:`repro.net.base.Transport` backend
(``transport.shaper``) — ring or mesh — and is consulted at the two
fabric-agnostic decision points the base transport hosts:

* ``Transport.transmit`` asks :meth:`LinkShaper.forces_nack` —
  partitions and NACK windows surface as *hardware-visible* non-receipt,
  exactly like a crashed destination interface (paper §5.2), so
  NACK-driven retransmission (halt broadcast, exactly-once retries
  hitting a dead interface) exercises its real path; then
  :meth:`LinkShaper.delivery_offsets` turns one transmission into zero
  or more deliveries at relative offsets (delay/jitter, duplication,
  hold-back reordering).
* ``Transport._deliver`` asks :meth:`LinkShaper.drops` — lossy windows
  are *silent* software loss after interface receipt (paper §4.1),
  invisible to the sender.

Because the decision points live in the shared base class, one fault
plan means the same thing on every topology: a partition cuts the same
node groups, a NACK window fires at the same probability, a delay rule
shifts deliveries by the same offsets.

The shaper is the transport's only fault mechanism besides the seeded
``Params.packet_loss_probability``.  Rules match by optional
``src``/``dst`` node and an optional ``match`` packet predicate; the
nemesis toggles them for a plan's windows, and a test or example adds
its own for targeted faults::

    shaper = LinkShaper(cluster.net)
    shaper.add_rule(FaultRule(LOSS, match=lambda p: p.kind == "rpc_reply"))

With no active rules every method is a cheap no-op, and a transport
with ``shaper is None`` never calls in at all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

if TYPE_CHECKING:
    from repro.net.base import Transport
    from repro.net.packets import BasicBlock

#: Rule kinds, in the vocabulary of the ISSUE/paper taxonomy.
NACK = "nack"          # hardware-visible non-receipt
LOSS = "loss"          # silent software loss
DELAY = "delay"        # extra delivery latency (+ seeded jitter)
DUPLICATE = "duplicate"  # deliver the packet twice
REORDER = "reorder"    # hold a packet back past its successors


class FaultRule:
    """One active shaping rule; removed when its window closes.

    ``match`` (optional) narrows the ``src``/``dst`` scope to the
    packets a predicate picks, e.g. ``lambda p: p.kind == "rpc_call"``.
    The predicate runs before the probability draw, so a packet it
    rejects consumes no randomness.
    """

    __slots__ = ("kind", "probability", "src", "dst", "extra", "jitter", "match")

    def __init__(
        self,
        kind: str,
        probability: float = 1.0,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        extra: int = 0,
        jitter: int = 0,
        match: Optional[Callable[["BasicBlock"], bool]] = None,
    ):
        self.kind = kind
        self.probability = probability
        self.src = src
        self.dst = dst
        self.extra = extra
        self.jitter = jitter
        self.match = match

    def matches(self, packet: "BasicBlock") -> bool:
        """Does this rule's src/dst scope and ``match`` cover ``packet``?"""
        if self.src is not None and packet.src != self.src:
            return False
        if self.dst is not None and packet.dst != self.dst:
            return False
        return self.match is None or self.match(packet)

    def __repr__(self) -> str:
        scope = f"{self.src if self.src is not None else '*'}->" \
                f"{self.dst if self.dst is not None else '*'}"
        return f"<FaultRule {self.kind} p={self.probability} {scope}>"


class LinkShaper:
    """Partition state plus the active shaping rules for one transport."""

    def __init__(self, transport: "Transport"):
        self.transport = transport
        self.world = transport.world
        self.rng = transport.world.rng
        #: Active partition: a list of node-id groups.  Nodes absent from
        #: every group form one implicit group of their own (they can
        #: still talk to each other, not across the cut).  ``None`` means
        #: no partition.
        self.partition_groups: Optional[list[set[int]]] = None
        self.rules: list[FaultRule] = []
        transport.shaper = self

    # ------------------------------------------------------------------
    # Partition management
    # ------------------------------------------------------------------

    def partition(self, groups: Sequence[Sequence[int]]) -> None:
        """Install a partition: packets may not cross group boundaries."""
        self.partition_groups = [set(group) for group in groups]

    def heal_partition(self) -> None:
        """Remove the active partition, if any."""
        self.partition_groups = None

    def _group_of(self, node: int) -> int:
        for index, group in enumerate(self.partition_groups):
            if node in group:
                return index
        return -1  # the implicit group of unlisted nodes

    def _partitioned(self, packet: "BasicBlock") -> bool:
        if self.partition_groups is None:
            return False
        return self._group_of(packet.src) != self._group_of(packet.dst)

    # ------------------------------------------------------------------
    # Rule management (the nemesis, or a test's targeted fault)
    # ------------------------------------------------------------------

    def add_rule(self, rule: FaultRule) -> FaultRule:
        """Activate a shaping rule; returns it for later removal."""
        self.rules.append(rule)
        return rule

    def remove_rule(self, rule: FaultRule) -> None:
        """Deactivate a rule installed by :meth:`add_rule` (idempotent)."""
        if rule in self.rules:
            self.rules.remove(rule)

    def _hit(self, rule: FaultRule, packet: "BasicBlock") -> bool:
        if not rule.matches(packet):
            return False
        if rule.probability >= 1.0:
            return True
        return self.rng.random() < rule.probability

    # ------------------------------------------------------------------
    # Transport decision points
    # ------------------------------------------------------------------

    def forces_nack(self, packet: "BasicBlock") -> bool:
        """Hardware-visible non-receipt: partition cut or NACK rule."""
        if self._partitioned(packet):
            return True
        for rule in self.rules:
            if rule.kind == NACK and self._hit(rule, packet):
                return True
        return False

    def drops(self, packet: "BasicBlock") -> bool:
        """Silent software loss after interface receipt."""
        for rule in self.rules:
            if rule.kind == LOSS and self._hit(rule, packet):
                return True
        return False

    def delivery_offsets(self, packet: "BasicBlock") -> list[int]:
        """Relative delivery offsets for one accepted transmission.

        ``[0]`` when nothing applies.  Delay shifts every copy; a
        reorder hit holds the packet back by 1.5 Basic Block latencies,
        pushing it behind the sender's next transmission; a duplicate
        hit appends a second copy half a latency later.
        """
        offset = 0
        duplicate = False
        for rule in self.rules:
            if rule.kind == DELAY and self._hit(rule, packet):
                offset += rule.extra
                if rule.jitter > 0:
                    offset += self.rng.randrange(rule.jitter + 1)
            elif rule.kind == REORDER and self._hit(rule, packet):
                offset += (self.transport.params.basic_block_latency * 3) // 2
            elif rule.kind == DUPLICATE and self._hit(rule, packet):
                duplicate = True
        offsets = [offset]
        if duplicate:
            offsets.append(offset + self.transport.params.basic_block_latency // 2)
        return offsets

    def __repr__(self) -> str:
        groups = self.partition_groups
        return (
            f"<LinkShaper rules={len(self.rules)} "
            f"partition={'|'.join(str(sorted(g)) for g in groups) if groups else 'none'}>"
        )
