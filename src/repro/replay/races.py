"""Offline message-race detection between traces of one seed family.

MAD-style record-and-analyze: two recordings of the *same scenario*
(same build, same plan, different seeds — or any pair the caller deems
comparable) are scanned for **receive-order nondeterminism**: a pair of
messages delivered to the same node in one order in run A and the
opposite order in run B.  Such a pair is a message race — the program's
outcome may hinge on arrival order the environment does not guarantee.

Messages are matched across runs by their stable coordinates — (source
node, destination port, packet kind) plus an occurrence counter, since
packet ids are run-local.  Packets appearing in only one run are
ignored (the runs took different fault paths); the detector flags order
inversions among the *common* deliveries only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.replay.trace import Trace


@dataclass(frozen=True)
class MessageRace:
    """One receive-order inversion at ``dst`` between two runs."""

    dst: int
    #: (src, port, kind, occurrence) of the two racing messages.
    first: tuple
    second: tuple
    #: Delivery positions in each run's per-destination order.
    pos_a: tuple
    pos_b: tuple
    #: Contract-bridge verdict (:func:`repro.replay.branch.classify_races`):
    #: ``True`` when flipping this race's arrival order breaks a contract
    #: the baseline satisfied, ``False`` when the flip is benign,
    #: ``None`` when unclassified.
    harmful: Optional[bool] = None

    def __repr__(self) -> str:
        tag = "" if self.harmful is None else (
            " harmful" if self.harmful else " benign")
        return (
            f"<MessageRace dst={self.dst} {self.first} vs {self.second} "
            f"a={self.pos_a} b={self.pos_b}{tag}>"
        )


def deliveries(trace: Trace):
    """Yield ``(event, dst, key)`` per ``PacketDelivered`` that names its
    packet, in trace order: ``key`` is ``(src, port, kind, occurrence)``,
    where occurrence disambiguates repeats of the same coordinates to
    the same ``dst`` (retransmits, duplicates)."""
    counts: dict = {}
    for event in trace.events:
        packet = event.type == "PacketDelivered" and event.fields.get("packet")
        if not isinstance(packet, dict):
            continue
        dst = packet.get("dst")
        base = (packet.get("src"), packet.get("port"), packet.get("kind"))
        occurrence = counts.get((dst, base), 0)
        counts[(dst, base)] = occurrence + 1
        yield event, dst, base + (occurrence,)


def _delivery_orders(trace: Trace) -> dict:
    """Per-destination delivery order of identified messages:
    ``{dst: [key, ...]}``."""
    orders: dict = {}
    for _, dst, key in deliveries(trace):
        orders.setdefault(dst, []).append(key)
    return orders


def detect_races(trace_a: Trace, trace_b: Trace,
                 max_races: int = 64) -> list[MessageRace]:
    """Find receive-order inversions between two recorded runs.

    A pair of messages (m, n) delivered to the same node races when run
    A delivers m before n and run B delivers n before m.  Only messages
    present in both runs participate.  Returns at most ``max_races``
    findings (earliest inversions first); an empty list means the common
    deliveries arrived in one consistent order — e.g. two recordings of
    the *same* seed, which must never race.
    """
    races: list[MessageRace] = []
    orders_a = _delivery_orders(trace_a)
    orders_b = _delivery_orders(trace_b)
    for dst in sorted(k for k in orders_a if k in orders_b):
        pos_a = {key: i for i, key in enumerate(orders_a[dst])}
        pos_b = {key: i for i, key in enumerate(orders_b[dst])}
        common = [key for key in orders_a[dst] if key in pos_b]
        # Any inversion of relative order between the two runs is a race.
        for i in range(len(common)):
            for j in range(i + 1, len(common)):
                if pos_b[common[i]] > pos_b[common[j]]:
                    races.append(MessageRace(
                        dst=dst,
                        first=common[i],
                        second=common[j],
                        pos_a=(pos_a[common[i]], pos_a[common[j]]),
                        pos_b=(pos_b[common[i]], pos_b[common[j]]),
                    ))
                    if len(races) >= max_races:
                        return races
    return races
