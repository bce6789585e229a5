"""Normalized obs event rendering for determinism assertions.

A seeded world driven by the same code must produce the same event
stream.  The raw events are not directly comparable across runs inside
one process: ``BasicBlock.packet_id`` comes from a process-global
counter, and the ``packet``/``process``/``error`` payload fields hold
live objects whose ``repr`` embeds those ids (or memory addresses).
:class:`PayloadNormalizer` reduces payload objects to their stable
coordinates (a packet becomes ``src->dst:port/kind/size``, a process
becomes its pid/name), rebasing ids from process-global counters to the
first id seen by this normalizer; :func:`normalize_line` renders one
event to a stable text line and :func:`stream_fingerprint` digests a
stream of them.  The one recorder is
:class:`repro.replay.trace.TraceWriter`, which subscribes to every
event type and renders through these functions; two identically seeded
runs then compare with ``==`` on :meth:`Trace.lines
<repro.replay.trace.Trace.lines>`, or by the footer fingerprint.

Note that *recording is itself observable*: subscribing materializes
event types that would otherwise ride the dormant path, which advances
the bus ``seq``.  Compare recorded runs against recorded runs.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Tuple, Type

from repro.obs import events as ev

#: Header fields shared by every event (not part of the payload).
HEADER_FIELDS = ("time", "node", "seq")


def _all_event_types() -> list[Type[ev.Event]]:
    return [
        getattr(ev, name)
        for name in ev.__all__
        if name != "Event"
    ]


def iter_payload_fields(event: ev.Event) -> Iterator[Tuple[str, object]]:
    """Yield ``(name, value)`` for an event's payload fields, in the
    stable declaration order (base class first), header excluded."""
    for slot_owner in type(event).__mro__:
        for name in getattr(slot_owner, "__slots__", ()):
            if name in HEADER_FIELDS:
                continue
            yield name, getattr(event, name)


class PayloadNormalizer:
    """Rebases process-global ids and renders payload objects stably.

    One normalizer per recorded stream: the packet-id rebasing is
    first-seen order *within that stream*, so two streams of the same
    seeded run normalize identically even though the process-global
    ``packet_id`` counter kept climbing between them.
    """

    __slots__ = ("_packet_ids",)

    def __init__(self) -> None:
        #: packet_id -> rebased id, assigned in first-seen order.
        self._packet_ids: dict[int, int] = {}

    def rebase(self, packet_id: int) -> int:
        rebased = self._packet_ids.get(packet_id)
        if rebased is None:
            rebased = len(self._packet_ids) + 1
            self._packet_ids[packet_id] = rebased
        return rebased

    def render(self, name: str, value) -> str:
        """The stable text form of one payload field."""
        if name == "packet" and value is not None:
            return (
                f"pkt#{self.rebase(value.packet_id)}"
                f"[{value.src}->{value.dst}:{value.port}/{value.kind}"
                f"/{value.size_bytes}B]"
            )
        if name == "process" and value is not None:
            return f"proc[{value.pid}:{value.name}]"
        if name == "error" and value is not None:
            return f"{type(value).__name__}:{value}"
        return repr(value)

    def structured(self, name: str, value):
        """A JSON-serializable form of one payload field (used by the
        trace writer).  Shares the rebasing state with :meth:`render`,
        so a field rendered in a line and stored structured refer to the
        same rebased id."""
        if name == "packet" and value is not None:
            return {
                "pkt": self.rebase(value.packet_id),
                "src": value.src,
                "dst": value.dst,
                "port": value.port,
                "kind": value.kind,
                "size": value.size_bytes,
            }
        if name == "process" and value is not None:
            return {"pid": value.pid, "name": value.name}
        if name == "error" and value is not None:
            return f"{type(value).__name__}:{value}"
        return value


def normalize_line(event: ev.Event, normalizer: PayloadNormalizer) -> str:
    """Render one event to its stable one-line text form."""
    fields = [
        f"{name}={normalizer.render(name, value)}"
        for name, value in iter_payload_fields(event)
    ]
    return (
        f"{event.seq:06d} t={event.time} node={event.node} "
        f"{type(event).__name__} " + " ".join(fields)
    )


def stream_fingerprint(lines: Iterable[str]) -> str:
    """SHA-256 over a normalized stream (byte-identity check)."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()
