"""Normalized obs event rendering for determinism assertions.

A seeded world driven by the same code must produce the same event
stream.  The raw events are not directly comparable across runs inside
one process: ``BasicBlock.packet_id`` comes from a process-global
counter, and the ``packet``/``process``/``error`` payload fields hold
live objects whose ``repr`` embeds those ids (or memory addresses).
:class:`PayloadNormalizer` reduces payload objects to their stable
coordinates (a packet becomes ``src->dst:port/kind/size``, a process
becomes its pid/name), rebasing ids from process-global counters to the
first id seen by this normalizer.  :func:`encode_event` is the one
renderer: a single pass over an event's payload (field names from
:func:`payload_field_names`, derived once per event type) yields both
the structured ``fields`` dict a trace stores and the stable text line
(:func:`normalize_line` is that line alone); :func:`stream_fingerprint`
digests a stream of lines.  The one recorder is
:class:`repro.replay.trace.TraceWriter`, which subscribes to every
event type and renders through these functions; two identically seeded
runs then compare with ``==`` on :meth:`Trace.lines
<repro.replay.trace.Trace.lines>`, or by the footer fingerprint.

Note that *recording is itself observable*: subscribing materializes
event types that would otherwise ride the dormant path, which advances
the bus ``seq``.  Compare recorded runs against recorded runs.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from typing import Iterable, Type

from repro.obs import events as ev

#: Header fields shared by every event (not part of the payload).
HEADER_FIELDS = ("time", "node", "seq")


def _all_event_types() -> list[Type[ev.Event]]:
    return [
        getattr(ev, name)
        for name in ev.__all__
        if name != "Event"
    ]


@functools.cache
def payload_field_names(event_type: Type[ev.Event]) -> tuple[str, ...]:
    """An event type's payload field names in declaration order (base
    class first, as :func:`dataclasses.fields` lists them), header
    excluded.  Derived once per type."""
    return tuple(
        f.name for f in dataclasses.fields(event_type)
        if f.name not in HEADER_FIELDS
    )


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

    def encode(self, name: str, value) -> tuple[object, str]:
        """One payload field as ``(structured, rendered)``: the
        JSON-serializable form a trace stores and the stable text form
        a line shows, from one rebase, so both cite the same id."""
        if value is not None:
            if name == "packet":
                pkt = self.rebase(value.packet_id)
                return (
                    {
                        "pkt": pkt,
                        "src": value.src,
                        "dst": value.dst,
                        "port": value.port,
                        "kind": value.kind,
                        "size": value.size_bytes,
                    },
                    f"pkt#{pkt}[{value.src}->{value.dst}:{value.port}"
                    f"/{value.kind}/{value.size_bytes}B]",
                )
            if name == "process":
                return (
                    {"pid": value.pid, "name": value.name},
                    f"proc[{value.pid}:{value.name}]",
                )
            if name == "error":
                text = f"{type(value).__name__}:{value}"
                return text, text
        return value, repr(value)


def encode_event(event: ev.Event,
                 normalizer: PayloadNormalizer) -> tuple[dict, str]:
    """Render one event, in one pass over its payload, to ``(fields,
    line)``: the structured payload dict and the stable one-line text
    form.  The one renderer — a trace's ``fields`` and ``line`` columns
    and a contract's evidence lines all come from here."""
    event_type = type(event)
    encode = normalizer.encode
    fields = {}
    rendered = []
    for name in payload_field_names(event_type):
        fields[name], text = encode(name, getattr(event, name))
        rendered.append(f"{name}={text}")
    line = (
        f"{event.seq:06d} t={event.time} node={event.node} "
        f"{event_type.__name__} " + " ".join(rendered)
    )
    return fields, line


def normalize_line(event: ev.Event, normalizer: PayloadNormalizer) -> str:
    """Render one event to its stable one-line text form."""
    return encode_event(event, normalizer)[1]


def stream_fingerprint(lines: Iterable[str]) -> str:
    """SHA-256 over a normalized stream (byte-identity check)."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()
