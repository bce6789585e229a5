"""Normalized obs event rendering for determinism assertions.

A seeded world driven by the same code must produce the same event
stream.  The raw events are not directly comparable across runs inside
one process: ``BasicBlock.packet_id`` comes from a process-global
counter, and the ``packet``/``process``/``error`` payload fields hold
live objects whose ``repr`` embeds those ids (or memory addresses).

A recorded payload therefore has **one** representation, a flat *row*
of scalars (``int | str | bool | None``) in the event type's declared
field order (:func:`payload_field_names`): a packet becomes its six
stable coordinates, its id rebased by a :class:`PayloadNormalizer` to
first-seen order; a process its pid/name; an exception its text.
:func:`encode_row` is the one way in and there are two ways out:
:func:`render_line`, the stable text line, and :func:`row_fields`, the
structured dict.  Both are pure functions of header + field names + row
and every cell survives a JSON round trip unchanged, which is why a
trace stores rows and neither derivation.  :func:`stream_fingerprint`
digests a stream of lines.  A run's one
:class:`~repro.replay.trace.EventStream` encodes each event as emitted
and renders nothing (a sealed trace digests its lines on the footer's
first read); identically seeded runs compare by :meth:`Trace.lines
<repro.replay.trace.Trace.lines>` or the footer fingerprint.

Note that *recording is itself observable*: subscribing materializes
event types that would otherwise ride the dormant path, which advances
the bus ``seq``.  Compare recorded runs against recorded runs.
"""

from __future__ import annotations

import functools
import hashlib
import weakref
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


def payload_field_names(event_type: Type[ev.Event]) -> tuple[str, ...]:
    """An event type's payload field names in declaration order, header
    excluded."""
    return event_type.FIELDS[len(HEADER_FIELDS):]


#: The payload objects a row flattens: the stable coordinates kept of
#: each, one cell apiece in this order; and how a line shows them (a
#: field not listed: by ``repr``).
PARTS = {"packet": ("pkt", "src", "dst", "port", "kind", "size"), "process": ("pid", "name")}
_SHOWN = {"packet": "pkt#%s[%s->%s:%s/%s/%sB]", "process": "proc[%s:%s]", "error": "%s"}


class _Rebased(weakref.ref):
    """A packet's rebased id, kept as long as the packet is alive."""

    __slots__ = ("packet_id", "rebased")


class PayloadNormalizer:
    """Rebases process-global packet ids to first-seen order.

    One normalizer per recorded stream: the rebasing is first-seen order
    *within that stream*, so two streams of the same seeded run
    normalize identically even though the process-global ``packet_id``
    counter kept climbing between them.  Ids are numbered by a counter;
    one is forgotten when its packet dies, not at its last event (a
    delivered packet may be delivered again), so the map holds what is
    in flight, not the run's history.
    """

    __slots__ = ("_packet_ids", "_count", "_forget")

    def __init__(self) -> None:
        #: packet_id -> its rebased id, assigned in first-seen order.
        self._packet_ids: dict[int, _Rebased] = {}
        self._count = 0
        # Closes over the map, not the normalizer: no cycle through it.
        pop = self._packet_ids.pop
        self._forget = lambda entry: pop(entry.packet_id, None)

    def rebase(self, packet_id: int, packet=None) -> int:
        """``packet_id``'s rebased id, kept until ``packet`` dies."""
        entry = self._packet_ids.get(packet_id)
        if entry is None:
            try:
                entry = _Rebased(packet, self._forget)
            except TypeError:  # kept for good: it refers to the normalizer's own hook
                entry = _Rebased(self._forget)
            self._count += 1
            entry.packet_id, entry.rebased = packet_id, self._count
            self._packet_ids[packet_id] = entry
        return entry.rebased


@functools.cache
def _scalar_only(event_type: Type[ev.Event]) -> bool:
    """Whether ``event_type`` has no packet, process or error field, so
    its row is its payload cells as they are."""
    return _SHOWN.keys().isdisjoint(event_type.FIELDS)


def encode_row(event: ev.Event, normalizer: PayloadNormalizer) -> tuple:
    """One event's payload as its row: a cell per scalar field, the
    :data:`PARTS` cells of a packet or process (all ``None`` when it is
    absent), in :func:`payload_field_names` order.  The one encoder — a
    trace's rows and a contract's evidence lines both come from here."""
    if _scalar_only(type(event)):
        return event[3:]
    row: list = []
    for name, value in zip(payload_field_names(type(event)), event[3:]):
        if name == "packet":
            row += (None,) * 6 if value is None else (
                normalizer.rebase(value.packet_id, value), value.src, value.dst,
                value.port, value.kind, value.size_bytes)
        elif name == "process":
            row += (None, None) if value is None else (value.pid, value.name)
        elif name == "error" and value is not None:
            row.append(f"{type(value).__name__}:{value}")
        else:
            row.append(value)
    return tuple(row)


@functools.lru_cache(maxsize=512)
def row_layout(names: tuple) -> tuple:
    """Where the payload fields ``names`` sit in a row: ``{name: its first
    cell}`` (a flattened object takes one per part), and the row's width."""
    positions, at = {}, 0
    for name in names:
        positions[name] = at
        at += len(PARTS[name]) if name in PARTS else 1
    return positions, at


def _absent(names: tuple, row: tuple) -> tuple:
    """The flattened objects of ``row`` whose cells are all ``None``."""
    if None not in row:
        return ()
    return tuple(name for name, at in row_layout(names)[0].items() if name in PARTS
                 and row[at:at + len(PARTS[name])].count(None) == len(PARTS[name]))


@functools.lru_cache(maxsize=512)
def _line_format(type_name: str, names: tuple, absent: tuple) -> str:
    """The ``%``-format of a line: header, then ``name=value`` per payload
    field (an ``absent`` object as ``None``, its cells consumed unshown)."""
    shown = " ".join(
        name.replace("%", "%%") + "=" + ("None" + "%.0s" * len(PARTS[name])
                                         if name in absent else _SHOWN.get(name, "%r"))
        for name in names)
    return f"%06d t=%s node=%s {type_name.replace('%', '%%')} {shown}"


def render_line(type_name: str, time: int, node, seq: int, names: tuple, row: tuple) -> str:
    """An event's stable one-line text form, from its header, names and row."""
    return _line_format(type_name, names, _absent(names, row)) % (seq, time, node, *row)


def row_fields(names: tuple, row: tuple) -> dict:
    """An event's structured payload, from its names and row: scalars as
    they are, a flattened object as a dict of its parts (``None`` when all are)."""
    absent = _absent(names, row)
    return {name: row[at] if name not in PARTS else None if name in absent
            else dict(zip(PARTS[name], row[at:]))
            for name, at in row_layout(names)[0].items()}


def flatten_fields(fields: dict) -> tuple[tuple, tuple]:
    """``(names, row)`` of a hand-built or wire-decoded payload dict, the inverse
    of :func:`row_fields`; a part a packet or process dict lacks is ``None``."""
    row: list = []
    for name, value in fields.items():
        if name in PARTS:
            value = value or {}
            if not value.keys() <= set(PARTS[name]):
                raise ValueError(f"{name!r} has no part {sorted(value.keys() - set(PARTS[name]))}")
            row += map(value.get, PARTS[name])
        else:
            row.append(value)
    return tuple(fields), tuple(row)


def stream_fingerprint(lines: Iterable[str]) -> str:
    """SHA-256 over a normalized stream (byte-identity check)."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()
