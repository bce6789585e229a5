"""The trace container (PILTRACE) and the one-way JSONL export.

A trace is stored in one format, a length-prefixed binary container:

* a 12-byte preamble: magic ``b"PILTRACE"``, format version (u16),
  flags (u16, bit 0 = zlib-framed body; any other bit is refused);
* a record stream: ``kind`` byte + u32 payload length + payload, each
  payload one UTF-8 JSON object.  Header, checkpoint, and footer
  records carry their object as is; a checkpoint sits after exactly
  ``index`` events.  Events are stored **columnar**, as memory holds
  them (:class:`~repro.replay.trace.EventColumns`): every run of events
  between two checkpoints (capped at ``_BLOCK_EVENTS``) is one
  ``KIND_EVENTS`` block — ``first`` (index of its first event; the
  rest are implied), ``types`` (its table of ``[type name, [payload
  field names]]``), the equal-length header columns ``type`` (ids into
  that table) / ``t`` / ``node`` / ``seq`` in event order, and
  ``cells``: per table entry, one column per row cell over that type's
  events — so the reader pays one ``json.loads`` and a few C-level
  passes per block, not a parse per event.  Neither the normalized line
  nor the ``fields`` dict is stored, and the law that licenses it is: a
  row survives a JSON round trip unchanged (every cell is ``int | str |
  bool | None``), and the line, whose byte-identity is the replay
  contract, is a pure function of header, field names and row
  (:func:`repro.obs.recorder.render_line`);
* with flags bit 0 set, the record stream is carried in zlib frames
  (u32 raw length, u32 compressed length, deflate bytes), so a reader
  can bound every frame, and what it inflates to, before touching it.

Every malformed input raises :class:`TraceFormatError` — and nothing
else — from :func:`read_binary` itself (nothing is deferred to first
access), carrying the byte offset of the faulty record: file-relative
for the preamble and frames, record-stream-relative once inside a
compressed body.  The writer refuses (``ValueError``) a trace whose
checkpoint indices it could not lay out that way, or whose rows hold
anything but those scalars.

:func:`export_jsonl` renders the same records as one JSON object per
line (one line per event) for ``grep``/``jq`` and diffs (``python -m
repro.replay convert --to jsonl``).  Export-only: nothing loads it back.
"""

import gc
import json
import struct
import sys
import zlib
from itertools import repeat

from repro.ioutil import atomic_write_bytes, atomic_write_text
from repro.obs.recorder import row_layout
from repro.replay.checkpoint import Checkpoint
from repro.replay.trace import TRACE_VERSION, EventColumns, Trace

__all__ = [
    "BINARY_VERSION",
    "MAGIC",
    "TraceFormatError",
    "export_jsonl",
    "read_binary",
    "write_binary",
]

MAGIC = b"PILTRACE"
BINARY_VERSION = 3

#: Preamble: magic + version (u16) + flags (u16).
_PREAMBLE = struct.Struct("<8sHH")
FLAG_ZLIB = 1

#: Record prefix: kind (u8) + payload length (u32).
_RECORD = struct.Struct("<BI")
#: Zlib frame prefix: raw length (u32) + compressed length (u32).
_FRAME = struct.Struct("<II")

KIND_HEADER = 1
KIND_EVENTS = 2
KIND_CHECKPOINT = 3
KIND_FOOTER = 4

#: Writer chunking for the zlib-framed body; the reader refuses a frame
#: that declares, or inflates to, more.
_FRAME_RAW_SIZE = 1 << 18
#: Most events one block carries (a checkpoint ends a block sooner).
_BLOCK_EVENTS = 4096

#: A block's header columns and the exact cell types each admits:
#: ``bool`` is not ``int``, so ``true`` in ``seq`` is a fault.
_COLUMNS = {"type": {int}, "t": {int}, "node": {int, type(None)},
            "seq": {int}}
#: What a row cell may be.
_SCALARS = {int, str, bool, type(None)}


class TraceFormatError(ValueError):
    """A malformed trace file: bad magic, unknown version, truncation,
    a length prefix past the end of the stream, or a faulty record.

    ``offset`` is the byte position of the fault — file-relative for
    the preamble and zlib frames, record-stream-relative inside a
    compressed body (``in_frames`` says which).
    """

    def __init__(self, message: str, offset: int, in_frames: bool = False):
        where = "decompressed stream" if in_frames else "file"
        super().__init__(f"{message} (at {where} byte {offset})")
        self.offset = offset
        self.in_frames = in_frames


# -- Encoding --------------------------------------------------------


def _body_records(trace: Trace):
    """Yield ``(kind, item)`` in file order: every checkpoint after
    exactly ``checkpoint.index`` events, the events between as
    ``KIND_EVENTS`` runs (index ranges) of at most ``_BLOCK_EVENTS``."""
    total = len(trace.events)
    done = 0
    for checkpoint in [*trace.checkpoints, None]:
        stop = total if checkpoint is None else checkpoint.index
        if not done <= stop <= total:
            raise ValueError(f"checkpoint index {stop} is out of order or "
                             f"past the trace's {total} events")
        for first in range(done, stop, _BLOCK_EVENTS):
            yield KIND_EVENTS, range(first, min(first + _BLOCK_EVENTS, stop))
        if checkpoint is not None:
            yield KIND_CHECKPOINT, checkpoint
        done = stop


def _is_column(column, admitted: set) -> bool:
    """Whether ``column`` is a list of cells of the ``admitted`` types."""
    return type(column) is list and set(map(type, column)) <= admitted


def _block(events: EventColumns, run: range) -> dict:
    """The block storing events ``run``: the header columns sliced, the
    rows dealt by type and transposed into one column per cell."""
    span = slice(run.start, run.stop)
    types = events.types[span]
    names = sorted(set(types))
    by_type: dict[str, list] = {name: [] for name in names}
    for kind, row in zip(types, events.rows[span]):
        by_type[kind].append(row)
    cells = []
    for name, rows in by_type.items():
        columns = list(zip(*rows))
        if (set(map(len, rows)) != {row_layout(events.schema[name])[1]}
                or not all(set(map(type, column)) <= _SCALARS for column in columns)):
            raise ValueError(f"a {name} row in events [{run.start}, {run.stop}) is not "
                             f"one int, str, bool or None per cell of its fields")
        cells.append(columns)
    return {
        "first": run.start,
        "types": [[name, list(events.schema[name])] for name in names],
        "type": list(map(names.index, types)),
        "t": events.times[span],
        "node": events.nodes[span],
        "seq": events.seqs[span],
        "cells": cells,
    }


def write_binary(trace: Trace, path, compress: bool = True) -> None:
    """Write ``trace`` to ``path`` in the binary container format.

    The container is assembled in memory and published with
    :func:`repro.ioutil.atomic_write_bytes` (write-temp-then-rename):
    a crash mid-save leaves any previous trace at ``path`` intact
    rather than a torn file that fails :func:`read_binary`.
    """
    records: list[bytes] = []

    def record(kind: int, obj: dict) -> None:
        payload = json.dumps(obj, sort_keys=True).encode("utf-8")
        records.append(_RECORD.pack(kind, len(payload)) + payload)

    record(KIND_HEADER, trace.header)
    for kind, item in _body_records(trace):
        record(kind, item.to_dict() if kind == KIND_CHECKPOINT
               else _block(trace.events, item))
    record(KIND_FOOTER, trace.footer)
    body = b"".join(records)
    parts = [_PREAMBLE.pack(MAGIC, BINARY_VERSION, FLAG_ZLIB if compress else 0)]
    if compress:
        for start in range(0, len(body), _FRAME_RAW_SIZE):
            chunk = body[start:start + _FRAME_RAW_SIZE]
            packed = zlib.compress(chunk, 6)
            parts.append(_FRAME.pack(len(chunk), len(packed)) + packed)
    else:
        parts.append(body)
    atomic_write_bytes(path, b"".join(parts))


def export_jsonl(trace: Trace, path) -> None:
    """Write ``trace`` to ``path`` as JSONL, one record per line, in the
    container's record order and canonical sorted-keys JSON, so the
    export of a given trace is byte-stable."""
    def line(kind: str, body: dict) -> str:
        return json.dumps({"kind": kind, **body}, sort_keys=True)

    lines = [line("header", trace.header)]
    for kind, item in _body_records(trace):
        if kind == KIND_CHECKPOINT:
            lines.append(line("checkpoint", item.to_dict()))
        else:
            lines += [line("event", trace.events[i].to_dict()) for i in item]
    lines.append(line("footer", trace.footer))
    atomic_write_text(path, "\n".join(lines) + "\n")


# -- Decoding --------------------------------------------------------


def _faults(path, base: int = 0, in_frames: bool = False):
    """One file's error builder: names it, rebases offsets by ``base``."""
    def fault(message: str, offset: int) -> TraceFormatError:
        return TraceFormatError(f"{message} in {path}", base + offset, in_frames)
    return fault


def _read_preamble(blob: bytes, fault) -> int:
    """Validate magic, version and flags; return the flags word."""
    if len(blob) < _PREAMBLE.size or not blob.startswith(MAGIC):
        what = ("it looks like a JSONL export, and JSONL is export-only"
                if blob.lstrip()[:1] == b"{" else "not a binary trace")
        raise fault(f"bad magic ({what})", 0)
    _, version, flags = _PREAMBLE.unpack_from(blob, 0)
    if version != BINARY_VERSION:
        raise fault(f"unsupported binary trace version {version} (this "
                    f"build reads version {BINARY_VERSION})", len(MAGIC))
    if flags & ~FLAG_ZLIB:
        raise fault(f"unknown flag bits {flags & ~FLAG_ZLIB:#x}", len(MAGIC) + 2)
    return flags


def _deframe(blob: bytes, fault) -> bytes:
    """Reassemble the record stream from zlib frames (bounded inflate)."""
    chunks: list[bytes] = []
    offset = _PREAMBLE.size
    while offset < len(blob):
        data_at = offset + _FRAME.size
        if data_at > len(blob):
            raise fault("truncated zlib frame header", offset)
        raw_len, comp_len = _FRAME.unpack_from(blob, offset)
        if data_at + comp_len > len(blob):
            raise fault(f"zlib frame length {comp_len} overruns", offset)
        if raw_len > _FRAME_RAW_SIZE:
            raise fault(f"oversized zlib frame ({raw_len} raw bytes)", offset)
        inflater = zlib.decompressobj()
        try:
            # One byte of slack shows a frame that lies about its size
            # without materialising what it really inflates to.
            chunk = inflater.decompress(blob[data_at:data_at + comp_len], raw_len + 1)
        except zlib.error as exc:
            raise fault(f"corrupt zlib frame ({exc})", data_at) from None
        if len(chunk) != raw_len or not inflater.eof:
            raise fault(f"zlib frame is not the {raw_len} raw bytes it declares", offset)
        chunks.append(chunk)
        offset = data_at + comp_len
    return b"".join(chunks)


def _iter_records(body: bytes, fault):
    """Yield ``(kind, payload, offset)`` triples, bound-checking every
    length prefix before slicing."""
    pos = 0
    while pos < len(body):
        payload_at = pos + _RECORD.size
        if payload_at > len(body):
            raise fault("truncated record header", pos)
        kind, length = _RECORD.unpack_from(body, pos)
        if payload_at + length > len(body):
            raise fault(f"record length {length} overruns", pos)
        yield kind, body[payload_at:payload_at + length], pos
        pos = payload_at + length


def _append_block(events: EventColumns, block: dict) -> None:
    """Validate one ``KIND_EVENTS`` object (``ValueError`` names the
    fault) and append its events.  Every check is a C-level pass over a
    whole column; nothing runs Python per event."""
    if block.keys() != {"first", "types", "cells", *_COLUMNS}:
        raise ValueError(f"keys {sorted(block)} are not the block's columns")
    for name, admitted in _COLUMNS.items():
        if not _is_column(block[name], admitted):
            kinds = "/".join(sorted(cell.__name__ for cell in admitted))
            raise ValueError(f"{name!r} is not a list of {kinds}")
    ids, *columns = map(block.get, _COLUMNS)
    if not ids or {len(column) for column in columns} != {len(ids)}:
        raise ValueError("columns are empty or of unequal lengths")
    table, cells = block["types"], block["cells"]
    if not (_is_column(table, {list}) and _is_column(cells, {list})
            and len(table) == len(cells)):
        raise ValueError("'types' and 'cells' are not lists of lists, one entry per type")
    if not 0 <= min(ids) <= max(ids) < len(table):
        raise ValueError("type id outside the block's 'types' table")
    first = block["first"]
    if type(first) is not int or first != len(events):
        raise ValueError(f"'first' is {first!r} after {len(events)} events")
    kinds, feeds = [], []
    for k, (entry, own) in enumerate(zip(table, cells)):
        if not (len(entry) == 2 and type(entry[0]) is str and _is_column(entry[1], {str})):
            raise ValueError(f"'types' entry {k} is not [name, [field names]]")
        kind = sys.intern(entry[0])
        names = events.declare(kind, tuple(map(sys.intern, entry[1])))
        if not _is_column(own, {list}) or len(own) != row_layout(names)[1]:
            raise ValueError(f"{kind} rows are not stored as {row_layout(names)[1]} columns")
        count = ids.count(k)
        for at, column in enumerate(own):
            cell_types = set(map(type, column))
            if not cell_types <= _SCALARS or len(column) != count:
                raise ValueError(f"{kind} column {at} is not one scalar per {kind} event")
            if cell_types == {str}:
                own[at] = map(sys.intern, column)
        kinds.append(kind)
        feeds.append(zip(*own) if own else repeat(()))
    events.types += map(kinds.__getitem__, ids)
    events.times += block["t"]
    events.nodes += block["node"]
    events.seqs += block["seq"]
    events.rows += map(next, map(feeds.__getitem__, ids))


def read_binary(path) -> Trace:
    """Load and fully validate a trace written by :func:`write_binary`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    in_frames = bool(_read_preamble(blob, _faults(path)) & FLAG_ZLIB)
    body = _deframe(blob, _faults(path)) if in_frames else blob[_PREAMBLE.size:]
    fault = _faults(path, 0 if in_frames else _PREAMBLE.size, in_frames)
    # Decoding allocates a few containers per event and no cycles, yet
    # the cyclic collector's passes over that growing tree cost as much
    # as the parse itself: pause it for the loop, then age the new
    # objects in one pass here rather than leave three to the caller.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _decode_records(body, fault)
    finally:
        if collecting:
            gc.enable()
            gc.collect(1)


def _decode_records(body: bytes, fault) -> Trace:
    """Rebuild the trace from its record stream, checking every record."""
    header = footer = None
    footer_at = 0
    events = EventColumns()
    checkpoints: list[Checkpoint] = []
    for kind, payload, at in _iter_records(body, fault):
        if not KIND_HEADER <= kind <= KIND_FOOTER:
            raise fault(f"unknown record kind {kind}", at)
        try:
            data = json.loads(payload)
        except (ValueError, RecursionError) as exc:  # also bad UTF-8
            raise fault(f"corrupt JSON record ({exc})", at) from None
        if not isinstance(data, dict):
            raise fault("JSON record that is not an object", at)
        if kind == KIND_EVENTS:
            try:
                _append_block(events, data)
            except ValueError as exc:
                raise fault(f"malformed event block ({exc})", at) from None
        elif kind == KIND_CHECKPOINT:
            try:
                checkpoint = Checkpoint.from_dict(data)
            except (KeyError, TypeError) as exc:
                raise fault(f"malformed checkpoint ({exc!r})", at) from None
            # The writer places a checkpoint after exactly ``index``
            # events; seeks (a bisect over the indices) rely on it.
            if type(checkpoint.index) is not int or checkpoint.index != len(events):
                raise fault(f"checkpoint with index {checkpoint.index!r} "
                            f"after {len(events)} events", at)
            checkpoints.append(checkpoint)
        elif kind == KIND_HEADER:
            header = data
            if header.get("version") != TRACE_VERSION:
                raise fault(f"trace version {header.get('version')} unsupported "
                            f"(this build reads version {TRACE_VERSION})", at)
        else:
            footer, footer_at = data, at
    if header is None or footer is None:
        raise fault("truncated trace: missing header/footer", len(body))
    # The footer's count is checked here (O(1)); its fingerprint is not
    # recomputed on load — ``python -m repro.replay info`` does that.
    if footer.get("events") != len(events):
        raise fault(f"footer counts {footer.get('events')} events, "
                    f"{len(events)} present", footer_at)
    if not checkpoints or checkpoints[0].index != 0:
        raise fault("no checkpoint #0 (the recording's start state)", footer_at)
    return Trace(header, events, checkpoints, footer)
