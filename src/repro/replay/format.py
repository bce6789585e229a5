"""The trace container (PILTRACE) and the one-way JSONL export.

A trace is stored in one format, a length-prefixed binary container:

* an 12-byte preamble: magic ``b"PILTRACE"``, format version (u16),
  flags (u16, bit 0 = zlib-framed body);
* a record stream: ``kind`` byte + u32 payload length + payload.
  Header, checkpoint, and footer records carry their JSON object as
  UTF-8 (they are rare and irregular); event records carry a
  struct-packed fixed part (index, time, seq, node) followed by the
  type name, the JSON-encoded structured fields, and the **normalized
  line verbatim** — stored, not re-derived, because byte-identity of
  the normalized stream is the replay contract and must not depend on
  how a decoder re-renders tuples;
* with flags bit 0 set, the record stream is carried in zlib frames
  (u32 raw length, u32 compressed length, deflate bytes), so a reader
  can still bound-check every frame before touching it.

Every malformed input raises :class:`TraceFormatError` — and nothing
else — carrying the byte offset of the faulty record: file-relative for
the preamble and frames, record-stream-relative once inside a
compressed body.

:func:`export_jsonl` renders the same records as one JSON object per
line for ``grep``/``jq`` and diffs (``python -m repro.replay convert
--to jsonl``).  It is export-only: nothing loads it back.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.replay.trace import Trace

__all__ = [
    "BINARY_VERSION",
    "MAGIC",
    "TraceFormatError",
    "export_jsonl",
    "read_binary",
    "write_binary",
]

MAGIC = b"PILTRACE"
BINARY_VERSION = 1

#: Preamble: magic + version (u16) + flags (u16).
_PREAMBLE = struct.Struct("<8sHH")
FLAG_ZLIB = 1

#: Record prefix: kind (u8) + payload length (u32).
_RECORD = struct.Struct("<BI")
#: Event payload fixed part: index u32, time i64, seq i64, node i32
#: (-1 encodes None), type length u16, fields length u32, line length u32.
_EVENT = struct.Struct("<IqqihII")
#: Zlib frame prefix: raw length (u32) + compressed length (u32).
_FRAME = struct.Struct("<II")

KIND_HEADER = 1
KIND_EVENT = 2
KIND_CHECKPOINT = 3
KIND_FOOTER = 4

#: Writer chunking for the zlib-framed body.
_FRAME_RAW_SIZE = 1 << 18


class TraceFormatError(ValueError):
    """A malformed trace file: bad magic, unknown version, truncation,
    or a length prefix running past the end of the stream.

    ``offset`` is the byte position of the fault — file-relative for
    the preamble and zlib frames, record-stream-relative inside a
    compressed body (``in_frames`` says which).
    """

    def __init__(self, message: str, offset: int, in_frames: bool = False):
        where = "decompressed stream" if in_frames else "file"
        super().__init__(f"{message} (at {where} byte {offset})")
        self.offset = offset
        self.in_frames = in_frames


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


def _body_records(trace: "Trace"):
    """Yield ``(kind, record)`` for every checkpoint and event in causal
    order: a checkpoint precedes the first event at or past its index."""
    cp_iter = iter(trace.checkpoints)
    next_cp = next(cp_iter, None)
    for event in trace.events:
        while next_cp is not None and next_cp.index <= event.index:
            yield KIND_CHECKPOINT, next_cp
            next_cp = next(cp_iter, None)
        yield KIND_EVENT, event
    while next_cp is not None:
        yield KIND_CHECKPOINT, next_cp
        next_cp = next(cp_iter, None)


def _encode_records(trace: "Trace") -> bytes:
    """Render a trace as the flat record stream (preamble excluded)."""
    parts: list[bytes] = []

    def record(kind: int, payload: bytes) -> None:
        parts.append(_RECORD.pack(kind, len(payload)))
        parts.append(payload)

    def json_payload(obj: dict) -> bytes:
        return json.dumps(obj, sort_keys=True).encode("utf-8")

    record(KIND_HEADER, json_payload(trace.header))
    for kind, item in _body_records(trace):
        if kind == KIND_CHECKPOINT:
            record(kind, json_payload(item.to_dict()))
            continue
        type_bytes = item.type.encode("utf-8")
        fields_bytes = json.dumps(item.fields, sort_keys=True).encode("utf-8")
        line_bytes = item.line.encode("utf-8")
        record(kind, _EVENT.pack(
            item.index, item.time, item.seq,
            -1 if item.node is None else item.node,
            len(type_bytes), len(fields_bytes), len(line_bytes),
        ) + type_bytes + fields_bytes + line_bytes)
    record(KIND_FOOTER, json_payload(trace.footer))
    return b"".join(parts)


def write_binary(trace: "Trace", path, compress: bool = True) -> None:
    """Write ``trace`` to ``path`` in the binary container format.

    The container is assembled in memory and published with
    :func:`repro.ioutil.atomic_write_bytes` (write-temp-then-rename):
    a crash mid-save leaves any previous trace at ``path`` intact
    rather than a torn file that fails :func:`read_binary`.
    """
    from repro.ioutil import atomic_write_bytes

    body = _encode_records(trace)
    flags = FLAG_ZLIB if compress else 0
    parts = [_PREAMBLE.pack(MAGIC, BINARY_VERSION, flags)]
    if compress:
        for start in range(0, len(body), _FRAME_RAW_SIZE):
            chunk = body[start:start + _FRAME_RAW_SIZE]
            packed = zlib.compress(chunk, 6)
            parts.append(_FRAME.pack(len(chunk), len(packed)))
            parts.append(packed)
    else:
        parts.append(body)
    atomic_write_bytes(path, b"".join(parts))


def export_jsonl(trace: "Trace", path) -> None:
    """Write ``trace`` to ``path`` as JSONL, one record per line, in the
    container's record order and canonical sorted-keys JSON, so the
    export of a given trace is byte-stable."""
    from repro.ioutil import atomic_write_text

    def line(kind: str, body: dict) -> str:
        return json.dumps({"kind": kind, **body}, sort_keys=True)

    names = {KIND_CHECKPOINT: "checkpoint", KIND_EVENT: "event"}
    lines = [line("header", trace.header)]
    lines += [line(names[kind], item.to_dict())
              for kind, item in _body_records(trace)]
    lines.append(line("footer", trace.footer))
    atomic_write_text(path, "\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------


def _read_preamble(blob: bytes, path) -> int:
    """Validate magic and version; return the flags word."""
    if len(blob) < _PREAMBLE.size or not blob.startswith(MAGIC):
        what = ("it looks like a JSONL export, and JSONL is export-only"
                if blob.lstrip()[:1] == b"{" else "not a binary trace")
        raise TraceFormatError(f"bad magic in {path}: {what}", 0)
    _, version, flags = _PREAMBLE.unpack_from(blob, 0)
    if version != BINARY_VERSION:
        raise TraceFormatError(
            f"unsupported binary trace version {version} "
            f"(this build reads version {BINARY_VERSION})",
            len(MAGIC),
        )
    return flags


def _deframe(blob: bytes, path) -> bytes:
    """Reassemble the record stream from zlib frames."""
    chunks: list[bytes] = []
    offset = _PREAMBLE.size
    end = len(blob)
    while offset < end:
        if end - offset < _FRAME.size:
            raise TraceFormatError(
                f"truncated zlib frame header in {path}", offset)
        raw_len, comp_len = _FRAME.unpack_from(blob, offset)
        offset += _FRAME.size
        if offset + comp_len > end:
            raise TraceFormatError(
                f"zlib frame length {comp_len} overruns {path}",
                offset - _FRAME.size,
            )
        try:
            chunk = zlib.decompress(blob[offset:offset + comp_len])
        except zlib.error as exc:
            raise TraceFormatError(
                f"corrupt zlib frame in {path}: {exc}", offset) from None
        if len(chunk) != raw_len:
            raise TraceFormatError(
                f"zlib frame decompressed to {len(chunk)} bytes, "
                f"expected {raw_len}, in {path}",
                offset - _FRAME.size,
            )
        chunks.append(chunk)
        offset += comp_len
    return b"".join(chunks)


def _iter_records(body: bytes, path, in_frames: bool, pos0: int = 0):
    """Yield ``(kind, payload, offset)`` triples, bound-checking every
    length prefix before slicing.  ``pos0`` offsets the reported
    positions (the preamble size when reading an uncompressed file, so
    offsets are file-relative)."""
    pos = 0
    limit = len(body)
    while pos < limit:
        if limit - pos < _RECORD.size:
            raise TraceFormatError(
                f"truncated record header in {path}", pos0 + pos, in_frames)
        kind, length = _RECORD.unpack_from(body, pos)
        payload_at = pos + _RECORD.size
        if payload_at + length > limit:
            raise TraceFormatError(
                f"record length {length} overruns {path}",
                pos0 + pos, in_frames)
        yield kind, body[payload_at:payload_at + length], pos0 + pos
        pos = payload_at + length


def _decode_event(payload: bytes, offset: int, path, in_frames: bool):
    """Unpack one event record into a :class:`TraceEvent`."""
    from repro.replay.trace import TraceEvent

    if len(payload) < _EVENT.size:
        raise TraceFormatError(
            f"truncated event record in {path}", offset, in_frames)
    index, time, seq, node, type_len, fields_len, line_len = (
        _EVENT.unpack_from(payload, 0))
    expected = _EVENT.size + type_len + fields_len + line_len
    if expected != len(payload):
        raise TraceFormatError(
            f"event record payload is {len(payload)} bytes, "
            f"expected {expected}, in {path}",
            offset, in_frames,
        )
    at = _EVENT.size
    try:
        type_name = payload[at:at + type_len].decode("utf-8")
        at += type_len
        fields = json.loads(payload[at:at + fields_len])
        at += fields_len
        line = payload[at:at + line_len].decode("utf-8")
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or bad JSON
        raise TraceFormatError(
            f"corrupt event record in {path}: {exc}", offset, in_frames
        ) from None
    return TraceEvent(
        index=index, type=type_name, time=time,
        node=None if node < 0 else node,
        seq=seq, fields=fields, line=line,
    )


def read_binary(path) -> "Trace":
    """Load a binary trace written by :func:`write_binary`."""
    from repro.replay.checkpoint import Checkpoint
    from repro.replay.trace import TRACE_VERSION, Trace

    with open(path, "rb") as fh:
        blob = fh.read()
    flags = _read_preamble(blob, path)
    in_frames = bool(flags & FLAG_ZLIB)
    body = _deframe(blob, path) if in_frames else blob[_PREAMBLE.size:]

    header = footer = None
    footer_at = 0
    events = []
    checkpoints = []
    pos0 = 0 if in_frames else _PREAMBLE.size
    for kind, payload, offset in _iter_records(body, path, in_frames, pos0):
        if kind == KIND_EVENT:
            events.append(_decode_event(payload, offset, path, in_frames))
        elif kind == KIND_CHECKPOINT:
            data = _json_record(payload, offset, path, in_frames)
            try:
                checkpoints.append(Checkpoint.from_dict(data))
            except (KeyError, TypeError) as exc:
                raise TraceFormatError(
                    f"malformed checkpoint record in {path}: {exc!r}",
                    offset, in_frames) from None
        elif kind == KIND_HEADER:
            header = _json_record(payload, offset, path, in_frames)
        elif kind == KIND_FOOTER:
            footer = _json_record(payload, offset, path, in_frames)
            footer_at = offset
        else:
            raise TraceFormatError(
                f"unknown record kind {kind} in {path}", offset, in_frames)
    if header is None or footer is None:
        raise TraceFormatError(
            f"truncated trace {path}: missing header/footer",
            len(body) if in_frames else len(blob), in_frames)
    if header.get("version") != TRACE_VERSION:
        raise TraceFormatError(
            f"trace version {header.get('version')} unsupported "
            f"(this build reads version {TRACE_VERSION})",
            0, in_frames,
        )
    # The footer's count is checked here (O(1)); its fingerprint is not
    # recomputed on load — ``python -m repro.replay info`` does that.
    if footer.get("events") != len(events):
        raise TraceFormatError(
            f"footer of {path} counts {footer.get('events')} events, "
            f"{len(events)} present", footer_at, in_frames)
    if not checkpoints or checkpoints[0].index != 0:
        raise TraceFormatError(
            f"{path} has no checkpoint #0 (the state at recording start)",
            footer_at, in_frames)
    return Trace(header, events, checkpoints, footer)


def _json_record(payload: bytes, offset: int, path, in_frames: bool) -> dict:
    try:
        data = json.loads(payload)
    except (ValueError, RecursionError) as exc:
        raise TraceFormatError(
            f"corrupt JSON record in {path}: {exc}", offset, in_frames
        ) from None
    if not isinstance(data, dict):
        raise TraceFormatError(
            f"JSON record in {path} is not an object", offset, in_frames)
    data.pop("kind", None)
    return data
