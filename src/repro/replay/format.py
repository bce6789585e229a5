"""The trace container (PILTRACE) and the one-way JSONL export.

A trace is stored in one format, a length-prefixed binary container:

* a 12-byte preamble: magic ``b"PILTRACE"``, format version (u16),
  flags (u16, bit 0 = zlib-framed body; any other bit is refused);
* a record stream: ``kind`` byte + u32 payload length + payload.
  Header, checkpoint, and footer payloads are one UTF-8 JSON object
  each, carried as is.  Events are stored **columnar**, as memory holds
  them (:class:`~repro.replay.trace.EventColumns`): every run of
  ``_BLOCK_EVENTS`` events (the last run shorter) is one ``KIND_EVENTS``
  block.  Its payload is a u32 length, a JSON object of that length,
  and the packed bytes the object names.  The object holds ``first``
  (index of its first event; the rest are implied), ``types`` (its
  table of ``[type name, [payload field names]]``), the equal-length
  header columns ``type`` (ids into that table) / ``t`` / ``node`` /
  ``seq`` in event order, ``cells`` (per table entry, one column per
  row cell over that type's events) and ``checkpoints`` (below);
* one packing rule covers every column: a column whose every cell is an
  ``int`` (not a ``bool``) in the int64 range is stored as little-endian
  int64 bytes, and the object holds its byte length in its place; any
  other column is a JSON list.  The packed bytes follow the object in
  the order it names them (``type``, ``t``, ``node``, ``seq``, then
  ``cells`` in table order), so the reader pays one ``json.loads`` over
  names and strings and a few C-level passes per block, not a parse per
  event or per integer.  Neither the normalized line nor the ``fields``
  dict is stored, and the law that licenses it is: a row survives the
  round trip unchanged (every cell is ``int | str | bool | None``, and
  only an all-``int`` column is packed), and the line, whose
  byte-identity is the replay contract, is a pure function of header,
  field names and row (:func:`repro.obs.recorder.render_line`);
* a checkpoint sits after exactly ``index`` events.  One at index 0
  precedes the first block; any other follows the block holding event
  ``index - 1``, whose ``checkpoints`` lists ``index - first`` (each in
  ``1..len(block)``, ascending), and the reader holds every checkpoint
  record's ``index`` to the place its block lists;
* with flags bit 0 set, the record stream is carried in zlib frames
  (u32 raw length, u32 compressed length, deflate bytes), so a reader
  can bound every frame, and what it inflates to, before touching it.

Every malformed input raises :class:`TraceFormatError` — and nothing
else — from :func:`read_binary` itself (nothing is deferred to first
access; a checkpoint's view has the shapes a fold starts from),
carrying the byte offset of the faulty record: file-relative for the
preamble and frames, record-stream-relative once inside a compressed
body.  The writer refuses (``ValueError``) a trace whose checkpoint
indices do not ascend within its events, or whose rows hold anything
but those scalars.

:func:`export_jsonl` renders the same records as one JSON object per
line (one line per event, each checkpoint after exactly ``index`` of
them) for ``grep``/``jq`` and diffs (``python -m repro.replay convert
--to jsonl``).  Export-only: nothing loads it back.
"""

import gc
import json
import struct
import sys
import zlib
from array import array
from bisect import bisect_right
from itertools import chain, repeat

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
BINARY_VERSION = 4

#: Preamble: magic + version (u16) + flags (u16).
_PREAMBLE = struct.Struct("<8sHH")
FLAG_ZLIB = 1

#: Record prefix: kind (u8) + payload length (u32).
_RECORD = struct.Struct("<BI")
#: Zlib frame prefix: raw length (u32) + compressed length (u32).
_FRAME = struct.Struct("<II")
#: Event block prefix: the byte length of its JSON object (u32).
_BLOCK_JSON = struct.Struct("<I")

KIND_HEADER = 1
KIND_EVENTS = 2
KIND_CHECKPOINT = 3
KIND_FOOTER = 4

#: Writer chunking for the zlib-framed body; the reader refuses a frame
#: that declares, or inflates to, more.
_FRAME_RAW_SIZE = 1 << 18
#: Events per block (a trace's last block holds what is left).
_BLOCK_EVENTS = 4096
#: A packed column's cells: int64, little-endian on disk.
_PACKED = "q"
_SWAP = sys.byteorder == "big"

#: A block's header columns and the exact cell types each admits:
#: ``bool`` is not ``int``, so ``true`` in ``seq`` is a fault.
_COLUMNS = {"type": {int}, "t": {int}, "node": {int, type(None)},
            "seq": {int}}
#: What a row cell may be.
_SCALARS = {int, str, bool, type(None)}
_BLOCK_KEYS = {"first", "types", "cells", "checkpoints", *_COLUMNS}
#: What a checkpoint record and its view hold (see
#: :class:`~repro.replay.checkpoint.StateView`).
_CHECKPOINT_KEYS = {"index", "time", "state", "view"}
_VIEW_KEYS = {"time", "processes", "halted", "in_flight", "epochs", "counts"}
_PROCESS_KEYS = frozenset({"name", "priority"})


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


def _checkpoint_indices(trace: Trace) -> list[int]:
    """Every checkpoint's index, refused (``ValueError``) unless they
    ascend within the trace's events."""
    total = len(trace.events)
    indices = [checkpoint.index for checkpoint in trace.checkpoints]
    for before, index in zip([0, *indices], indices):
        if not before <= index <= total:
            raise ValueError(f"checkpoint index {index} is out of order or "
                             f"past the trace's {total} events")
    return indices


def _is_column(column, admitted: set) -> bool:
    """Whether ``column`` is a list of cells of the ``admitted`` types."""
    return type(column) is list and set(map(type, column)) <= admitted


def _stored(column, packed: list[bytes]):
    """``column`` as a block stores it: when every cell is an ``int`` in
    the int64 range, its packed byte length (the bytes appended to
    ``packed``); else the cells themselves, for the JSON object, when
    every one is a scalar; else ``None``."""
    kinds = set(map(type, column))
    if kinds == {int}:
        try:
            cells = array(_PACKED, column)
        except OverflowError:
            return column
        if _SWAP:
            cells.byteswap()
        packed.append(cells.tobytes())
        return len(packed[-1])
    return column if kinds <= _SCALARS else None


def _block(events: EventColumns, run: range, offsets: list[int]) -> list[bytes]:
    """The payload, in pieces, storing events ``run`` and placing
    checkpoints after its ``offsets``: the header columns sliced, the
    rows dealt by type and transposed into one column per cell, every
    column stored by :func:`_stored`."""
    span = slice(run.start, run.stop)
    types = events.types[span]
    names = sorted(set(types))
    by_type: dict[str, list] = {name: [] for name in names}
    for kind, row in zip(types, events.rows[span]):
        by_type[kind].append(row)
    packed: list[bytes] = []
    block = {"first": run.start, "checkpoints": offsets,
             "types": [[name, list(events.schema[name])] for name in names]}
    type_id = dict(zip(names, range(len(names))))
    for name, column in zip(_COLUMNS, (list(map(type_id.__getitem__, types)),
                                       events.times[span], events.nodes[span],
                                       events.seqs[span])):
        block[name] = _stored(column, packed)
        if block[name] is None:
            raise ValueError(f"a {name!r} cell in events [{run.start}, {run.stop}) "
                             f"is not an int, str, bool or None")
    block["cells"] = []
    for name, rows in by_type.items():
        own = [_stored(column, packed) for column in zip(*rows)]
        if set(map(len, rows)) != {row_layout(events.schema[name])[1]} or None in own:
            raise ValueError(f"a {name} row in events [{run.start}, {run.stop}) is not "
                             f"one int, str, bool or None per cell of its fields")
        block["cells"].append(own)
    text = json.dumps(block, sort_keys=True).encode("utf-8")
    return [_BLOCK_JSON.pack(len(text)), text, *packed]


def write_binary(trace: Trace, path, compress: bool = True) -> None:
    """Write ``trace`` to ``path`` in the binary container format.

    The container is assembled in memory and published with
    :func:`repro.ioutil.atomic_write_bytes` (write-temp-then-rename):
    a crash mid-save leaves any previous trace at ``path`` intact
    rather than a torn file that fails :func:`read_binary`.  A
    compressed body is deflated frame by frame as its records arrive,
    so the raw record stream is never held whole.
    """
    parts = [_PREAMBLE.pack(MAGIC, BINARY_VERSION, FLAG_ZLIB if compress else 0)]
    pending = bytearray()

    def frame(chunk: bytearray) -> None:
        packed = zlib.compress(chunk, 6)
        parts.append(_FRAME.pack(len(chunk), len(packed)) + packed)

    def record(kind: int, *payload: bytes) -> None:
        pieces = [_RECORD.pack(kind, sum(map(len, payload))), *payload]
        if not compress:
            parts.extend(pieces)
            return
        for piece in pieces:
            pending.extend(piece)
        while len(pending) >= _FRAME_RAW_SIZE:
            frame(pending[:_FRAME_RAW_SIZE])
            del pending[:_FRAME_RAW_SIZE]

    indices = _checkpoint_indices(trace)
    total = len(trace.events)
    record(KIND_HEADER, _json(trace.header))
    # The empty run stands before the first block: it places index 0.
    placed = 0
    for run in [range(0), *(range(first, min(first + _BLOCK_EVENTS, total))
                            for first in range(0, total, _BLOCK_EVENTS))]:
        upto = bisect_right(indices, run.stop)
        if run:
            record(KIND_EVENTS, *_block(trace.events, run, [
                index - run.start for index in indices[placed:upto]]))
        for checkpoint in trace.checkpoints[placed:upto]:
            record(KIND_CHECKPOINT, _json(checkpoint.to_dict()))
        placed = upto
    record(KIND_FOOTER, _json(trace.footer))
    if pending:
        frame(pending)
    atomic_write_bytes(path, b"".join(parts))


def _json(obj: dict) -> bytes:
    """One record's canonical JSON payload."""
    return json.dumps(obj, sort_keys=True).encode("utf-8")


def export_jsonl(trace: Trace, path) -> None:
    """Write ``trace`` to ``path`` as JSONL, one record per line: every
    checkpoint after exactly ``index`` events, in canonical sorted-keys
    JSON, so the export of a given trace is byte-stable."""
    def line(kind: str, body: dict) -> str:
        return json.dumps({"kind": kind, **body}, sort_keys=True)

    lines = [line("header", trace.header)]
    done = 0
    for stop, checkpoint in zip([*_checkpoint_indices(trace), len(trace.events)],
                                [*trace.checkpoints, None]):
        lines += [line("event", trace.events[i].to_dict()) for i in range(done, stop)]
        if checkpoint is not None:
            lines.append(line("checkpoint", checkpoint.to_dict()))
        done = stop
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
        if inflater.unused_data:
            raise fault(f"{len(inflater.unused_data)} bytes after the zlib "
                        f"frame's deflate stream", offset)
        chunks.append(chunk)
        offset = data_at + comp_len
    return b"".join(chunks)


def _iter_records(body: bytes, fault):
    """Yield ``(kind, payload, offset)`` triples, bound-checking every
    length prefix before slicing; a payload is a view into ``body``."""
    pos = 0
    view = memoryview(body)
    while pos < len(body):
        payload_at = pos + _RECORD.size
        if payload_at > len(body):
            raise fault("truncated record header", pos)
        kind, length = _RECORD.unpack_from(body, pos)
        if payload_at + length > len(body):
            raise fault(f"record length {length} overruns", pos)
        yield kind, view[payload_at:payload_at + length], pos
        pos = payload_at + length


def _split_block(payload: memoryview) -> tuple[memoryview, memoryview]:
    """A block payload's JSON object and the packed bytes after it
    (``ValueError`` if its length prefix overruns the payload)."""
    if len(payload) < _BLOCK_JSON.size:
        raise ValueError("no JSON length prefix")
    (length,) = _BLOCK_JSON.unpack_from(payload)
    end = _BLOCK_JSON.size + length
    if end > len(payload):
        raise ValueError(f"JSON length {length} overruns the block's "
                         f"{len(payload)} bytes")
    return payload[_BLOCK_JSON.size:end], payload[end:]


class _Packed:
    """A block's packed bytes, handed out column by column in order."""

    __slots__ = ("data", "pos")

    def __init__(self, data: memoryview):
        self.data, self.pos = data, 0

    def column(self, stored):
        """``stored`` as a list: for a byte length, the next that many
        packed bytes decoded (``ValueError`` unless they are within what
        is left, and, from ``frombytes``, whole cells); anything else as
        is, for the caller to check as a JSON column."""
        if type(stored) is not int:
            return stored
        left = len(self.data) - self.pos
        if not 0 <= stored <= left:
            raise ValueError(f"a packed column of {stored} bytes with {left} left")
        cells = array(_PACKED)
        cells.frombytes(self.data[self.pos:self.pos + stored])
        if _SWAP:
            cells.byteswap()
        self.pos += stored
        return cells.tolist()

    def finish(self) -> None:
        """Refuse packed bytes that no column named."""
        if self.pos != len(self.data):
            raise ValueError(f"{len(self.data) - self.pos} packed bytes no column names")


def _json_cells(column: list) -> tuple[set, list]:
    """A JSON cell column's cell types, and the column as rows take it:
    an all-``str`` one interned (one pass, as ``sys.intern`` refuses
    anything but a ``str``), so the parsed copies are freed before the
    rows are built and a block's peak holds one set of strings."""
    try:
        return {str}, list(map(sys.intern, column))
    except TypeError:
        return set(map(type, column)), column


def _append_block(events: EventColumns, block: dict, packed: memoryview) -> list[int]:
    """Validate one ``KIND_EVENTS`` object and the packed bytes after it
    (``ValueError`` names the fault), append its events, and return the
    indices of the checkpoints it places after them.  Every check is a
    C-level pass over a whole column; nothing runs Python per event."""
    if block.keys() != _BLOCK_KEYS:
        raise ValueError(f"keys {sorted(block)} are not the block's columns")
    unpack = _Packed(packed)
    header = []
    for name, admitted in _COLUMNS.items():
        column = unpack.column(block[name])
        if type(column) is not list or (column is block[name]
                                        and not set(map(type, column)) <= admitted):
            kinds = "/".join(sorted(cell.__name__ for cell in admitted))
            raise ValueError(f"{name!r} is neither a packed length nor a list of {kinds}")
        header.append(column)
    ids, times, nodes, seqs = header
    if not ids or {len(times), len(nodes), len(seqs)} != {len(ids)}:
        raise ValueError("columns are empty or of unequal lengths")
    table, cells = block["types"], block["cells"]
    if not (_is_column(table, {list}) and _is_column(cells, {list})
            and len(table) == len(cells)):
        raise ValueError("'types' and 'cells' are not lists of lists, one entry per type")
    if not 0 <= min(ids) <= max(ids) < len(table):
        raise ValueError("type id outside the block's 'types' table")
    first, offsets = block["first"], block["checkpoints"]
    if type(first) is not int or first != len(events):
        raise ValueError(f"'first' is {first!r} after {len(events)} events")
    if not (_is_column(offsets, {int}) and offsets == sorted(offsets)
            and (not offsets or 0 < offsets[0] and offsets[-1] <= len(ids))):
        raise ValueError(f"'checkpoints' {offsets!r} are not ascending offsets "
                         f"in 1..{len(ids)}")
    kinds, feeds, rows = [], [], 0
    for k, (entry, own) in enumerate(zip(table, cells)):
        if not (len(entry) == 2 and type(entry[0]) is str and _is_column(entry[1], {str})):
            raise ValueError(f"'types' entry {k} is not [name, [field names]]")
        kind = sys.intern(entry[0])
        names = events.declare(kind, tuple(map(sys.intern, entry[1])))
        if len(own) != row_layout(names)[1]:
            raise ValueError(f"{kind} rows are not stored as {row_layout(names)[1]} columns")
        # A type's rows: as many as its first column holds (a type with
        # no cells has one empty row per event of it).
        count = None if own else ids.count(k)
        for at, stored in enumerate(own):
            column = unpack.column(stored)
            if count is None and type(column) is list:
                count = len(column)
            if not (type(column) is list and len(column) == count):
                raise ValueError(f"{kind} column {at} is not one cell per {kind} event")
            if column is stored:
                cell_types, own[at] = _json_cells(column)
                if not cell_types <= _SCALARS:
                    raise ValueError(f"{kind} column {at} holds a cell that is "
                                     f"not an int, str, bool or None")
            else:
                own[at] = column
        kinds.append(kind)
        feeds.append(zip(*own) if own else repeat(()))
        rows += count
    unpack.finish()
    if rows != len(ids):
        raise ValueError(f"the columns hold {rows} rows for {len(ids)} events")
    events.types += map(kinds.__getitem__, ids)
    events.times += times
    events.nodes += nodes
    events.seqs += seqs
    # As many rows as events, so a type whose ids outnumber its rows
    # runs dry here (ending the deal early) and one with rows to spare
    # means another ran dry: one length check makes every count exact.
    events.rows += map(next, map(feeds.__getitem__, ids))
    if len(events.rows) != len(events.types):
        raise ValueError("a type's events outnumber its rows")
    return [first + offset for offset in offsets]


def _read_checkpoint(data: dict) -> Checkpoint:
    """Rebuild one checkpoint record, refusing (``ValueError``) any shape
    a :class:`~repro.replay.checkpoint.StateView` fold cannot start
    from: node -> pid -> ``{name, priority}`` processes, node -> int
    lists of halted pids and in-flight calls, int epochs and counts.
    A few C-level passes per table, no Python per entry."""
    view = data.get("view")
    if not (data.keys() == _CHECKPOINT_KEYS and type(data["index"]) is int
            and type(data["time"]) is int and type(data["state"]) is dict
            and type(view) is dict and view.keys() == _VIEW_KEYS
            and type(view["time"]) is int):
        raise ValueError("not {index: int, time: int, state: {}, view: {time: int, ...}}")
    tables = processes, halted, in_flight, epochs, counts = (
        view["processes"], view["halted"], view["in_flight"], view["epochs"], view["counts"])
    if not (set(map(type, tables)) == {dict}
            and set(map(type, processes.values())) <= {dict}
            and set(map(type, chain(halted.values(), in_flight.values()))) <= {list}):
        raise ValueError("view tables are not node -> object / list")
    entries = [*chain.from_iterable(map(dict.values, processes.values()))]
    ints = chain(epochs.values(), counts.values(), *halted.values(), *in_flight.values())
    if not (set(map(type, entries)) <= {dict}
            and set(map(frozenset, entries)) <= {_PROCESS_KEYS}
            and set(map(type, ints)) <= {int}):
        raise ValueError("view processes are not {name, priority}, or an epoch, "
                         "count, pid or call id is not an int")
    return Checkpoint.from_dict(data)


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
    #: Where the last block places the checkpoints that follow it, last
    #: first; before any block, checkpoints sit at index 0.
    placed: list[int] = []
    for kind, payload, at in _iter_records(body, fault):
        if not KIND_HEADER <= kind <= KIND_FOOTER:
            raise fault(f"unknown record kind {kind}", at)
        if kind == KIND_EVENTS:
            try:
                payload, packed = _split_block(payload)
            except ValueError as exc:
                raise fault(f"malformed event block ({exc})", at) from None
        try:
            data = json.loads(bytes(payload))
        except (ValueError, RecursionError) as exc:  # also bad UTF-8
            raise fault(f"corrupt JSON record ({exc})", at) from None
        if not isinstance(data, dict):
            raise fault("JSON record that is not an object", at)
        if kind == KIND_EVENTS:
            if placed:
                raise fault(f"event block before the {len(placed)} checkpoint(s) "
                            f"the previous block places", at)
            try:
                placed = _append_block(events, data, packed)[::-1]
            except ValueError as exc:
                raise fault(f"malformed event block ({exc})", at) from None
        elif kind == KIND_CHECKPOINT:
            try:
                checkpoint = _read_checkpoint(data)
            except ValueError as exc:
                raise fault(f"malformed checkpoint ({exc})", at) from None
            # Seeks (a bisect over the indices) rely on every checkpoint
            # sitting after exactly ``index`` events.
            where = placed.pop() if placed else None if events else 0
            if checkpoint.index != where:
                placement = "none" if where is None else f"one at {where}"
                raise fault(f"checkpoint with index {checkpoint.index} where "
                            f"the file places {placement}", at)
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
    if placed:
        raise fault(f"{len(placed)} checkpoint(s) the last block places are "
                    f"missing", footer_at)
    # The footer's count is checked here (O(1)); its fingerprint is not
    # recomputed on load — ``python -m repro.replay info`` does that.
    if footer.get("events") != len(events):
        raise fault(f"footer counts {footer.get('events')} events, "
                    f"{len(events)} present", footer_at)
    if not checkpoints or checkpoints[0].index != 0:
        raise fault("no checkpoint #0 (the recording's start state)", footer_at)
    return Trace(header, events, checkpoints, footer)
