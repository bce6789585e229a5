"""The trace container (PILTRACE) and the one-way JSONL export.

A trace is stored in one format, a length-prefixed binary container:

* a 12-byte preamble: magic ``b"PILTRACE"``, format version (u16),
  flags (u16, bit 0 = zlib-framed body; any other bit is refused);
* a record stream: ``kind`` byte + u32 payload length + payload.
  Header and footer payloads are one UTF-8 JSON object each, carried
  as is.  Events are stored **columnar**, as memory holds them
  (:class:`~repro.replay.trace.EventColumns`: per type, one column per
  row cell; the writer slices each block's cells off them and the
  reader appends a block's columns to them, packed ones as the array
  their bytes decode to): every run of ``_BLOCK_EVENTS`` events (the
  last run shorter) is one ``KIND_EVENTS`` block.  Its payload is a u32
  length, a JSON object of that length, and the packed bytes the object
  names.  The object holds ``first`` (index of its first event; the
  rest are implied), ``events`` (how many it holds), ``types`` (its
  table of ``[type name, [payload field names]]``), the ``events``-long
  header columns ``type`` (ids into that table) / ``t`` / ``node`` /
  ``seq`` in event order, ``cells`` (per table entry, one column per
  row cell over that type's events, as many cells as ``type`` holds
  its id) and ``checkpoints`` (below);
* one packing rule covers every column: a column whose every cell is an
  ``int`` (not a ``bool``) in the int64 range is stored as little-endian
  signed ints at the narrowest of 1, 2, 4 or 8 bytes a cell that holds
  every one of them (the block's own cells: a later block may be
  wider), and the object holds its byte length in its place, so the
  width is that length over the column's known cell count.  A column
  whose every cell is a ``str`` is ``{"strings": [its distinct cells,
  first seen first], "codes": <byte length>}``: its cells' indices into
  that table, packed so, at the width the table's size needs.  Any
  other column is a JSON list.  The packed bytes follow the object in
  the order it names them (``type``, ``t``, ``node``, ``seq``, then
  ``cells`` in table order), so the reader pays one ``json.loads`` over
  names and distinct strings, a ``frombytes`` straight into
  ``array('b' | 'h' | 'i' | 'q')`` per packed column and an intern per
  distinct string, not a parse or a conversion per event or per cell.
  Neither the normalized line nor the ``fields`` dict is stored, and
  the law that licenses it is: a row survives the round trip unchanged
  (every cell is ``int | str | bool | None``, and only an all-``int``
  or all-``str`` column is packed), and the line, whose byte-identity
  is the replay contract, is a pure function of header, field names and
  row (:func:`repro.obs.recorder.render_line`);
* a checkpoint record is one JSON object, ``index``, ``time``, ``state``
  and ``view`` as :meth:`~repro.replay.checkpoint.Checkpoint.to_dict`
  holds them, except that each node's ``state["nodes"]`` entry is a
  list in :data:`~repro.replay.checkpoint.NODE_STATE` order and the
  view's ``counts`` a list in :data:`~repro.obs.metrics.COUNTED` row
  order: the reader keys the dicts it rebuilds with the field names and
  count keys those tables hold, so a loaded trace holds each name once,
  not once per checkpoint.  A node's ``processes`` / ``halted`` /
  ``in_flight`` table, or the epochs, equal (``==``) to the previous
  checkpoint's is ``null``, for the reader to take that one's object
  (a fault in the first record or where it has none);
* a checkpoint sits after exactly ``index`` events.  One at index 0
  precedes the first block; any other follows the block holding event
  ``index - 1``, whose ``checkpoints`` lists ``index - first`` (each in
  ``1..len(block)``, ascending), and the reader holds every checkpoint
  record's ``index`` to the place its block lists;
* with flags bit 0 set, the record stream is carried in zlib frames
  (u32 raw length, u32 compressed length, deflate bytes), so a reader
  can bound every frame, and what it inflates to, before touching it.

The reader parses the record stream as it inflates it, a frame at a
time, so a load holds the file, one frame and one record, never the
whole stream.  Every malformed input raises :class:`TraceFormatError`
— and nothing else — from :func:`read_binary` itself (nothing is
deferred to first access; a checkpoint's view has the shapes a fold
starts from),
carrying the byte offset of the faulty record: file-relative for the
preamble and frames, record-stream-relative once inside a compressed
body.  The writer refuses (``ValueError``) a trace whose checkpoint
indices do not ascend within its events, whose columns hold anything
but those scalars, one per cell of a row, or whose checkpoints' counts
or node states are not those fields, of those types.

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
from itertools import chain
from operator import itemgetter
from typing import Optional

from repro.ioutil import atomic_write_bytes, atomic_write_text
from repro.obs.metrics import COUNTED
from repro.obs.recorder import row_layout
from repro.replay.checkpoint import NODE_STATE, Checkpoint, StateView
from repro.replay.trace import (_BLOCK_EVENTS, INT_WIDTHS, TRACE_VERSION, EventColumns,
                                Trace, grow_column, pack_column, slot_typecode)

__all__ = [
    "BINARY_VERSION",
    "MAGIC",
    "TraceFormatError",
    "export_jsonl",
    "read_binary",
    "record_bytes",
    "write_binary",
]

MAGIC = b"PILTRACE"
BINARY_VERSION = 6

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
#: A packed column's typecode by its bytes per cell (little-endian on disk).
_TYPECODES = {array(code).itemsize: code for code, _ in INT_WIDTHS}
_SWAP = sys.byteorder == "big"
_BYTES = bytes(range(128))

#: A block's header columns and the exact cell types each admits:
#: ``bool`` is not ``int``, so ``true`` in ``seq`` is a fault.
_COLUMNS = {"type": {int}, "t": {int}, "node": {int, type(None)},
            "seq": {int}}
#: What a row cell may be.
_SCALARS = {int, str, bool, type(None)}
_BLOCK_KEYS = {"first", "events", "types", "cells", "checkpoints", *_COLUMNS}
#: What a checkpoint record and its view hold (see
#: :class:`~repro.replay.checkpoint.StateView`).
_CHECKPOINT_KEYS = {"index", "time", "state", "view"}
_VIEW_KEYS = {"time", "processes", "halted", "in_flight", "epochs", "counts"}
#: A view's per-node tables (``null`` where a checkpoint repeats the last's).
_NODE_TABLES = ("processes", "halted", "in_flight")
_PROCESS_KEYS = frozenset({"name", "priority"})
_PROCESS_RECORD = itemgetter("name", "priority")
#: A node's raw state as a file stores it: its cells in field order.
_NODE_RECORD = itemgetter(*NODE_STATE)
_NODE_TYPES = tuple(NODE_STATE.values())
#: A view's count keys, in the order a checkpoint record lists the counts.
_COUNT_KEYS = dict.fromkeys(row.key for row in COUNTED)


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


def _within(codes, bound: int) -> bool:
    """Whether every int of ``codes`` is in ``range(bound)``: for a
    one-byte array, one C-level pass (a negative code's byte is 128 up)."""
    if getattr(codes, "itemsize", 0) == 1:
        return not codes.tobytes().translate(None, _BYTES[:bound])
    return not codes or 0 <= min(codes) and max(codes) < bound


def _stored(column, packed: list[bytes]):
    """``column`` as a block stores it: when :func:`pack_column` packs it,
    its packed byte length (the bytes appended to ``packed``); when every
    cell is a ``str``, its distinct cells in first-seen order and its
    cells' indices among them, stored by this rule; else the cells
    themselves, for the JSON object, when every one is a scalar; else
    ``None``.  An empty column is stored as no cells."""
    column = pack_column(column) if column else []
    if type(column) is not array:
        cells = set(map(type, column))
        if cells != {str}:
            return column if cells <= _SCALARS else None
        index = {cell: code for code, cell in enumerate(dict.fromkeys(column))}
        codes = array(slot_typecode([len(index)]), map(index.__getitem__, column))
        return {"strings": list(index), "codes": _stored(codes, packed)}
    if _SWAP:
        column = array(column.typecode, column)
        column.byteswap()
    packed.append(column.tobytes())
    return len(packed[-1])


def _block(events: EventColumns, run: range, offsets: list[int],
           done: list[int]) -> list[bytes]:
    """The payload, in pieces, storing events ``run`` and placing
    checkpoints after its ``offsets``: the header columns and, per type,
    the slice of each column holding its events in ``run`` (the first
    ``done[type id]`` are in earlier blocks), every column stored by
    :func:`_stored`."""
    span = slice(run.start, run.stop)
    kinds = events.kinds[span]
    codes = sorted(set(kinds), key=events.names.__getitem__)
    names = [events.names[code] for code in codes]
    local = bytearray(256)
    for at, code in enumerate(codes):
        local[code] = at
    packed: list[bytes] = []
    block = {"first": run.start, "events": len(run), "checkpoints": offsets,
             "types": [[name, list(events.schema[code])] for name, code in zip(names, codes)]}
    for name, column in zip(_COLUMNS, (list(kinds.translate(local)), events.times[span],
                                       events.nodes[span], events.seqs[span])):
        block[name] = _stored(column, packed)
        if block[name] is None:
            raise ValueError(f"a {name!r} cell in events [{run.start}, {run.stop}) "
                             f"is not an int, str, bool or None")
    block["cells"] = []
    for code, name in zip(codes, names):
        first, seen = done[code], kinds.count(code)
        done[code] += seen
        own = [_stored(column[first:first + seen], packed) for column in events.cells[code]]
        if None in own:
            raise ValueError(f"a {name} row in events [{run.start}, {run.stop}) is not "
                             f"one int, str, bool or None per cell of its fields")
        block["cells"].append(own)
    text = json.dumps(block, sort_keys=True).encode("utf-8")
    return [_BLOCK_JSON.pack(len(text)), text, *packed]


def _check_columns(events: EventColumns) -> None:
    """Refuse (``ValueError``) a type whose columns are not one per cell
    of its rows, each holding one cell per event of that type."""
    for name, names, columns, rows in zip(events.names, events.schema, events.cells,
                                          events.sizes):
        if (len(columns) != row_layout(names)[1]
                or set(map(len, columns)) - {rows}):
            raise ValueError(f"{name} rows are not one int, str, bool or None "
                             f"per cell of its fields")


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
    events = trace.events
    events.settle()
    _check_columns(events)
    total, done = len(events), [0] * len(events.names)
    record(KIND_HEADER, _json(trace.header))
    # The empty run stands before the first block: it places index 0.
    placed = 0
    for run in [range(0), *(range(first, min(first + _BLOCK_EVENTS, total))
                            for first in range(0, total, _BLOCK_EVENTS))]:
        upto = bisect_right(indices, run.stop)
        if run:
            record(KIND_EVENTS, *_block(events, run, [
                index - run.start for index in indices[placed:upto]], done))
        for at in range(placed, upto):
            record(KIND_CHECKPOINT, _json(_checkpoint_record(
                trace.checkpoints[at], trace.checkpoints[at - 1] if at else None)))
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


def _frames(blob: bytes, fault):
    """Yield the record stream's pieces one zlib frame at a time, each
    inflated (bounded) and checked before it is yielded."""
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
        yield chunk
        offset = data_at + comp_len


def _iter_records(pieces, fault):
    """Yield ``(kind, payload, offset)`` triples from the record stream
    ``pieces`` carry in order, bound-checking every length prefix before
    slicing.  A payload is a view into the piece holding it (pieces are
    joined only under a record that spans them), so what is held at a
    time is a record and a piece, never the whole stream."""
    pieces = iter(pieces)
    data, at, pos = b"", 0, 0

    def holds(size: int) -> bool:
        """Whether ``data[at:]`` holds ``size`` bytes, once pieces are
        joined to it until it does or the stream ends."""
        nonlocal data, at
        if len(data) - at >= size:
            return True
        parts = [data[at:]] if at < len(data) else []
        have = len(data) - at
        for piece in pieces:
            parts.append(piece)
            have += len(piece)
            if have >= size:
                break
        data, at = b"".join(parts), 0
        return have >= size

    while holds(1):
        if not holds(_RECORD.size):
            raise fault("truncated record header", pos)
        kind, length = _RECORD.unpack_from(data, at)
        end = _RECORD.size + length
        if not holds(end):
            raise fault(f"record length {length} overruns", pos)
        yield kind, memoryview(data)[at + _RECORD.size:at + end], pos
        at += end
        pos += end


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

    def column(self, stored, cells: int):
        """For a byte length, the next that many packed bytes decoded as
        ``cells`` little-endian ints of the width they divide into
        (``ValueError`` unless they are within what is left and 1, 2, 4
        or 8 bytes a cell); for a string column, its cells
        (:meth:`strings`); anything else as is, for the caller to check
        as a JSON column."""
        if type(stored) is dict:
            return self.strings(stored, cells)
        if type(stored) is not int:
            return stored
        left = len(self.data) - self.pos
        if not 0 <= stored <= left:
            raise ValueError(f"a packed column of {stored} bytes with {left} left")
        # No cells take no bytes (a type listed with no events here).
        width, spare = divmod(stored, cells) if cells else (1, stored)
        if spare or width not in _TYPECODES:
            raise ValueError(f"a packed column of {stored} bytes is not {cells} "
                             f"cells of 1, 2, 4 or 8 bytes")
        column = array(_TYPECODES[width])
        column.frombytes(self.data[self.pos:self.pos + stored])
        if _SWAP:
            column.byteswap()
        self.pos += stored
        return column

    def strings(self, stored: dict, cells: int) -> list:
        """A string column's ``cells``: its table's interned strings at its
        packed codes (``ValueError`` unless the table is distinct strings
        and the codes indices into it, as wide as its size needs)."""
        table, codes = stored.get("strings"), stored.get("codes")
        if not (stored.keys() == {"strings", "codes"} and type(codes) is int
                and _is_column(table, {str}) and len(set(table)) == len(table)):
            raise ValueError("a string column is not {strings: [distinct str], codes: length}")
        table = list(map(sys.intern, table))
        codes = self.column(codes, cells)
        if codes.typecode != slot_typecode([len(table)]) or not _within(codes, len(table)):
            raise ValueError(f"a string column's codes are not indices into its "
                             f"{len(table)} strings, as wide as they need")
        return [table[code] for code in codes]

    def finish(self) -> None:
        """Refuse packed bytes that no column named."""
        if self.pos != len(self.data):
            raise ValueError(f"{len(self.data) - self.pos} packed bytes no column names")


def _append_block(events: EventColumns, block: dict, packed: memoryview) -> list[int]:
    """Validate one ``KIND_EVENTS`` object and the packed bytes after it
    (``ValueError`` names the fault), append its events, and return the
    indices of the checkpoints it places after them.  Every check is a
    C-level pass over a whole column; nothing runs Python per event."""
    if block.keys() != _BLOCK_KEYS:
        raise ValueError(f"keys {sorted(block)} are not the block's columns")
    size = block["events"]
    if type(size) is not int or size < 1:
        raise ValueError(f"'events' is {size!r}, not a count of events")
    unpack = _Packed(packed)
    header = []
    for name, admitted in _COLUMNS.items():
        column = unpack.column(block[name], size)
        if not (type(column) is array
                or type(column) is list and set(map(type, column)) <= admitted):
            kinds = "/".join(sorted(cell.__name__ for cell in admitted))
            raise ValueError(f"{name!r} is neither a packed length nor a list of {kinds}")
        header.append(column)
    ids, times, nodes, seqs = header
    if {len(ids), len(times), len(nodes), len(seqs)} != {size}:
        raise ValueError(f"header columns are not {size} cells long")
    table, cells = block["types"], block["cells"]
    if not (_is_column(table, {list}) and _is_column(cells, {list})
            and len(table) == len(cells)):
        raise ValueError("'types' and 'cells' are not lists of lists, one entry per type")
    if not _within(ids, len(table)):
        raise ValueError("type id outside the block's 'types' table")
    # One byte an id (a wider packed column's buffer is not its ids, so
    # it is iterated), so counting and translating them are C-level scans.
    ids = bytes(ids) if getattr(ids, "itemsize", 1) == 1 else bytes(iter(ids))
    first, offsets = block["first"], block["checkpoints"]
    if type(first) is not int or first != len(events):
        raise ValueError(f"'first' is {first!r} after {len(events)} events")
    if not (_is_column(offsets, {int}) and offsets == sorted(offsets)
            and (not offsets or 0 < offsets[0] and offsets[-1] <= size)):
        raise ValueError(f"'checkpoints' {offsets!r} are not ascending offsets "
                         f"in 1..{size}")
    codes, feeds, grown = [], [], []
    for k, (entry, own) in enumerate(zip(table, cells)):
        if not (len(entry) == 2 and type(entry[0]) is str and _is_column(entry[1], {str})):
            raise ValueError(f"'types' entry {k} is not [name, [field names]]")
        kind = sys.intern(entry[0])
        code = events.declare(kind, tuple(map(sys.intern, entry[1])))
        if code in codes:
            raise ValueError(f"'types' names {kind} twice")
        width = len(events.cells[code])
        if len(own) != width:
            raise ValueError(f"{kind} rows are not stored as {width} columns")
        # A type's rows: one per event of it (so each column's width
        # follows from its byte length).
        count = ids.count(k)
        for at, stored in enumerate(own):
            column = unpack.column(stored, count)
            if not (type(column) in (list, array) and len(column) == count):
                raise ValueError(f"{kind} column {at} is not one cell per {kind} event")
            if column is stored and not set(map(type, column)) <= _SCALARS:
                raise ValueError(f"{kind} column {at} holds a cell that is "
                                 f"not an int, str, bool or None")
            own[at] = column
        codes.append(code)
        # This block's rows of the type follow the ones already held.
        feeds.append(iter(range(events.sizes[code], events.sizes[code] + count)))
        grown.append((code, own, count))
    unpack.finish()
    events.kinds += ids.translate(bytes(codes).ljust(256, b"\0"))
    events.times = grow_column(events.times, times)
    events.nodes += nodes
    events.seqs = grow_column(events.seqs, seqs)
    for code, own, count in grown:
        events.cells[code][:] = map(grow_column, events.cells[code], own)
        events.sizes[code] += count
    slots = map(next, map(feeds.__getitem__, ids))
    events.slots = grow_column(events.slots, array(slot_typecode(events.sizes), slots))
    return [first + offset for offset in offsets]


def _node_cells_fit(cells) -> bool:
    """Whether a node's raw state cells are :data:`NODE_STATE`'s, in order."""
    return tuple(map(type, cells)) == _NODE_TYPES


def _node_state(cells: list) -> dict:
    """A node's raw state from its stored cells, its name interned (one
    string per node, not per checkpoint)."""
    state = dict(zip(NODE_STATE, cells))
    state["name"] = sys.intern(state["name"])
    return state


def _checkpoint_record(checkpoint: Checkpoint, previous: Optional[Checkpoint]) -> dict:
    """``checkpoint`` as its record stores it: each node's raw state as
    a list in :data:`~repro.replay.checkpoint.NODE_STATE` order, the
    view's counts as a list in :data:`~repro.obs.metrics.COUNTED` order,
    and ``null`` for each per-node table, and the epochs, equal to
    ``previous``'s; refused (``ValueError``) unless the state and counts
    hold exactly those fields, of those types."""
    data = checkpoint.to_dict()
    state, view = data["state"], data["view"]
    counts = view["counts"]
    if counts.keys() != _COUNT_KEYS.keys() or set(map(type, counts.values())) - {int}:
        raise ValueError(f"checkpoint {checkpoint.index}'s counts are not an int "
                         f"for each of {list(_COUNT_KEYS)}")
    view = data["view"] = dict(view, counts=[counts[key] for key in _COUNT_KEYS])
    if previous is not None:
        for name in _NODE_TABLES:
            before = getattr(previous.view, name)
            view[name] = {node: None if node in before and before[node] == table else table
                          for node, table in view[name].items()}
        if view["epochs"] == previous.view.epochs:
            view["epochs"] = None
    if "nodes" in state:
        entries = state["nodes"].values()
        if not all(type(entry) is dict and entry.keys() == NODE_STATE.keys()
                   and _node_cells_fit(_NODE_RECORD(entry)) for entry in entries):
            raise ValueError(f"checkpoint {checkpoint.index}'s node state is not "
                             f"{list(NODE_STATE)} of {[t.__name__ for t in _NODE_TYPES]}")
        data["state"] = dict(state, nodes={node: list(_NODE_RECORD(entry))
                                           for node, entry in state["nodes"].items()})
    return data


def _read_checkpoint(data: dict, shared: dict, previous: Optional[StateView]) -> Checkpoint:
    """Rebuild one checkpoint record, refusing (``ValueError``) any shape
    a :class:`~repro.replay.checkpoint.StateView` fold cannot start
    from: node -> pid -> ``{name, priority}`` processes, node -> int
    lists of halted pids and in-flight calls, int epochs, and counts and
    each node's raw state as the lists :func:`_checkpoint_record` writes.
    Those lists come back as dicts keyed by the module's own field names
    (state keys and node ids interned), so a loaded trace holds each key
    once, not once per checkpoint.  A ``null`` table (or epochs) is the
    ``previous`` view's, and only the tables the record holds are
    checked.  A ``{name, priority}`` record (a str or int each, so a
    ``bool`` is not taken for an ``int``) equal to one in ``shared`` (the
    trace's earlier checkpoints) is replaced by it: folds never mutate
    one (see :meth:`~repro.replay.checkpoint.StateView.copy`).  A few
    C-level passes per table, no Python per entry but a call per node."""
    view, state = data.get("view"), data.get("state")
    if not (data.keys() == _CHECKPOINT_KEYS and type(data["index"]) is int
            and type(data["time"]) is int and type(state) is dict
            and type(view) is dict and view.keys() == _VIEW_KEYS
            and type(view["time"]) is int):
        raise ValueError("not {index: int, time: int, state: {}, view: {time: int, ...}}")
    fresh = {"epochs": view["epochs"]}
    if view["epochs"] is None:
        view["epochs"], fresh["epochs"] = getattr(previous, "epochs", None), {}
    for name in _NODE_TABLES:
        table = view[name]
        if type(table) is not dict:
            raise ValueError(f"view {name} is not node -> table")
        fresh[name] = [entry for entry in table.values() if entry is not None]
        kept = [node for node, entry in table.items() if entry is None]
        before = getattr(previous, name, {})
        if not before.keys() >= set(kept):
            raise ValueError(f"a null {name} table where the checkpoint before has none")
        table.update(zip(kept, map(before.__getitem__, kept)))
    if not (type(fresh["epochs"]) is dict and view["epochs"] is not None
            and set(map(type, fresh["processes"])) <= {dict}
            and set(map(type, chain(fresh["halted"], fresh["in_flight"]))) <= {list}):
        raise ValueError("view tables are not node -> object / list, nor null "
                         "after a checkpoint")
    entries = [*chain.from_iterable(map(dict.values, fresh["processes"]))]
    ints = chain(fresh["epochs"].values(), *fresh["halted"], *fresh["in_flight"])
    if not (set(map(type, entries)) <= {dict}
            and set(map(frozenset, entries)) <= {_PROCESS_KEYS}
            and set(map(type, chain.from_iterable(map(_PROCESS_RECORD, entries))))
            <= {str, int} and set(map(type, ints)) <= {int}):
        raise ValueError("view processes are not {name, priority}, or an epoch, "
                         "pid or call id is not an int")
    counts = view["counts"]
    if not (type(counts) is list and len(counts) == len(_COUNT_KEYS)
            and set(map(type, counts)) <= {int}):
        raise ValueError(f"view counts are not {len(_COUNT_KEYS)} ints")
    view["counts"] = dict(zip(_COUNT_KEYS, counts))
    if "nodes" in state:
        nodes = state["nodes"]
        if not (type(nodes) is dict and set(map(type, nodes.values())) <= {list}
                and all(map(_node_cells_fit, nodes.values()))):
            raise ValueError(f"node state is not node -> {[t.__name__ for t in _NODE_TYPES]}")
        state["nodes"] = dict(zip(map(sys.intern, nodes), map(_node_state, nodes.values())))
    data["state"] = dict(zip(map(sys.intern, state), state.values()))
    for table in fresh["processes"]:
        table.update(list(zip(table, map(shared.setdefault, map(
            _PROCESS_RECORD, table.values()), table.values()))))
    return Checkpoint.from_dict(data)


def _records(path):
    """The ``(kind, payload, offset)`` records of the file at ``path``
    (:func:`_iter_records`), with their fault builder."""
    with open(path, "rb") as fh:
        blob = fh.read()
    in_frames = bool(_read_preamble(blob, _faults(path)) & FLAG_ZLIB)
    # The record stream is parsed as it is inflated, a frame at a time
    # (an uncompressed body is cut into frame-sized pieces alike).
    view = memoryview(blob)
    pieces = (_frames(blob, _faults(path)) if in_frames else
              (view[at:at + _FRAME_RAW_SIZE]
               for at in range(_PREAMBLE.size, len(blob), _FRAME_RAW_SIZE)))
    fault = _faults(path, 0 if in_frames else _PREAMBLE.size, in_frames)
    return _iter_records(pieces, fault), fault


def read_binary(path) -> Trace:
    """Load and fully validate a trace written by :func:`write_binary`."""
    records, fault = _records(path)
    # Decoding allocates a few containers per event and no cycles, yet
    # the cyclic collector's passes over that growing tree cost as much
    # as the parse itself: pause it for the loop, then age the new
    # objects in one pass here rather than leave three to the caller.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _decode_records(records, fault)
    finally:
        if collecting:
            gc.enable()
            gc.collect(1)


def record_bytes(path) -> dict:
    """The raw record stream's bytes by kind of record, prefixes included
    (an event block's packed bytes apart from its JSON), read off the
    record headers of a file :func:`read_binary` loads."""
    sizes = dict.fromkeys(("event blocks, JSON", "event blocks, packed", "checkpoints",
                           "header + footer"), 0)
    for kind, payload, _ in _records(path)[0]:
        size = _RECORD.size + len(payload)
        if kind == KIND_EVENTS:
            packed = len(_split_block(payload)[1])
            sizes["event blocks, packed"] += packed
            sizes["event blocks, JSON"] += size - packed
        else:
            sizes["checkpoints" if kind == KIND_CHECKPOINT else "header + footer"] += size
    return sizes


def _decode_records(records, fault) -> Trace:
    """Rebuild the trace from its records, checking every one."""
    header = footer = None
    footer_at = end = 0
    events = EventColumns()
    checkpoints: list[Checkpoint] = []
    #: ``(name, priority) -> {name, priority}`` over every checkpoint.
    shared: dict = {}
    #: Where the last block places the checkpoints that follow it, last
    #: first; before any block, checkpoints sit at index 0.
    placed: list[int] = []
    for kind, payload, at in records:
        end = at + _RECORD.size + len(payload)
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
                checkpoint = _read_checkpoint(
                    data, shared, checkpoints[-1].view if checkpoints else None)
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
        raise fault("truncated trace: missing header/footer", end)
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
