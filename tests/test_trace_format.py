"""The trace container: round-trips, the JSONL export, and corruption.

Every malformed-input path must raise a typed
:class:`repro.replay.TraceFormatError` carrying the byte offset of the
fault — a debugger's traces are its evidence, so a corrupt file has to
say *where* it broke, not die in ``struct.unpack``.
"""

import collections
import copy
import gc
import itertools
import json
import math
import operator
import random
import struct
import tracemalloc
import zlib
from array import array
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import MS, FaultPlan, record_run
from repro.contracts import UNIVERSAL_SET
from repro.contracts.offline import check_trace
from repro.obs import events as ev
from repro.obs.bus import Bus
from repro.obs.metrics import COUNTED
from repro.obs.recorder import PARTS, row_layout
from repro.replay import TRACE_VERSION, TimeTravel, Trace, TraceFormatError
from repro.replay import format as trace_format
from repro.replay import trace as trace_module
from repro.replay.checkpoint import NODE_STATE, Checkpoint, StateView, empty_view
from repro.replay.cli import main as replay_cli
from repro.replay.format import (
    BINARY_VERSION,
    FLAG_ZLIB,
    KIND_CHECKPOINT,
    KIND_EVENTS,
    KIND_HEADER,
    MAGIC,
    _BLOCK_JSON,
    _FRAME,
    _FRAME_RAW_SIZE,
    _PREAMBLE,
    _RECORD,
    _faults,
    _iter_records,
    _stored,
    export_jsonl,
    write_binary,
)
from repro.replay.trace import EventStream, TraceEvent
from tests.fuzz import corrupt
from tests.golden_scenario import GOLDEN_BINARY_PATH

#: A checkpoint's count keys, in the order its record lists the counts.
COUNT_KEYS = [row.key for row in COUNTED]

PING = """
proc main()
  var r: int := remote svc.echo(1)
  print r
end
"""

ECHO = "proc echo(x: int) returns int\n  return x\nend"


def small_trace():
    def build(cluster):
        image = cluster.load_program(ECHO, "b")
        cluster.rpc("b").export_vm("svc", image, {"echo": "echo"})
        client = cluster.load_program(PING, "a")
        cluster.spawn_vm("a", client, "main")
    return record_run(build, ["a", "b"], seed=3, run_until=100 * MS)


@pytest.fixture(scope="module")
def trace():
    return small_trace()


# ----------------------------------------------------------------------
# Round-trips
# ----------------------------------------------------------------------


@pytest.mark.parametrize("compress", [True, False], ids=["zlib", "raw"])
def test_binary_round_trip_is_lossless(trace, tmp_path, compress):
    path = tmp_path / "t.trace.bin"
    write_binary(trace, path, compress=compress)
    loaded = Trace.load(path)
    assert loaded.lines() == trace.lines()
    assert loaded.header == trace.header
    assert loaded.footer == trace.footer
    assert loaded.fingerprint() == trace.fingerprint()
    assert [c.to_dict() for c in loaded.checkpoints] == \
        [c.to_dict() for c in trace.checkpoints]


def test_a_loaded_trace_holds_each_checkpoint_key_once(tmp_path):
    """Checkpoint records store counts and node state as lists, and the
    reader keys the dicts it builds from them with the module's own field
    names: every state, node-state and count key of a loaded trace is one
    object however many checkpoints hold it (a JSON parse makes a copy
    of each per record)."""
    loaded = Trace.load(GOLDEN_BINARY_PATH)
    again = Trace.load(GOLDEN_BINARY_PATH)
    assert len(loaded.checkpoints) > 5
    keys = [key for trace in (loaded, again) for checkpoint in trace.checkpoints
            for key in itertools.chain(checkpoint.state, checkpoint.state["nodes"],
                             *checkpoint.state["nodes"].values(), checkpoint.view.counts)]
    assert len(set(map(id, keys))) == len(set(keys))
    for checkpoint in loaded.checkpoints:
        assert all(map(operator.is_, checkpoint.view.counts, COUNT_KEYS))
        for state in checkpoint.state["nodes"].values():
            assert all(map(operator.is_, state, NODE_STATE))


def file_records(path):
    """``(kind, payload)`` of every record of the raw container at ``path``."""
    return [(kind, bytes(payload)) for kind, payload, _ in
            _iter_records([path.read_bytes()[_PREAMBLE.size:]], _faults(path))]


#: The header columns of a block, then its cells: the order packed
#: columns take their bytes in.
HEADER_COLUMNS = ("type", "t", "node", "seq")


def stored_block(payload: bytes) -> tuple[dict, bytes]:
    """A block record's JSON object as stored, and the bytes after it."""
    (length,) = struct.unpack_from("<I", payload)
    return json.loads(payload[4:4 + length]), payload[4 + length:]


#: A packed cell's ``struct`` code by its width in bytes.
STRUCT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


def decode_block(payload: bytes) -> dict:
    """A block record as one JSON object with every column a list: the
    format read independently of the reader (u32 JSON length, JSON, then
    each packed column's little-endian cells in column order, as many
    bytes a cell as its byte length over its cells: ``events`` for a
    header column, its type's events for a row cell; a string column's
    cells are its ``strings`` at its packed ``codes``)."""
    block, packed = stored_block(payload)

    def unpack(stored, cells):
        nonlocal packed
        if type(stored) is dict:
            codes = unpack(stored["codes"], cells)
            assert min(codes, default=0) >= 0
            return [stored["strings"][code] for code in codes]
        if type(stored) is not int:
            return stored
        code = STRUCT_CODES[stored // cells]
        assert stored == cells * struct.calcsize(f"<{code}")
        column = list(struct.unpack(f"<{cells}{code}", packed[:stored]))
        packed = packed[stored:]
        return column
    for name in HEADER_COLUMNS:
        block[name] = unpack(block[name], block["events"])
    block["cells"] = [[unpack(column, block["type"].count(k)) for column in own]
                      for k, own in enumerate(block["cells"])]
    assert not packed
    return block


def encode_block(block: dict) -> bytes:
    """The inverse of :func:`decode_block` under the writer's packing rule
    (a column that is not a list is stored as it is)."""
    packed = []

    def store(column):
        stored = _stored(column, packed) if type(column) is list else None
        return column if stored is None else stored
    block = dict(block, **{name: store(block[name]) for name in HEADER_COLUMNS
                           if name in block})
    block["cells"] = [[store(column) for column in own] if type(own) is list else own
                      for own in block.get("cells", [])]
    text = json.dumps(block, sort_keys=True).encode("utf-8")
    return _BLOCK_JSON.pack(len(text)) + text + b"".join(packed)


def test_long_event_runs_split_into_capped_blocks(tmp_path, monkeypatch):
    """Blocks are cut every ``_BLOCK_EVENTS`` events and nowhere else:
    their number is fixed by the event count, with the golden's six
    checkpoints as with its first one only, and each block lists where
    the checkpoints after it sit."""
    golden = Trace.load(GOLDEN_BINARY_PATH)
    total = len(golden.events)
    assert len(golden.checkpoints) == 6
    for cap, checkpoints in itertools.product(
            [1, 16, 64], [golden.checkpoints, golden.checkpoints[:1]]):
        monkeypatch.setattr(trace_format, "_BLOCK_EVENTS", cap)
        trace = Trace(golden.header, golden.events, checkpoints, golden.footer)
        path = tmp_path / f"{cap}-{len(checkpoints)}.trace.bin"
        write_binary(trace, path, compress=False)
        blocks = [decode_block(payload) for kind, payload in file_records(path)
                  if kind == KIND_EVENTS]
        assert len(blocks) == math.ceil(total / cap)
        assert [(block["first"], len(block["t"])) for block in blocks] == \
            [(first, min(cap, total - first)) for first in range(0, total, cap)]
        placed = [block["first"] + offset for block in blocks
                  for offset in block["checkpoints"]]
        assert [0, *placed] == [checkpoint.index for checkpoint in checkpoints]
        assert Trace.load(path).events == trace.events


def narrowest(cells) -> int:
    """The fewest of 1, 2, 4 or 8 bytes a cell that hold every int in ``cells``."""
    return next(width for width in STRUCT_CODES
                if -(1 << 8 * width - 1) <= min(cells) and max(cells) < 1 << 8 * width - 1)


def test_int_columns_are_packed_and_others_stay_json(tmp_path):
    """One packing rule for header columns and cells: all-``int`` columns
    are stored at the narrowest of 1, 2, 4 or 8 bytes a cell that holds
    them, named by byte length; all-``str`` ones as their distinct cells
    in first-seen order and each cell's index among them, packed by the
    same rule; anything else (the golden's ``node`` column holds
    ``None``s) a JSON list."""
    path = tmp_path / "t.trace.bin"
    write_binary(Trace.load(GOLDEN_BINARY_PATH), path, compress=False)
    for kind, payload in file_records(path):
        if kind != KIND_EVENTS:
            continue
        stored, packed = stored_block(payload)
        decoded = decode_block(payload)
        columns = [(stored[name], decoded[name]) for name in HEADER_COLUMNS]
        for own, cells in zip(stored["cells"], decoded["cells"]):
            columns += zip(own, cells)
        total, strings = 0, 0
        for raw, cells in columns:
            if set(map(type, cells)) == {str}:
                table = list(dict.fromkeys(cells))
                codes = list(map(table.index, cells))
                assert raw == {"strings": table, "codes": narrowest(codes) * len(cells)}
                total += raw["codes"]
                strings += 1
            elif set(map(type, cells)) == {int}:
                assert raw == narrowest(cells) * len(cells)
                total += raw
            else:
                assert raw == cells
        assert len(packed) == total and strings
        assert [type(stored[name]) for name in HEADER_COLUMNS] == [int, int, list, int]


def test_slots_are_held_at_the_narrowest_width_the_largest_type_count_needs(tmp_path):
    """``slots`` (each event's index among its type's) is an array of the
    narrowest typecode holding the largest type count less one, recorded
    or loaded: the golden's (32 events of its most frequent type) one
    byte an event; 200 events of one type two bytes, widened at the
    second block of a load."""
    golden = Trace.load(GOLDEN_BINARY_PATH)
    assert max(golden.events.sizes) == 32 and golden.events.slots.typecode == "b"
    events = [TraceEvent.of(i, "Tick", i, None, i, {"value": i}) for i in range(200)]
    trace = Trace({"version": TRACE_VERSION}, events,
                  [Checkpoint(index=0, time=0, state={}, view=empty_view([0]))],
                  {"events": len(events)})
    path = tmp_path / "t.trace.bin"
    with mock.patch.object(trace_format, "_BLOCK_EVENTS", 100):
        write_binary(trace, path, compress=False)
    loaded = Trace.load(path).events
    assert loaded.slots.typecode == trace.events.slots.typecode == "h"
    assert list(loaded.slots) == list(range(200))


def test_a_widened_column_keeps_every_cell_and_its_order():
    """``grow_column`` widens a held column a slice at a time: every
    cell, across slice boundaries and at the narrow width's edges, comes
    through in order ahead of the wider cells."""
    held = array("h", [*range(-2500, 2500), -(1 << 15), (1 << 15) - 1])
    grown = trace_module.grow_column(held, array("i", [1 << 15, -(1 << 31)]))
    assert grown.typecode == "i"
    assert list(grown) == [*range(-2500, 2500), -(1 << 15), (1 << 15) - 1, 1 << 15, -(1 << 31)]


#: Where each packed width ends: the last int it holds and the first it
#: does not, on either side, and the ends of int64.
_WIDTH_EDGES = sorted({edge for bound in (1 << 7, 1 << 15, 1 << 31)
                       for edge in (bound - 1, bound, -bound, -bound - 1)}
                      | {0, -(1 << 63), (1 << 63) - 1})


@given(values=st.lists(st.sampled_from(_WIDTH_EDGES), min_size=1, max_size=24),
       cap=st.integers(1, 8), compress=st.booleans())
@example(values=[0, 127, 128, -32769, (1 << 31) - 1, -(1 << 63)], cap=1, compress=False)
@settings(max_examples=150, deadline=None)
def test_int_columns_load_at_the_narrowest_width_that_holds_them(
        tmp_path_factory, values, cap, compress):
    """Every int column round-trips at each width's edges, each block
    stores it at the narrowest width its own cells need, and the loaded
    column is an array of the narrowest typecode holding every cell, so
    a column that a later block widens is held at the wider width.  The
    example widens ``value`` (rising edges, a block each) at every block."""
    rising = sorted(values, key=abs)
    events = [TraceEvent.of(i, "Tick", value, None, rising[-1 - i],
                            {"value": rising[i], "spread": value})
              for i, value in enumerate(values)]
    path = tmp_path_factory.mktemp("widths") / "t.trace.bin"
    with mock.patch.object(trace_format, "_BLOCK_EVENTS", cap):
        write_binary(Trace({"version": TRACE_VERSION}, events,
                           [Checkpoint(index=0, time=0, state={}, view=empty_view([0]))],
                           {"events": len(events)}), path, compress=compress)
    loaded = Trace.load(path)
    assert loaded.events == events
    columns = {"t": values, "seq": rising[::-1], "value": rising, "spread": values}
    held = dict(zip(columns, [loaded.events.times, loaded.events.seqs,
                              *loaded.events.cells[loaded.events.ids["Tick"]]]))
    for name, cells in columns.items():
        assert type(held[name]) is array, name
        assert held[name].itemsize == narrowest(cells), name
    if not compress:
        for kind, payload in file_records(path):
            if kind == KIND_EVENTS:
                stored, decoded = stored_block(payload)[0], decode_block(payload)
                for name, column in (("t", "t"), ("seq", "seq")):
                    assert stored[name] == narrowest(decoded[column]) * len(decoded[column])
                for raw, cells in zip(stored["cells"][0], decoded["cells"][0]):
                    assert raw == narrowest(cells) * len(cells)


#: Strings a column's table must keep apart and give back as they were:
#: empty, ones that look like ints or JSON literals, non-ASCII, non-BMP.
_TABLE_TEXT = st.one_of(st.sampled_from(
    ["", "0", "1", "-7", "1.5", "true", "null", "\u00e9", "\U0001f600"]), st.text())


@given(pool=st.lists(_TABLE_TEXT, unique=True, min_size=1, max_size=300),
       picks=st.lists(st.integers(0, 299), min_size=1, max_size=400),
       mixed_from=st.integers(0, 400), cap=st.sampled_from([1, 7, 64, 150, 4096]),
       compress=st.booleans())
@example(pool=[str(i) for i in range(300)],
         picks=[i % 50 for i in range(150)] + list(range(150, 300)),
         mixed_from=150, cap=150, compress=False)
@settings(max_examples=60, deadline=None)
def test_string_columns_round_trip_through_their_tables(
        tmp_path_factory, pool, picks, mixed_from, cap, compress):
    """An all-``str`` column is stored per block as its distinct strings
    in first-seen order and each cell's index among them, at the width
    the table's size needs (the example's first block needs 1 byte and
    its second 2); ``other``, all strings in the blocks before
    ``mixed_from`` and then a ``None`` every third event, is a JSON list
    from that block on.  Every cell loads back equal and of its type,
    and equal strings of ``name`` are one object."""
    names = [pool[pick % len(pool)] for pick in picks]
    others = [None if i >= mixed_from and i % 3 == 0 else name[::-1]
              for i, name in enumerate(names)]
    events = [TraceEvent.of(i, "Tick", i, None, i, {"name": name, "other": other})
              for i, (name, other) in enumerate(zip(names, others))]
    path = tmp_path_factory.mktemp("strings") / "t.trace.bin"
    with mock.patch.object(trace_format, "_BLOCK_EVENTS", cap):
        write_binary(Trace({"version": TRACE_VERSION}, events,
                           [Checkpoint(index=0, time=0, state={}, view=empty_view([0]))],
                           {"events": len(events)}), path, compress=compress)
    loaded = Trace.load(path)
    assert loaded.events == events
    held = loaded.events.cells[loaded.events.ids["Tick"]]
    assert [list(map(type, column)) for column in held] == \
        [list(map(type, names)), list(map(type, others))]
    assert len(set(map(id, held[0]))) == len(set(names))
    if compress:
        return
    blocks = [(stored_block(payload)[0], decode_block(payload))
              for kind, payload in file_records(path) if kind == KIND_EVENTS]
    for first, (stored, decoded) in zip(range(0, len(events), cap), blocks):
        for raw, cells in zip(stored["cells"][0], decoded["cells"][0]):
            if set(map(type, cells)) == {str}:
                table = list(dict.fromkeys(cells))
                assert raw == {"strings": table,
                               "codes": narrowest([len(table) - 1]) * len(cells)}
            else:
                assert raw == cells and None in cells and first + cap > mixed_from


#: Text that has broken line- or byte-oriented decoders before: line
#: breaks, NUL, quotes, non-ASCII, non-BMP, the Unicode line separator;
#: ``%`` because lines are rendered through a format string.
_NASTY = st.text(alphabet=st.sampled_from('a %\n\r\0"\\\u00e9\u2028\U0001f600'))
_TEXT = st.one_of(st.text(), _NASTY)
#: Where the int64 packing ends: in range (packed) and one past (JSON).
_EDGES = [(1 << 63) - 1, -(1 << 63) + 1, -(1 << 63), 1 << 63, -(1 << 63) - 1]
_INT = st.one_of(st.integers(), st.sampled_from(_EDGES))
_CELL = st.one_of(st.none(), st.booleans(), _INT, _TEXT)
#: What one field's cells are across a trace: all ints (a packed column
#: unless one is past int64), ints mixed with bools or ``None`` (never
#: packed: ``True`` must not come back as ``1``), all strings, anything.
_COLUMN_KINDS = st.sampled_from([
    _INT, st.one_of(_INT, st.booleans()), st.one_of(_INT, st.none()), _TEXT, _CELL])
_TYPES = ["PacketSent", "ProcessCreated", "\u00e9v\u00e9nement"]


def _partial(field, cell):
    """A flattened object as a hand-built dict: any subset of its parts."""
    return st.one_of(st.none(), st.dictionaries(
        st.sampled_from(PARTS[field]), cell))


@st.composite
def _hand_built_events(draw):
    """Events of three types, each type with one drawn field list (a
    type's field names are fixed for a whole trace) and each field with
    one drawn kind of cell."""
    fields = {kind: draw(st.lists(
        st.one_of(_TEXT, st.sampled_from(["packet", "process", "error"])),
        unique=True, max_size=4)) for kind in _TYPES}
    cells = {(kind, name): draw(_COLUMN_KINDS)
             for kind, names in fields.items() for name in names}
    events = []
    for index in range(draw(st.integers(0, 20))):
        kind = draw(st.sampled_from(_TYPES))
        events.append(TraceEvent.of(
            index, kind, draw(_INT),
            draw(st.one_of(st.none(), st.integers(0, 9))), draw(_INT),
            {name: draw(_partial(name, cells[kind, name]) if name in PARTS
                        else cells[kind, name])
             for name in fields[kind]}))
    return events


@given(events=_hand_built_events(), data=st.data(), compress=st.booleans(),
       cap=st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_hand_built_events_round_trip_equal(tmp_path_factory, events, data,
                                            compress, cap):
    """Save -> load is the identity on every cell of every event (its
    exact type included: ``True`` does not come back as ``1``, nor an
    int past int64 as anything but itself), whatever the names and the
    strings contain, however the blocks cut the stream and wherever the
    checkpoints fall in them (at 0, at a block's end, after the last
    event, several in one block, in a trace of no events) — so the
    derived fields and lines are equal too.  A part a hand-built packet
    dict lacks is ``None``."""
    cuts = data.draw(st.lists(st.integers(0, len(events)), max_size=6))
    checkpoints = [Checkpoint(index=i, time=0, state={}, view=empty_view([0]))
                   for i in sorted([0, *cuts])]
    built = Trace({"version": TRACE_VERSION}, events, checkpoints,
                  {"events": len(events)})
    path = tmp_path_factory.mktemp("rt") / "t.trace.bin"
    with mock.patch.object(trace_format, "_BLOCK_EVENTS", cap):
        write_binary(built, path, compress=compress)
    loaded = Trace.load(path)
    assert loaded.events == events
    assert [[type(cell) for cell in (e.type, e.time, e.node, e.seq, *e.row)]
            for e in loaded.events] == \
        [[type(cell) for cell in (e.type, e.time, e.node, e.seq, *e.row)]
         for e in events]
    assert loaded.lines() == [e.line for e in events]
    assert [e.fields for e in loaded.events] == [e.fields for e in events]
    assert [c.to_dict() for c in loaded.checkpoints] == \
        [c.to_dict() for c in checkpoints]


def test_a_partial_packet_reads_back_with_its_absent_parts_as_none():
    event = TraceEvent.of(0, "PacketSent", 5, 1, 9,
                          {"packet": {"pkt": 3, "kind": "ack"}, "n": None})
    assert event.names == ("packet", "n")
    assert event.row == (3, None, None, None, "ack", None, None)
    assert event.fields == {"n": None, "packet": {
        "pkt": 3, "src": None, "dst": None, "port": None, "kind": "ack",
        "size": None}}
    assert event.line == ("000009 t=5 node=1 PacketSent "
                          "packet=pkt#3[None->None:None/ack/NoneB] n=None")
    absent = TraceEvent.of(0, "PacketSent", 5, 1, 9, {"packet": {}, "n": 1})
    assert absent.fields == {"packet": None, "n": 1}
    assert absent.line == "000009 t=5 node=1 PacketSent packet=None n=1"
    with pytest.raises(ValueError, match="no part"):
        TraceEvent.of(0, "PacketSent", 5, 1, 9, {"packet": {"ttl": 1}})


def set_row_cell(events, index, at, value):
    """Set cell ``at`` of event ``index``'s row, where the columns hold
    it (a packed column becomes a list, to take any value)."""
    columns = events.cells[events.kinds[index]]
    column = list(columns[at])
    column[events.slots[index]] = value
    columns[at] = column


def test_writer_refuses_what_the_reader_would(trace, tmp_path):
    """Event indices are implied by position, checkpoints by their place
    in the stream and a type's field names hold for the whole trace, so a
    trace that says otherwise cannot be built or stored, nor can a row
    that would not survive the JSON round trip — and a refusal leaves no
    file behind."""
    path = tmp_path / "t.trace.bin"
    renumbered = list(trace.events)
    renumbered[2].index = 99
    with pytest.raises(ValueError, match="not its position"):
        Trace(trace.header, renumbered, trace.checkpoints, trace.footer)
    renamed = list(trace.events)
    renamed[-1] = TraceEvent.of(len(renamed) - 1, renamed[0].type, 0, 0, 0,
                                {"other": 1})
    with pytest.raises(ValueError, match="in this trace"):
        Trace(trace.header, renamed, trace.checkpoints, trace.footer)
    misplaced = copy.deepcopy(trace)
    misplaced.checkpoints[0].index = len(trace.events) + 1
    with pytest.raises(ValueError, match="out of order or past"):
        misplaced.save(path)
    for bad in (1.5, [1], {"a": 1}):
        unstorable = copy.deepcopy(trace)
        set_row_cell(unstorable.events, 3, 0, bad)
        with pytest.raises(ValueError, match="not one int, str, bool or None"):
            unstorable.save(path)
    # Checkpoints store counts and node state by position: a field more
    # or less, or a cell of another type, has no place in the record.
    for edit in (lambda c: c.view.counts.pop("rpc_failed"),
                 lambda c: c.view.counts.update(extra=1),
                 lambda c: c.state["nodes"]["0"].pop("cpu_consumed"),
                 lambda c: c.state["nodes"]["0"].update(crashed=0)):
        unpositioned = copy.deepcopy(trace)
        edit(unpositioned.checkpoints[-1])
        with pytest.raises(ValueError, match="counts are not|node state is not"):
            unpositioned.save(path)
    # Event 3's row one cell longer: a column of its type holding that cell only.
    ragged = copy.deepcopy(trace)
    ragged.events.cells[ragged.events.kinds[3]].append([0])
    with pytest.raises(ValueError, match="per cell of its fields"):
        ragged.save(path)
    assert list(tmp_path.iterdir()) == []


def test_jsonl_export_is_one_record_per_line_and_does_not_load(trace, tmp_path):
    binary = tmp_path / "t.trace.bin"
    jsonl = tmp_path / "t.trace.jsonl"
    trace.save(binary)
    export_jsonl(trace, jsonl)
    records = [json.loads(line) for line in jsonl.read_text().splitlines()]
    kinds = [record["kind"] for record in records]
    assert kinds[:2] == ["header", "checkpoint"] and kinds[-1] == "footer"
    assert [r["line"] for r in records if r["kind"] == "event"] == trace.lines()
    assert kinds.count("checkpoint") == len(trace.checkpoints)
    # The container should be markedly smaller than the JSONL view.
    assert binary.stat().st_size < jsonl.stat().st_size
    with pytest.raises(TraceFormatError, match="export-only") as err:
        Trace.load(jsonl)
    assert err.value.offset == 0


def test_convert_cli_exports_jsonl(trace, tmp_path, capsys):
    source = tmp_path / "t.trace.bin"
    trace.save(source)
    assert replay_cli(["convert", str(source), "--to", "jsonl"]) == 0
    assert trace.fingerprint() in capsys.readouterr().out
    direct = tmp_path / "direct.jsonl"
    export_jsonl(trace, direct)
    assert (tmp_path / "t.trace.jsonl").read_bytes() == direct.read_bytes()
    with pytest.raises(SystemExit):  # the export is one-way
        replay_cli(["convert", str(direct), "--to", "binary"])


def test_convert_cli_refuses_to_overwrite_input(trace, tmp_path):
    source = tmp_path / "t.trace.bin"
    trace.save(source)
    assert replay_cli(
        ["convert", str(source), "--to", "jsonl", "-o", str(source)]) == 1


def test_info_cli_checks_the_footer_fingerprint(trace, tmp_path, capsys):
    path = tmp_path / "t.trace.bin"
    trace.save(path)
    assert replay_cli(["info", str(path)]) == 0
    out = capsys.readouterr().out
    assert trace.fingerprint() in out
    # What a trace costs, off the columns: events per type, container
    # bytes per event, checkpoints and their mean interval.
    size = path.stat().st_size
    assert f"events:       {len(trace.events)}\n" in out
    for kind, seen in collections.Counter(event.type for event in trace.events).items():
        assert f"  {kind:<18}{seen}\n" in out
    assert (f"container:    {size} bytes  "
            f"({size / len(trace.events):.1f} per event)\n") in out
    assert (f"checkpoints:  {len(trace.checkpoints)}  (one per "
            f"{len(trace.events) / len(trace.checkpoints):.1f} events)\n") in out
    tampered = Trace.load(path)
    set_row_cell(tampered.events, 3, -1, f"{tampered.events[3].row[-1]} TAMPERED")
    tampered.save(path)
    assert replay_cli(["info", str(path)]) == 1
    err = capsys.readouterr().err
    assert "does not match the footer's" in err and err.count("\n") == 1


def test_info_cli_prints_the_record_stream_by_kind(trace, tmp_path, capsys):
    """``info`` sums each kind of record's raw bytes, prefixes included
    and an event block's JSON apart from its packed bytes: the same for a
    compressed file and for an uncompressed copy, whose body they make up."""
    raw, framed = tmp_path / "raw.trace.bin", tmp_path / "framed.trace.bin"
    write_binary(trace, raw, compress=False)
    write_binary(trace, framed)
    sizes = collections.Counter()
    for kind, payload in file_records(raw):
        if kind == KIND_EVENTS:
            text = _BLOCK_JSON.size + _BLOCK_JSON.unpack_from(payload)[0]
            sizes["event blocks, JSON"] += _RECORD.size + text
            sizes["event blocks, packed"] += len(payload) - text
        else:
            sizes["checkpoints" if kind == KIND_CHECKPOINT else "header + footer"] += (
                _RECORD.size + len(payload))
    assert sizes["event blocks, packed"] and sizes["checkpoints"]
    expected = (f"stream:       {raw.stat().st_size - _PREAMBLE.size} raw bytes\n" + "".join(
        f"  {kind:<22}{sizes[kind]}\n" for kind in (
            "event blocks, JSON", "event blocks, packed", "checkpoints", "header + footer")))
    for path in (raw, framed):
        assert replay_cli(["info", str(path)]) == 0
        assert expected in capsys.readouterr().out


# ----------------------------------------------------------------------
# Corruption: every fault is a typed error with a byte offset
# ----------------------------------------------------------------------


def binary_bytes(trace, tmp_path, compress=False):
    path = tmp_path / "c.trace.bin"
    write_binary(trace, path, compress=compress)
    return path, path.read_bytes()


def test_truncated_file_raises_with_offset(trace, tmp_path):
    path, blob = binary_bytes(trace, tmp_path)
    # Cut mid-record: past the preamble and the first record header.
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(TraceFormatError) as err:
        Trace.load(path)
    assert err.value.offset >= _PREAMBLE.size
    assert "byte" in str(err.value)


def test_bad_magic_raises_at_offset_zero(trace, tmp_path):
    path, blob = binary_bytes(trace, tmp_path)
    path.write_bytes(b"NOTTRACE" + blob[len(MAGIC):])
    with pytest.raises(TraceFormatError) as err:
        Trace.load(path)
    assert err.value.offset == 0
    assert "magic" in str(err.value)


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 999],
                         ids=["v1", "v2", "v3", "v4", "v5", "v999"])
def test_unknown_format_version_raises(trace, tmp_path, version):
    # Versions 1 (per-event records), 2 (fields and lines stored per
    # event), 3 (every column JSON, a block cut at every checkpoint),
    # 4 (int columns as int64, checkpoint counts and node state as
    # objects) and 5 (string columns as JSON lists, every checkpoint
    # table in full) have no read path: same refusal, and nothing else.
    path, blob = binary_bytes(trace, tmp_path)
    bad = MAGIC + struct.pack("<HH", version, 0) + blob[_PREAMBLE.size:]
    path.write_bytes(bad)
    with pytest.raises(TraceFormatError) as err:
        Trace.load(path)
    assert err.value.offset == len(MAGIC)
    assert f"unsupported binary trace version {version}" in str(err.value)


def test_unknown_flag_bits_raise_at_the_flags_offset(tmp_path):
    blob = GOLDEN_BINARY_PATH.read_bytes()
    path = tmp_path / "flags.trace.bin"
    path.write_bytes(_PREAMBLE.pack(MAGIC, BINARY_VERSION, 0x80 | FLAG_ZLIB)
                     + blob[_PREAMBLE.size:])
    with pytest.raises(TraceFormatError, match="unknown flag bits 0x80") as err:
        Trace.load(path)
    assert err.value.offset == len(MAGIC) + 2


def test_length_prefix_overrun_raises_with_offset(trace, tmp_path):
    path, blob = binary_bytes(trace, tmp_path)
    # Inflate the first record's length prefix far past the file end.
    kind, _ = _RECORD.unpack_from(blob, _PREAMBLE.size)
    patched = (blob[:_PREAMBLE.size]
               + _RECORD.pack(kind, 2 ** 31)
               + blob[_PREAMBLE.size + _RECORD.size:])
    path.write_bytes(patched)
    with pytest.raises(TraceFormatError) as err:
        Trace.load(path)
    assert err.value.offset == _PREAMBLE.size
    assert "overruns" in str(err.value)


def test_corrupt_zlib_frame_raises_with_offset(trace, tmp_path):
    path, blob = binary_bytes(trace, tmp_path, compress=True)
    # Flip bytes inside the first frame's deflate stream.
    frame_data_at = _PREAMBLE.size + 8
    patched = bytearray(blob)
    for i in range(frame_data_at + 4, frame_data_at + 12):
        patched[i] ^= 0xFF
    path.write_bytes(bytes(patched))
    with pytest.raises(TraceFormatError):
        Trace.load(path)


def test_bytes_after_a_frames_deflate_stream_raise_at_the_frame(tmp_path):
    """A frame whose declared compressed length runs past the end of its
    deflate stream hides bytes nothing reads: refused, not skipped."""
    path = tmp_path / "g.trace.bin"
    write_binary(Trace.load(GOLDEN_BINARY_PATH), path, compress=True)
    blob = path.read_bytes()
    frame_at = _PREAMBLE.size
    raw_len, comp_len = _FRAME.unpack_from(blob, frame_at)
    data_at = frame_at + _FRAME.size
    path.write_bytes(blob[:frame_at] + _FRAME.pack(raw_len, comp_len + 8)
                     + blob[data_at:data_at + comp_len] + bytes(8)
                     + blob[data_at + comp_len:])
    with pytest.raises(TraceFormatError, match="after the zlib frame") as err:
        Trace.load(path)
    assert err.value.offset == frame_at and not err.value.in_frames


@pytest.mark.parametrize("declared", [64 << 20, _FRAME_RAW_SIZE],
                         ids=["declares-64MiB", "declares-one-frame"])
def test_zlib_bomb_is_refused_without_being_inflated(tmp_path, declared):
    # One frame of 64 MiB of zeros (64 KiB deflated), declared honestly
    # (over the frame limit) or as a full-size frame (a lie).
    packer = zlib.compressobj(1)
    packed = b"".join([packer.compress(bytes(1 << 20)) for _ in range(64)]
                      + [packer.flush()])
    path = tmp_path / "bomb.trace.bin"
    path.write_bytes(_PREAMBLE.pack(MAGIC, BINARY_VERSION, FLAG_ZLIB)
                     + _FRAME.pack(declared, len(packed)) + packed)
    tracemalloc.start()
    try:
        with pytest.raises(TraceFormatError) as err:
            Trace.load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.offset == _PREAMBLE.size and not err.value.in_frames
    assert peak < 4 << 20


# -- record-level mutations of the committed golden trace --------------


#: Events per block in the mutated golden: its 143 events in blocks of
#: 64, 64 and 15; checkpoint #0 before the first, the first placing
#: 39 and 49, the second 75, 92 and 127.
GOLDEN_CAP = 64


def golden_records(tmp_path):
    """The golden trace as mutable ``[kind, payload]`` records."""
    path = tmp_path / "golden.trace.bin"
    with mock.patch.object(trace_format, "_BLOCK_EVENTS", GOLDEN_CAP):
        write_binary(Trace.load(GOLDEN_BINARY_PATH), path, compress=False)
    return [list(record) for record in file_records(path)]


def write_records(records, path, compress):
    """Assemble ``records`` into a container file at ``path`` (one zlib
    frame when ``compress``)."""
    body = b"".join(_RECORD.pack(kind, len(payload)) + payload
                    for kind, payload in records)
    if compress:
        packed = zlib.compress(body)
        body = _FRAME.pack(len(body), len(packed)) + packed
    path.write_bytes(_PREAMBLE.pack(MAGIC, BINARY_VERSION, int(compress))
                     + body)


def nth_of(records, kind, n=0):
    return [i for i, record in enumerate(records) if record[0] == kind][n]


def edit_json(records, at, edit):
    """Apply ``edit`` to the decoded JSON object of record ``at`` — a
    block's with every column a list, packed again by the writer's rule
    afterwards."""
    kind, payload = records[at]
    if kind == KIND_EVENTS:
        block = decode_block(payload)
        edit(block)
        records[at][1] = encode_block(block)
    else:
        data = json.loads(payload)
        edit(data)
        records[at][1] = json.dumps(data, sort_keys=True).encode("utf-8")
    return at


def edit_stored(records, at, edit):
    """Apply ``edit(stored, packed)`` to block ``at``'s JSON object as
    stored (packed columns as byte lengths) and keep its bytes as they
    are, or as ``edit`` returns them."""
    stored, packed = stored_block(records[at][1])
    packed = edit(stored, packed) or packed
    text = json.dumps(stored, sort_keys=True).encode("utf-8")
    records[at][1] = _BLOCK_JSON.pack(len(text)) + text + packed
    return at


def edit_block_text(records, at, old, new):
    """Replace ``old`` by ``new`` in block ``at``'s JSON bytes."""
    stored, packed = stored_block(records[at][1])
    text = json.dumps(stored, sort_keys=True).encode("utf-8")
    assert old in text
    text = text.replace(old, new, 1)
    records[at][1] = _BLOCK_JSON.pack(len(text)) + text + packed
    return at


def block_edit(edit):
    """A mutation applying ``edit`` to the golden's second event block
    (one with events before it)."""
    def mutate(records):
        return edit_json(records, nth_of(records, KIND_EVENTS, 1), edit)
    mutate.__name__ = edit.__name__
    return mutate


def set_cell(column, value):
    def edit(block):
        block[column][1] = value
    edit.__name__ = f"{type(value).__name__}_in_{column}"
    return block_edit(edit)


def set_payload_cell(value):
    def edit(block):
        block["cells"][0][0][0] = value
    edit.__name__ = f"{type(value).__name__}_in_a_payload_column"
    return block_edit(edit)


@block_edit
def missing_column(block):
    del block["seq"]


@block_edit
def unknown_column(block):
    block["extra"] = []


@block_edit
def a_stored_line_column(block):
    block["line"] = [""] * len(block["t"])


@block_edit
def ragged_header_columns(block):
    block["node"].pop()


@block_edit
def ragged_payload_column(block):
    block["cells"][0][0].pop()


@block_edit
def column_is_an_object(block):
    block["node"] = dict(enumerate(block["node"]))


@block_edit
def payload_column_is_an_object(block):
    block["cells"][0][0] = dict(enumerate(block["cells"][0][0]))


@block_edit
def empty_block(block):
    for column in HEADER_COLUMNS:
        block[column] = []
    block["cells"] = [[[] for _ in own] for own in block["cells"]]


@block_edit
def a_type_with_a_row_to_spare(block):
    # Every column of one type one cell longer: equal lengths, but one
    # row more than the block's events of that type.
    for column in block["cells"][0]:
        column.append(column[0])


@block_edit
def fewer_columns_than_the_fields_have_cells(block):
    block["cells"][0].pop()


@block_edit
def more_columns_than_the_fields_have_cells(block):
    block["cells"][0].append(list(block["cells"][0][0]))


@block_edit
def cells_not_one_entry_per_type(block):
    block["cells"].pop()


def packed_type_id(new_id):
    """A mutation setting the second block's first type id to
    ``new_id(block)``; the ids stay a packed column."""
    def mutate(records):
        def edit(block):
            block["type"][0] = new_id(block)
        at = edit_json(records, nth_of(records, KIND_EVENTS, 1), edit)
        assert type(stored_block(records[at][1])[0]["type"]) is int
        return at
    mutate.__name__ = new_id.__name__
    return mutate


@packed_type_id
def type_id_out_of_range(block):
    return len(block["types"])


@packed_type_id
def type_id_negative(block):
    return -1


@packed_type_id
def type_id_of_another_type(block):
    # In range: one event more of another type than it has rows.
    return (block["type"][0] + 1) % len(block["types"])


@block_edit
def type_name_is_a_number(block):
    block["types"][0][0] = 7


@block_edit
def field_name_is_a_number(block):
    block["types"][0][1][0] = 7


@block_edit
def type_entry_is_a_bare_name(block):
    block["types"][0] = block["types"][0][0]


def field_names_change_between_blocks(records):
    """The second block renames a field of a type the first one declared."""
    declared = dict(decode_block(records[nth_of(records, KIND_EVENTS)][1])["types"])

    def edit(block):
        entry = next(e for e in block["types"] if e[0] in declared)
        assert entry[1] == declared[entry[0]]
        entry[1][0] += "_renamed"
    return edit_json(records, nth_of(records, KIND_EVENTS, 1), edit)


@block_edit
def first_is_not_the_events_so_far(block):
    block["first"] -= 1


@block_edit
def first_is_a_float(block):
    block["first"] = float(block["first"])


def bad_utf8_in_block(records):
    return edit_block_text(records, nth_of(records, KIND_EVENTS, 1),
                           b'"types": [["', b'"types": [["\xff')


def block_nested_past_the_recursion_limit(records):
    return edit_block_text(records, nth_of(records, KIND_EVENTS, 1),
                           b'"cells": [', b'"cells": [' + b"[" * 100_000)


def packed_run_short(records):
    """The last packed column's bytes end early."""
    at = nth_of(records, KIND_EVENTS, 1)
    records[at][1] = records[at][1][:-8]
    return at


def packed_length_past_the_record(records):
    def edit(stored, packed):
        stored["t"] = len(packed) + 8
    return edit_stored(records, nth_of(records, KIND_EVENTS, 1), edit)


def packed_length_not_whole_cells(records):
    def edit(stored, packed):
        stored["t"] -= 1
    return edit_stored(records, nth_of(records, KIND_EVENTS, 1), edit)


def packed_width(width):
    """A mutation storing the second block's ``t`` column at ``width``
    bytes a cell, its byte length saying so and the bytes after it kept."""
    def mutate(records):
        def edit(stored, packed):
            start, end = stored["type"], stored["type"] + stored["t"]
            stored["t"] = width * stored["events"]
            return packed[:start] + bytes(stored["t"]) + packed[end:]
        return edit_stored(records, nth_of(records, KIND_EVENTS, 1), edit)
    mutate.__name__ = f"packed_width_{width}"
    return mutate


def packed_length_is_a_bool(records):
    def edit(stored, packed):
        stored["type"] = True
    return edit_stored(records, nth_of(records, KIND_EVENTS, 1), edit)


def packed_bytes_no_column_names(records):
    def edit(stored, packed):
        return packed + bytes(8)
    return edit_stored(records, nth_of(records, KIND_EVENTS, 1), edit)


def string_column_edit(edit):
    """A mutation applying ``edit(column, codes)`` to the second block's
    first string column as stored: ``column`` its ``{strings, codes}``
    object, ``codes`` its packed bytes (returned edited, or kept)."""
    def mutate(records):
        def edit_block(stored, packed):
            at = sum(stored[name] for name in HEADER_COLUMNS if type(stored[name]) is int)
            for column in itertools.chain.from_iterable(stored["cells"]):
                if type(column) is dict:
                    codes = packed[at:at + column["codes"]]
                    edited = edit(column, codes) or codes
                    column["codes"] = len(edited)
                    return packed[:at] + edited + packed[at + len(codes):]
                at += column if type(column) is int else 0
            raise AssertionError("no string column")
        return edit_stored(records, nth_of(records, KIND_EVENTS, 1), edit_block)
    mutate.__name__ = edit.__name__
    return mutate


@string_column_edit
def string_code_past_its_table(column, codes):
    assert len(codes) == 1 and column["strings"] == ["partition"]
    return bytes([len(column["strings"])])


@string_column_edit
def string_code_negative(column, codes):
    return b"\xff" + codes[1:]


@string_column_edit
def string_table_holds_a_string_twice(column, codes):
    column["strings"].append(column["strings"][0])


@string_column_edit
def string_table_entry_is_a_number(column, codes):
    column["strings"][0] = 7


@string_column_edit
def string_table_is_a_string(column, codes):
    column["strings"] = column["strings"][0]


@string_column_edit
def string_codes_wider_than_their_table_needs(column, codes):
    return b"".join(struct.pack("<h", code) for code in codes)


@string_column_edit
def string_column_with_a_spare_key(column, codes):
    column["extra"] = 1


def json_length_overruns_the_block(records):
    at = nth_of(records, KIND_EVENTS, 1)
    payload = records[at][1]
    records[at][1] = _BLOCK_JSON.pack(len(payload)) + payload[_BLOCK_JSON.size:]
    return at


def block_shorter_than_its_json_length(records):
    at = nth_of(records, KIND_EVENTS, 1)
    records[at][1] = records[at][1][:2]
    return at


def place_edit(n):
    """A mutation of block ``n``'s list of checkpoint offsets."""
    def decorate(edit):
        def mutate(records):
            def edit_block(block):
                edit(block["checkpoints"])
            return edit_json(records, nth_of(records, KIND_EVENTS, n), edit_block)
        mutate.__name__ = edit.__name__
        return mutate
    return decorate


@place_edit(0)
def checkpoint_offsets_descend(offsets):
    assert offsets == [39, 49]
    offsets.reverse()


@place_edit(1)
def checkpoint_offset_zero(offsets):
    assert offsets == [11, 28, 63]
    offsets[0] = 0


@place_edit(1)
def checkpoint_offset_past_the_block(offsets):
    offsets[-1] = GOLDEN_CAP + 1


@place_edit(1)
def checkpoint_offset_is_a_bool(offsets):
    offsets[0] = True


def block_places_a_checkpoint_that_is_not_there(records):
    def edit(block):
        assert block["checkpoints"] == []
        block["checkpoints"] = [len(block["t"])]
    edit_json(records, nth_of(records, KIND_EVENTS, 2), edit)
    return len(records) - 1  # the footer: the file ends without it


def a_checkpoint_no_block_places(records):
    last = nth_of(records, KIND_CHECKPOINT, -1)
    records.insert(last + 1, list(records[last]))
    return last + 1


def empty_checkpoint(records):
    at = nth_of(records, KIND_CHECKPOINT)
    records[at][1] = b"{}"
    return at


def checkpoint_edit(edit):
    """A mutation applying ``edit`` to the golden's third checkpoint."""
    def mutate(records):
        return edit_json(records, nth_of(records, KIND_CHECKPOINT, 2), edit)
    mutate.__name__ = edit.__name__
    return mutate


@checkpoint_edit
def misplaced_checkpoint(checkpoint):
    # The golden's third checkpoint sits after 49 events, where the
    # first block places it; claiming 34 used to load and seed seeks
    # into [34, 49) from the wrong state.
    assert checkpoint["index"] == 49
    checkpoint["index"] = 34


@checkpoint_edit
def checkpoint_index_is_a_float(checkpoint):
    checkpoint["index"] = float(checkpoint["index"])


@checkpoint_edit
def checkpoint_processes_is_a_number(checkpoint):
    checkpoint["view"]["processes"] = 5


@checkpoint_edit
def checkpoint_time_is_a_string(checkpoint):
    checkpoint["time"] = "x"


@checkpoint_edit
def checkpoint_view_time_is_null(checkpoint):
    checkpoint["view"]["time"] = None


@checkpoint_edit
def checkpoint_counts_is_a_list(checkpoint):
    checkpoint["view"]["counts"] = []


@checkpoint_edit
def checkpoint_state_is_a_number(checkpoint):
    checkpoint["state"] = 7


@checkpoint_edit
def checkpoint_process_is_a_name(checkpoint):
    table = checkpoint["view"]["processes"]["1"]
    table["1"] = table["1"]["name"]


@checkpoint_edit
def checkpoint_process_lacks_its_priority(checkpoint):
    del checkpoint["view"]["processes"]["1"]["1"]["priority"]


@checkpoint_edit
def checkpoint_in_flight_call_is_a_string(checkpoint):
    # Node 0's calls are the second checkpoint's [4], so stored as null.
    assert checkpoint["view"]["in_flight"]["0"] is None
    checkpoint["view"]["in_flight"]["0"] = ["4"]


@checkpoint_edit
def checkpoint_null_for_a_node_the_one_before_lacks(checkpoint):
    checkpoint["view"]["halted"]["9"] = None


def checkpoint_zero_edit(edit):
    """A mutation applying ``edit`` to the golden's checkpoint #0."""
    def mutate(records):
        return edit_json(records, nth_of(records, KIND_CHECKPOINT), edit)
    mutate.__name__ = edit.__name__
    return mutate


@checkpoint_zero_edit
def null_table_in_checkpoint_zero(checkpoint):
    checkpoint["view"]["processes"]["0"] = None


@checkpoint_zero_edit
def null_epochs_in_checkpoint_zero(checkpoint):
    checkpoint["view"]["epochs"] = None


@checkpoint_edit
def checkpoint_counts_one_short(checkpoint):
    assert len(checkpoint["view"]["counts"]) == len(COUNT_KEYS)
    checkpoint["view"]["counts"].pop()


@checkpoint_edit
def checkpoint_count_is_a_bool(checkpoint):
    checkpoint["view"]["counts"][0] = True


@checkpoint_edit
def checkpoint_counts_as_an_object(checkpoint):
    checkpoint["view"]["counts"] = dict(zip(COUNT_KEYS, checkpoint["view"]["counts"]))


@checkpoint_edit
def checkpoint_node_state_one_short(checkpoint):
    checkpoint["state"]["nodes"]["0"].pop()


@checkpoint_edit
def checkpoint_node_crashed_is_an_int(checkpoint):
    cells = checkpoint["state"]["nodes"]["0"]
    assert cells[list(NODE_STATE).index("crashed")] is False
    cells[list(NODE_STATE).index("crashed")] = 0


@checkpoint_edit
def checkpoint_node_state_as_an_object(checkpoint):
    nodes = checkpoint["state"]["nodes"]
    nodes["0"] = dict(zip(NODE_STATE, nodes["0"]))


def header_is_a_list(records):
    at = nth_of(records, KIND_HEADER)
    records[at][1] = b"[1]"
    return at


def last_five_events_dropped(records):
    def edit(block):
        assert len(block["t"]) > 5
        for type_id in block["type"][-5:]:
            for column in block["cells"][type_id]:
                column.pop()
        for column in HEADER_COLUMNS:
            del block[column][-5:]
        block["events"] -= 5
    assert records[-2][0] == KIND_EVENTS  # no checkpoint after it
    edit_json(records, len(records) - 2, edit)
    return len(records) - 1  # the footer, whose count no longer holds


def every_checkpoint_dropped(records):
    # The first block places two, and the second block follows it.
    records[:] = [r for r in records if r[0] != KIND_CHECKPOINT]
    return nth_of(records, KIND_EVENTS, 1)


def checkpoint_zero_dropped(records):
    """Its successor's tables written out in full, so no ``null`` points
    back at it: only the footer finds the file without a start state."""
    first = nth_of(records, KIND_CHECKPOINT)
    zero = json.loads(records[first][1])["view"]

    def edit(checkpoint):
        view = checkpoint["view"]
        for name in ("processes", "halted", "in_flight"):
            view[name] = {node: zero[name][node] if table is None else table
                          for node, table in view[name].items()}
        view["epochs"] = view["epochs"] or zero["epochs"]
    edit_json(records, nth_of(records, KIND_CHECKPOINT, 1), edit)
    del records[first]
    return len(records) - 1


def checkpoint_zero_dropped_under_nulls(records):
    del records[nth_of(records, KIND_CHECKPOINT)]
    return nth_of(records, KIND_CHECKPOINT)


@pytest.mark.parametrize("compress", [False, True], ids=["raw", "zlib"])
@pytest.mark.parametrize("mutate", [
    missing_column, unknown_column, a_stored_line_column,
    ragged_header_columns, ragged_payload_column, column_is_an_object,
    payload_column_is_an_object, empty_block, set_cell("t", "7"),
    set_cell("t", 7.0), set_cell("seq", True), set_cell("node", "1"),
    set_cell("type", True), set_payload_cell([]), set_payload_cell({}),
    set_payload_cell(1.5), a_type_with_a_row_to_spare,
    fewer_columns_than_the_fields_have_cells,
    more_columns_than_the_fields_have_cells, cells_not_one_entry_per_type,
    type_id_out_of_range, type_id_negative, type_id_of_another_type,
    type_name_is_a_number,
    field_name_is_a_number, type_entry_is_a_bare_name,
    field_names_change_between_blocks, first_is_not_the_events_so_far,
    first_is_a_float, bad_utf8_in_block,
    block_nested_past_the_recursion_limit, packed_run_short,
    packed_length_past_the_record, packed_length_not_whole_cells,
    packed_length_is_a_bool, packed_width(3), packed_width(16),
    packed_bytes_no_column_names,
    json_length_overruns_the_block, block_shorter_than_its_json_length,
    checkpoint_offsets_descend, checkpoint_offset_zero,
    checkpoint_offset_past_the_block, checkpoint_offset_is_a_bool,
    block_places_a_checkpoint_that_is_not_there, a_checkpoint_no_block_places,
    empty_checkpoint, misplaced_checkpoint, checkpoint_index_is_a_float,
    checkpoint_processes_is_a_number, checkpoint_time_is_a_string,
    checkpoint_view_time_is_null, checkpoint_counts_is_a_list,
    checkpoint_state_is_a_number, checkpoint_process_is_a_name,
    checkpoint_process_lacks_its_priority,
    checkpoint_in_flight_call_is_a_string, checkpoint_counts_one_short,
    checkpoint_count_is_a_bool, checkpoint_counts_as_an_object,
    checkpoint_node_state_one_short, checkpoint_node_crashed_is_an_int,
    checkpoint_node_state_as_an_object, header_is_a_list,
    last_five_events_dropped, every_checkpoint_dropped, checkpoint_zero_dropped,
    checkpoint_zero_dropped_under_nulls, checkpoint_null_for_a_node_the_one_before_lacks,
    null_table_in_checkpoint_zero, null_epochs_in_checkpoint_zero,
    string_code_past_its_table, string_code_negative, string_table_holds_a_string_twice,
    string_table_entry_is_a_number, string_table_is_a_string,
    string_codes_wider_than_their_table_needs, string_column_with_a_spare_key,
], ids=lambda fn: fn.__name__)
def test_mutated_record_raises_typed_error_at_its_offset(
        tmp_path, mutate, compress):
    records = golden_records(tmp_path)
    faulty = mutate(records)
    path = tmp_path / "m.trace.bin"
    write_records(records, path, compress)
    with pytest.raises(TraceFormatError) as err:
        Trace.load(path)
    stream_offset = sum(_RECORD.size + len(payload)
                        for _, payload in records[:faulty])
    assert err.value.in_frames is compress
    assert err.value.offset == stream_offset + (
        0 if compress else _PREAMBLE.size)


def test_unmutated_records_load(tmp_path):
    # The harness above writes a loadable file when nothing is mutated.
    records = golden_records(tmp_path)
    write_records(records, tmp_path / "m.trace.bin", compress=True)
    assert Trace.load(tmp_path / "m.trace.bin").lines() == \
        Trace.load(GOLDEN_BINARY_PATH).lines()


# -- fuzz: loads, or raises TraceFormatError — nothing else ------------


@pytest.fixture(scope="module", params=[False, True], ids=["raw", "zlib"])
def golden_blob(request, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "g.trace.bin"
    write_binary(Trace.load(GOLDEN_BINARY_PATH), path,
                 compress=request.param)
    return path, path.read_bytes()


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_fuzzed_container_loads_or_raises_trace_format_error(golden_blob, data):
    path, blob = golden_blob
    path.write_bytes(corrupt(data, blob))
    try:
        Trace.load(path)
    except TraceFormatError as exc:
        assert exc.offset >= 0


# ----------------------------------------------------------------------
# Atomic saves: an interrupted write never tears an existing trace
# ----------------------------------------------------------------------


@pytest.mark.parametrize("save", [Trace.save, export_jsonl],
                         ids=["binary", "jsonl"])
def test_save_is_atomic_under_interrupted_replace(trace, tmp_path,
                                                  monkeypatch, save):
    import os

    path = tmp_path / "t.trace"
    save(trace, path)
    original = path.read_bytes()

    def torn_replace(src, dst):
        raise OSError("simulated crash between temp write and rename")

    monkeypatch.setattr(os, "replace", torn_replace)
    with pytest.raises(OSError, match="simulated crash"):
        save(trace, path)
    monkeypatch.undo()
    # The previous complete file is untouched and no scratch remains.
    assert path.read_bytes() == original
    assert list(tmp_path.glob("t.trace.tmp*")) == []


def test_save_replaces_existing_trace_in_one_step(trace, tmp_path):
    # A successful re-save lands the new bytes and cleans its scratch.
    path = tmp_path / "t.trace.bin"
    trace.save(path)
    trace.save(path)
    assert list(tmp_path.glob("*.tmp*")) == []
    loaded = Trace.load(path)
    assert loaded.fingerprint() == trace.fingerprint()


# ----------------------------------------------------------------------
# Two layouts, one trace: as recorded and as loaded
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def layouts(tmp_path_factory):
    """Per source, ``(trace, trace saved and loaded, its file)``: the
    golden as loaded, and as their writers sealed them a fresh recording
    (crash, reboot and a delay window) and one over three blocks long,
    settled block by block as it ran."""
    directory = tmp_path_factory.mktemp("layouts")
    plan = (FaultPlan().crash(at=300 * MS, node="b").reboot(at=350 * MS, node="b")
            .delay(at=380 * MS, duration=50 * MS, extra=3 * MS))
    sources = {"golden": Trace.load(GOLDEN_BINARY_PATH),
               "recording": record_run(build_echo_loop, ["a", "b"], seed=11, plan=plan,
                                       checkpoint_every=20 * MS, run_until=600 * MS),
               "blocks": echo_recording(LONG_CALLS, FaultPlan().crash(
                   at=300 * MS, node="server").reboot(at=350 * MS, node="server"))}
    pairs = {}
    for name, trace in sources.items():
        path = directory / f"{name}.trace.bin"
        trace.save(path)
        pairs[name] = (trace, Trace.load(path), path)
    return pairs


def build_echo_loop(cluster):
    image = cluster.load_program(ECHO, "b")
    cluster.rpc("b").export_vm("svc", image, {"echo": "echo"})
    cluster.spawn_vm("a", cluster.load_program(echo_loop(125), "a"), "main")


@pytest.mark.parametrize("source", ["golden", "recording", "blocks"])
def test_a_trace_reads_alike_as_recorded_and_as_loaded(layouts, source):
    """Lines, every event, every ``where`` over the values a packet, call
    or pid field holds and the canonical contract report are the same
    from either layout, and saving what was loaded writes the file it
    was loaded from."""
    held, loaded, path = layouts[source]
    assert len(held.events) > 100
    assert loaded.lines() == held.lines()
    assert [loaded.events[i] for i in range(len(held.events))] == \
        [held.events[i] for i in range(len(held.events))]
    assert loaded.events[-1] == held.events[-1]
    for name in ("packet", "call_id", "pid", "epoch"):
        values = {event.row[row_layout(event.names)[0][name]] for event in held.events
                  if name in event.names}
        assert values, name
        for value in sorted(values, key=repr)[:40]:
            assert loaded.events.where(name, value) == held.events.where(name, value)
    assert check_trace(loaded, UNIVERSAL_SET).canonical() == \
        check_trace(held, UNIVERSAL_SET).canonical()
    again = path.with_name(f"{source}.again.trace.bin")
    loaded.save(again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("source", ["golden", "recording", "blocks"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_a_trace_travels_alike_as_recorded_and_as_loaded(layouts, source, data):
    """``at``, ``step`` and ``reverse_step`` at drawn cursors hand out
    equal moments (index, time, folded view, event) from either layout."""
    held, loaded = layouts[source][:2]
    travels = TimeTravel(held), TimeTravel(loaded)
    for _ in range(3):
        t = data.draw(st.integers(-1, held.final_time + 1), label="at")
        assert travels[0].at(t) == travels[1].at(t)
        for _ in range(data.draw(st.integers(0, 6), label="steps")):
            assert travels[0].step() == travels[1].step()
        for _ in range(data.draw(st.integers(0, 6), label="reverse steps")):
            assert travels[0].reverse_step() == travels[1].reverse_step()


def build_halting_echo(cluster):
    """Two echo clients; the server node is halted from 100 to 180 ms."""
    image = cluster.load_program(ECHO, "server")
    cluster.rpc("server").export_vm("svc", image, {"echo": "echo"})
    for name in ("c0", "c1"):
        cluster.spawn_vm(name, cluster.load_program(echo_loop(40), name), "main")
    server = cluster.node("server").supervisor
    cluster.world.schedule_at(100 * MS, server.halt_all)
    cluster.world.schedule_at(180 * MS, server.resume_all)


def test_checkpoints_share_unchanged_tables_and_travel_leaves_them(tmp_path, monkeypatch):
    """Shared-table fence: a checkpoint holds its predecessor's process,
    halted and in-flight table, and epochs, where they are equal, as
    recorded and as loaded — loaded from the ``null`` the writer stores
    for each, by equality, so a recording made without sharing writes
    the same file and loads shared too.  After ``at``, ``step``,
    ``reverse_step`` and ``why_halted`` over either, every checkpoint's
    view is still what a capture without sharing reads, and saving
    writes that capture's bytes."""
    def record(path):
        plan = FaultPlan().crash(at=250 * MS, node="c1").reboot(at=300 * MS, node="c1")
        trace = record_run(build_halting_echo, ["c0", "c1", "server"], seed=5,
                           plan=plan, checkpoint_every=20 * MS)
        trace.save(path)
        return trace, Trace.load(path)

    def shared(trace):
        """Per table, how many of a checkpoint's are its predecessor's."""
        pairs = list(zip(trace.checkpoints, trace.checkpoints[1:]))
        counts = {name: sum(getattr(b.view, name)[node] is getattr(a.view, name)[node]
                            for a, b in pairs for node in getattr(b.view, name))
                  for name in ("processes", "halted", "in_flight")}
        counts["epochs"] = sum(b.view.epochs is a.view.epochs for a, b in pairs)
        return counts

    with monkeypatch.context() as patch:
        patch.setattr(trace_module, "share_unchanged", lambda view, checkpoints: view)
        unshared, unshared_loaded = record(tmp_path / "unshared.trace.bin")
    recorded, loaded = record(tmp_path / "shared.trace.bin")
    assert set(shared(unshared).values()) == {0}
    assert shared(unshared_loaded) == shared(recorded) == shared(loaded)
    expected = [checkpoint.view.to_dict() for checkpoint in unshared.checkpoints]
    blob = (tmp_path / "unshared.trace.bin").read_bytes()
    assert (tmp_path / "shared.trace.bin").read_bytes() == blob
    for trace in (recorded, loaded):
        assert all(shared(trace).values())
        assert any(checkpoint.view.halted["2"] for checkpoint in trace.checkpoints)
        travel = TimeTravel(trace)
        halts = 0
        for checkpoint in trace.checkpoints:
            travel.seek(checkpoint.index)
            for _ in range(3):
                travel.step()
            for _ in range(6):
                travel.reverse_step()
            travel.at(checkpoint.time + 7 * MS)
            halts += travel.why_halted()["halted"]
        assert halts
        assert [checkpoint.view.to_dict() for checkpoint in trace.checkpoints] == expected
        trace.save(tmp_path / "again.trace.bin")
        assert (tmp_path / "again.trace.bin").read_bytes() == blob


def delta_view(variant: int) -> StateView:
    """A two-node view whose every table (and epochs) is ``variant``'s own."""
    return StateView(
        time=variant,
        processes={node: {"1": {"name": f"p{variant}", "priority": variant}} for node in "01"},
        halted={"0": [variant], "1": [variant + 1]},
        in_flight={"0": [variant + 10], "1": [variant + 20]},
        epochs={"0": variant, "1": 0})


def test_checkpoint_tables_equal_to_the_ones_before_are_stored_as_null(tmp_path):
    """A per-node table, or the epochs, equal (``==``, so fresh copies
    too) to the previous checkpoint's is stored as ``null`` and loads as
    that checkpoint's object; one equal only to an earlier checkpoint's
    (A -> B -> A) is stored whole.  Either way the loaded views equal
    the saved ones and saving them again writes the same bytes, as it
    does for a trace of one checkpoint (no ``null`` at all)."""
    views = [delta_view(1), delta_view(2), delta_view(1), copy.deepcopy(delta_view(1))]
    stored = {}
    for kept in (views, views[:1]):
        checkpoints = [Checkpoint(index=0, time=0, state={}, view=view) for view in kept]
        path, again = tmp_path / f"{len(kept)}.trace.bin", tmp_path / "again.trace.bin"
        write_binary(Trace({"version": TRACE_VERSION}, [], checkpoints, {"events": 0}),
                     path, compress=False)
        stored[len(kept)] = [json.loads(payload)["view"] for kind, payload in file_records(path)
                             if kind == KIND_CHECKPOINT]
        loaded = Trace.load(path)
        assert [c.view for c in loaded.checkpoints] == kept
        write_binary(loaded, again, compress=False)
        assert again.read_bytes() == path.read_bytes()
    tables = ("processes", "halted", "in_flight")
    nulls = [[None in record[name].values() for name in tables] + [record["epochs"] is None]
             for record in stored[4] + stored[1]]
    assert nulls == [[False] * 4] * 3 + [[True] * 4] + [[False] * 4]
    assert stored[4][3] == {**stored[4][3], **{name: {"0": None, "1": None} for name in tables}}
    views = [checkpoint.view for checkpoint in Trace.load(tmp_path / "4.trace.bin").checkpoints]
    assert views[3].epochs is views[2].epochs is not views[0].epochs
    for name in tables:
        assert getattr(views[3], name)["0"] is getattr(views[2], name)["0"]
        assert getattr(views[2], name)["0"] is not getattr(views[0], name)["0"]


# ----------------------------------------------------------------------
# Resident size, as a count: bytes per event, not a timing
# ----------------------------------------------------------------------

def echo_loop(calls: int) -> str:
    """A client summing ``calls`` echo calls (a failed one counts -100)."""
    return f"""
proc main()
  var total: int := 0
  for i := 1 to {calls} do
    var r: int := remote svc.echo(i)
    if failed(r) then
      total := total - 100
    else
      total := total + r
    end
  end
  print total
end
"""


#: Echo calls per client of a recording over three blocks long.
LONG_CALLS = 600


def echo_recording(calls: int = 125, plan=None):
    """Three clients x ``calls`` echo calls, a checkpoint every 100 ms:
    ~8 events a call (~3 000 for 125), deterministic for one interpreter."""
    def build(cluster):
        image = cluster.load_program(ECHO, "server")
        cluster.rpc("server").export_vm("svc", image, {"echo": "echo"})
        for name in ("c0", "c1", "c2"):
            cluster.spawn_vm(name, cluster.load_program(echo_loop(calls), name), "main")
    return record_run(build, ["c0", "c1", "c2", "server"], seed=5, plan=plan,
                      checkpoint_every=100 * MS)


def traced(call):
    """``(result, net bytes still held, peak bytes)`` of ``call()``."""
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = call()
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - before, peak - before


def test_a_loaded_trace_holds_a_row_per_event_not_a_dict(tmp_path):
    """The fence that keeps a "convenience" dict (or a stored line, or a
    row tuple) per event from coming back: a loaded trace, checkpoints
    included, is under 90 bytes an event (a payload dict plus its line
    was ~940, a row tuple per event ~280, int64 columns and checkpoints
    keyed per record ~118; narrow columns and positional checkpoint
    records measure ~75), and
    loading it peaks at no more than 402 bytes an event (what loading
    rows peaked at; the columns and a streamed body measure ~239)."""
    path = tmp_path / "echo.trace.bin"
    recorded = echo_recording()
    recorded.save(path)
    events = len(recorded.events)
    assert 2500 < events < 4500 and len(recorded.checkpoints) > 10
    del recorded
    loaded, held, peak = traced(lambda: Trace.load(path))
    assert len(loaded.events) == events
    assert held / events <= 90
    assert peak / events <= 402


def test_finish_returns_a_trace_under_400_bytes_an_event():
    # Traced around the whole recording: what is still held afterwards is
    # the trace (the cluster it came from is garbage by then).  Its
    # columns and checkpoints measure ~77 bytes an event (~106 with
    # int64 columns).
    trace, held, _ = traced(echo_recording)
    assert held / len(trace.events) <= 92


# ----------------------------------------------------------------------
# Bounded staging: a recording settles its columns a block at a time
# ----------------------------------------------------------------------


def test_a_recording_stages_at_most_one_block():
    """A recording over three blocks long stages no more than one block
    of rows at any event (its columns are settled every
    ``_BLOCK_EVENTS`` events, not once at ``finish()``), and peaks at
    most 91 bytes an event above the trace it returns (staging the
    whole run measured ~255; a block ~171, and ~76 once exited processes
    leave their node's table and packet ids die with their packets)."""
    most = 0
    on_event = EventStream._on_event

    def counted(self, event):
        nonlocal most
        on_event(self, event)
        most = max(most, sum(map(len, self.events.staged)))

    with mock.patch.object(EventStream, "_on_event", counted):
        trace, held, peak = traced(lambda: echo_recording(LONG_CALLS))
    events = len(trace.events)
    assert events > 3 * trace_format._BLOCK_EVENTS
    assert 0 < most <= trace_format._BLOCK_EVENTS
    assert (peak - held) / events <= 91


#: Event types whose rows are their cells as emitted.
_SCALAR_TYPES = [ev.Observation, ev.RpcStaleRejected, ev.NodeRebooted]


@st.composite
def _emissions(draw):
    """``(type, time, node, cells)`` bus emissions of three scalar-only
    types, each field with one drawn kind of cell.  An ``Observation``'s
    ``value`` is an int before a drawn event, so a column can be all
    ints in its first blocks and take a ``None`` or a str later."""
    kinds = {(event_type, name): draw(_COLUMN_KINDS)
             for event_type in _SCALAR_TYPES for name in event_type.FIELDS[3:]}
    switch = draw(st.integers(0, 30))
    emitted = []
    for at in range(draw(st.integers(0, 40))):
        event_type = draw(st.sampled_from(_SCALAR_TYPES))
        cells = [draw(kinds[event_type, name]) for name in event_type.FIELDS[3:]]
        if event_type is ev.Observation and at < switch:
            cells[3] = draw(st.integers(-9, 9))
        emitted.append((event_type, draw(_INT), draw(st.one_of(st.none(), st.integers(0, 9))),
                        cells))
    return emitted


def streamed(emissions, block: int):
    """The columns a stream over a bare bus holds after ``emissions``,
    settled every ``block`` events and once at the end."""
    bus = Bus()
    stream = EventStream(bus)
    with mock.patch.object(trace_module, "_BLOCK_EVENTS", block):
        for event_type, time, node, cells in emissions:
            bus.emit(event_type, time, node, *cells)
    stream.detach()
    stream.events.settle()
    return stream.events


def exactly(column) -> tuple:
    """A column's type (an array's typecode too) and its cells with
    theirs (``True`` is not ``1``)."""
    return (type(column), getattr(column, "typecode", None),
            [(type(cell), cell) for cell in column])


def file_bytes(events, path) -> bytes:
    """The container a trace of ``events`` (and a checkpoint 0) saves to."""
    base = Checkpoint(index=0, time=0, state={}, view=empty_view([0]))
    write_binary(Trace({"version": TRACE_VERSION}, events, [base], {"events": len(events)}),
                 path, compress=False)
    return path.read_bytes()


def assert_settled_alike(blocks, once, tmp_path) -> None:
    """The same cells in the same column types, and the same file."""
    for name in ("names", "schema", "kinds", "slots", "times", "nodes", "seqs", "sizes"):
        assert exactly(getattr(blocks, name)) == exactly(getattr(once, name)), name
    for mine, theirs in zip(blocks.cells, once.cells, strict=True):
        assert list(map(exactly, mine)) == list(map(exactly, theirs))
    assert not any(map(len, blocks.staged)) and not blocks.staged_times
    assert file_bytes(blocks, tmp_path / "blocks.bin") == file_bytes(once, tmp_path / "once.bin")


@given(emissions=_emissions(), block=st.integers(1, 6))
@example(emissions=[(ev.Observation, t, 0, ["k", "op", "key", v, t])
                    for t, v in enumerate([1, 2, 3, None, "x", 4])], block=3)
@example(emissions=[(ev.Observation, t, 0, ["k", "op", "key", t, t]) for t in range(200)],
         block=100)
@settings(max_examples=150, deadline=None)
def test_settling_block_by_block_equals_settling_once(tmp_path_factory, emissions, block):
    """A stream settled every ``block`` events holds what one settled at
    the end holds: equal cells of equal types in columns of equal types
    (an array only when every cell is an int64 ``int``, of the narrowest
    typecode holding them all, however many blocks widened it: the first
    example's ``value`` column is packed in its first block and a list
    once its second brings a ``None`` and a str; the second's ``slots``
    are bytes after its first block and widen to two bytes an event at
    its second, as settled once), and it saves to the same bytes."""
    assert_settled_alike(streamed(emissions, block), streamed(emissions, 1 << 30),
                         tmp_path_factory.mktemp("settle"))


@given(length=st.one_of(st.sampled_from([0, 1, 4096, 4097]), st.integers(2 * 4096, 4 * 4096)),
       seed=st.integers(0, 1 << 32), base=st.one_of(st.none(), st.integers(-5, 1 << 40)))
@settings(max_examples=30, deadline=None)
def test_max_times_is_the_running_maximum(length, seed, base):
    """:meth:`Trace.max_times`, packed a block at a time, is the plain
    running maximum of the event times from the base view's clock (0
    without checkpoints), one entry per cursor ``0 .. n``."""
    rng = random.Random(seed)
    times = [rng.randrange(-10, 1 << 40) for _ in range(length)]
    events = [TraceEvent.of(index, "Tick", time, None, index, {})
              for index, time in enumerate(times)]
    checkpoints = [] if base is None else [
        Checkpoint(index=0, time=0, state={}, view=StateView(time=base))]
    highs = Trace({}, events, checkpoints, {}).max_times()
    assert type(highs) is array
    assert list(highs) == list(itertools.accumulate(times, max, initial=base or 0))
