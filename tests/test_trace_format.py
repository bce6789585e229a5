"""The trace container: round-trips, the JSONL export, and corruption.

Every malformed-input path must raise a typed
:class:`repro.replay.TraceFormatError` carrying the byte offset of the
fault — a debugger's traces are its evidence, so a corrupt file has to
say *where* it broke, not die in ``struct.unpack``.
"""

import collections
import copy
import gc
import json
import struct
import tracemalloc
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MS, record_run
from repro.obs.recorder import PARTS
from repro.replay import TRACE_VERSION, Trace, TraceFormatError
from repro.replay import format as trace_format
from repro.replay.checkpoint import Checkpoint, empty_view
from repro.replay.cli import main as replay_cli
from repro.replay.format import (
    BINARY_VERSION,
    FLAG_ZLIB,
    KIND_CHECKPOINT,
    KIND_EVENTS,
    KIND_HEADER,
    MAGIC,
    _FRAME,
    _FRAME_RAW_SIZE,
    _PREAMBLE,
    _RECORD,
    _faults,
    _iter_records,
    export_jsonl,
    write_binary,
)
from repro.replay.trace import TraceEvent
from tests.fuzz import corrupt
from tests.golden_scenario import GOLDEN_BINARY_PATH

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


def test_long_event_runs_split_into_capped_blocks(trace, tmp_path, monkeypatch):
    monkeypatch.setattr(trace_format, "_BLOCK_EVENTS", 4)
    path = tmp_path / "t.trace.bin"
    write_binary(trace, path, compress=False)
    sizes = [len(json.loads(payload)["t"]) for kind, payload, _ in
             _iter_records(path.read_bytes()[_PREAMBLE.size:], _faults(path))
             if kind == KIND_EVENTS]
    assert max(sizes) == 4 and sum(sizes) == len(trace.events)
    assert len(sizes) > len(trace.checkpoints)
    assert Trace.load(path).events == trace.events


#: Text that has broken line- or byte-oriented decoders before: line
#: breaks, NUL, quotes, non-ASCII, non-BMP, the Unicode line separator;
#: ``%`` because lines are rendered through a format string.
_NASTY = st.text(alphabet=st.sampled_from('a %\n\r\0"\\\u00e9\u2028\U0001f600'))
_TEXT = st.one_of(st.text(), _NASTY)
_CELL = st.one_of(st.none(), st.booleans(), st.integers(), _TEXT)
_TYPES = ["PacketSent", "ProcessCreated", "\u00e9v\u00e9nement"]


def _partial(field):
    """A flattened object as a hand-built dict: any subset of its parts."""
    return st.one_of(st.none(), st.dictionaries(
        st.sampled_from(PARTS[field]), _CELL))


@st.composite
def _hand_built_events(draw):
    """Events of three types, each type with one drawn field list (a
    type's field names are fixed for a whole trace)."""
    fields = {kind: draw(st.lists(
        st.one_of(_TEXT, st.sampled_from(["packet", "process", "error"])),
        unique=True, max_size=4)) for kind in _TYPES}
    events = []
    for index in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(_TYPES))
        events.append(TraceEvent.of(
            index, kind, draw(st.integers()),
            draw(st.one_of(st.none(), st.integers(0, 9))), draw(st.integers()),
            {name: draw(_partial(name) if name in PARTS else _CELL)
             for name in fields[kind]}))
    return events


@given(events=_hand_built_events(), data=st.data(), compress=st.booleans())
@settings(max_examples=150, deadline=None)
def test_hand_built_events_round_trip_equal(tmp_path_factory, events, data,
                                            compress):
    """Save -> load is the identity on every cell of every event (its
    exact type included: ``True`` does not come back as ``1``), whatever
    the names and the strings contain and wherever the checkpoints cut
    the stream into blocks — so the derived fields and lines are equal
    too.  A part a hand-built packet dict lacks is ``None``."""
    cuts = data.draw(st.sets(st.integers(0, len(events)), max_size=4))
    checkpoints = [Checkpoint(index=i, time=0, state={}, view=empty_view([0]))
                   for i in sorted(cuts | {0})]
    built = Trace({"version": TRACE_VERSION}, events, checkpoints,
                  {"events": len(events)})
    path = tmp_path_factory.mktemp("rt") / "t.trace.bin"
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
        unstorable.events.rows[3] = (bad, *unstorable.events.rows[3][1:])
        with pytest.raises(ValueError, match="not one int, str, bool or None"):
            unstorable.save(path)
    ragged = copy.deepcopy(trace)
    ragged.events.rows[3] += (0,)
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
    for kind, seen in collections.Counter(trace.events.types).items():
        assert f"  {kind:<18}{seen}\n" in out
    assert (f"container:    {size} bytes  "
            f"({size / len(trace.events):.1f} per event)\n") in out
    assert (f"checkpoints:  {len(trace.checkpoints)}  (one per "
            f"{len(trace.events) / len(trace.checkpoints):.1f} events)\n") in out
    tampered = Trace.load(path)
    *cells, last = tampered.events.rows[3]
    tampered.events.rows[3] = (*cells, f"{last} TAMPERED")
    tampered.save(path)
    assert replay_cli(["info", str(path)]) == 1
    err = capsys.readouterr().err
    assert "does not match the footer's" in err and err.count("\n") == 1


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


@pytest.mark.parametrize("version", [1, 2, 999], ids=["v1", "v2", "v999"])
def test_unknown_format_version_raises(trace, tmp_path, version):
    # Versions 1 (per-event records) and 2 (fields and lines stored per
    # event) have no read path: same refusal, and nothing else.
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


def golden_records(tmp_path):
    """The golden trace as mutable ``[kind, payload]`` records."""
    path = tmp_path / "golden.trace.bin"
    write_binary(Trace.load(GOLDEN_BINARY_PATH), path, compress=False)
    body = path.read_bytes()[_PREAMBLE.size:]
    return [[kind, payload] for kind, payload, _ in
            _iter_records(body, _faults(path))]


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
    """Apply ``edit`` to the decoded JSON object of record ``at``."""
    data = json.loads(records[at][1])
    edit(data)
    records[at][1] = json.dumps(data, sort_keys=True).encode("utf-8")
    return at


def block_edit(edit):
    """A mutation applying ``edit`` to the golden's second event block
    (one with events before it)."""
    def mutate(records):
        return edit_json(records, nth_of(records, KIND_EVENTS, 1), edit)
    mutate.__name__ = edit.__name__
    return mutate


#: A block's header columns: one cell per event, in event order.
HEADER_COLUMNS = ("type", "t", "node", "seq")


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
def fewer_columns_than_the_fields_have_cells(block):
    block["cells"][0].pop()


@block_edit
def more_columns_than_the_fields_have_cells(block):
    block["cells"][0].append(list(block["cells"][0][0]))


@block_edit
def cells_not_one_entry_per_type(block):
    block["cells"].pop()


@block_edit
def type_id_out_of_range(block):
    block["type"][0] = len(block["types"])


@block_edit
def type_id_negative(block):
    block["type"][0] = -1


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
    declared = dict(json.loads(records[nth_of(records, KIND_EVENTS)][1])["types"])

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
    at = nth_of(records, KIND_EVENTS, 1)
    assert b'"types": [["' in records[at][1]
    records[at][1] = records[at][1].replace(b'"types": [["', b'"types": [["\xff', 1)
    return at


def block_nested_past_the_recursion_limit(records):
    at = nth_of(records, KIND_EVENTS, 1)
    assert b'"cells": [' in records[at][1]
    records[at][1] = records[at][1].replace(
        b'"cells": [', b'"cells": [' + b"[" * 100_000, 1)
    return at


def empty_checkpoint(records):
    at = nth_of(records, KIND_CHECKPOINT)
    records[at][1] = b"{}"
    return at


def misplaced_checkpoint(records):
    # The golden's third checkpoint sits after 49 events; claiming 34
    # used to load and seed seeks into [34, 49) from the wrong state.
    def edit(checkpoint):
        assert checkpoint["index"] == 49
        checkpoint["index"] = 34
    return edit_json(records, nth_of(records, KIND_CHECKPOINT, 2), edit)


def checkpoint_index_is_a_float(records):
    def edit(checkpoint):
        checkpoint["index"] = float(checkpoint["index"])
    return edit_json(records, nth_of(records, KIND_CHECKPOINT, 2), edit)


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
    assert records[-2][0] == KIND_EVENTS  # no checkpoint after it
    edit_json(records, len(records) - 2, edit)
    return len(records) - 1  # the footer, whose count no longer holds


def every_checkpoint_dropped(records):
    records[:] = [r for r in records if r[0] != KIND_CHECKPOINT]
    return len(records) - 1


@pytest.mark.parametrize("compress", [False, True], ids=["raw", "zlib"])
@pytest.mark.parametrize("mutate", [
    missing_column, unknown_column, a_stored_line_column,
    ragged_header_columns, ragged_payload_column, column_is_an_object,
    payload_column_is_an_object, empty_block, set_cell("t", "7"),
    set_cell("t", 7.0), set_cell("seq", True), set_cell("node", "1"),
    set_cell("type", True), set_payload_cell([]), set_payload_cell({}),
    set_payload_cell(1.5), fewer_columns_than_the_fields_have_cells,
    more_columns_than_the_fields_have_cells, cells_not_one_entry_per_type,
    type_id_out_of_range, type_id_negative, type_name_is_a_number,
    field_name_is_a_number, type_entry_is_a_bare_name,
    field_names_change_between_blocks, first_is_not_the_events_so_far,
    first_is_a_float, bad_utf8_in_block,
    block_nested_past_the_recursion_limit, empty_checkpoint,
    misplaced_checkpoint, checkpoint_index_is_a_float, header_is_a_list,
    last_five_events_dropped, every_checkpoint_dropped,
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
# Resident size, as a count: bytes per event, not a timing
# ----------------------------------------------------------------------

LOOP = """
proc main()
  var total: int := 0
  for i := 1 to 125 do
    total := total + remote svc.echo(i)
  end
  print total
end
"""


def echo_recording():
    """Three clients x 125 echo calls, a checkpoint every 100 ms: ~3 000
    events, deterministic for one interpreter."""
    def build(cluster):
        image = cluster.load_program(ECHO, "server")
        cluster.rpc("server").export_vm("svc", image, {"echo": "echo"})
        for name in ("c0", "c1", "c2"):
            cluster.spawn_vm(name, cluster.load_program(LOOP, name), "main")
    return record_run(build, ["c0", "c1", "c2", "server"], seed=5,
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
    """The fence that keeps a "convenience" dict (or a stored line) per
    event from coming back: a loaded trace, checkpoints included, is
    under 400 bytes an event (a payload dict plus its line was ~940),
    and loading it peaks at no more than 1.5x what it leaves behind."""
    path = tmp_path / "echo.trace.bin"
    recorded = echo_recording()
    recorded.save(path)
    events = len(recorded.events)
    assert 2500 < events < 4500 and len(recorded.checkpoints) > 10
    del recorded
    loaded, held, peak = traced(lambda: Trace.load(path))
    assert len(loaded.events) == events
    assert held / events <= 400
    assert peak <= 1.5 * held


def test_finish_returns_a_trace_under_400_bytes_an_event():
    # Traced around the whole recording: what is still held afterwards is
    # the trace (the cluster it came from is garbage by then).
    trace, held, _ = traced(echo_recording)
    assert held / len(trace.events) <= 400
