"""The trace container: round-trips, the JSONL export, and corruption.

Every malformed-input path must raise a typed
:class:`repro.replay.TraceFormatError` carrying the byte offset of the
fault — a debugger's traces are its evidence, so a corrupt file has to
say *where* it broke, not die in ``struct.unpack``.
"""

import json
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MS, record_run
from repro.replay import Trace, TraceFormatError
from repro.replay.cli import main as replay_cli
from repro.replay.format import (
    KIND_CHECKPOINT,
    KIND_EVENT,
    KIND_HEADER,
    MAGIC,
    _EVENT,
    _FRAME,
    _PREAMBLE,
    _RECORD,
    _iter_records,
    export_jsonl,
    write_binary,
)
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
    assert trace.fingerprint() in capsys.readouterr().out
    tampered = Trace.load(path)
    tampered.events[3].line += " TAMPERED"
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


def test_unknown_format_version_raises(trace, tmp_path):
    path, blob = binary_bytes(trace, tmp_path)
    bad = MAGIC + struct.pack("<HH", 999, 0) + blob[_PREAMBLE.size:]
    path.write_bytes(bad)
    with pytest.raises(TraceFormatError) as err:
        Trace.load(path)
    assert err.value.offset == len(MAGIC)
    assert "version 999" in str(err.value)


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


# -- record-level mutations of the committed golden trace --------------


def golden_records(tmp_path):
    """The golden trace as mutable ``[kind, payload]`` records."""
    path = tmp_path / "golden.trace.bin"
    write_binary(Trace.load(GOLDEN_BINARY_PATH), path, compress=False)
    body = path.read_bytes()[_PREAMBLE.size:]
    return [[kind, payload] for kind, payload, _ in
            _iter_records(body, path, in_frames=False)]


def write_records(records, path, compress):
    """Assemble ``records`` into a container file at ``path`` (one zlib
    frame when ``compress``)."""
    body = b"".join(_RECORD.pack(kind, len(payload)) + payload
                    for kind, payload in records)
    if compress:
        packed = zlib.compress(body)
        body = _FRAME.pack(len(body), len(packed)) + packed
    path.write_bytes(_PREAMBLE.pack(MAGIC, 1, int(compress)) + body)


def first_of(records, kind):
    return next(i for i, record in enumerate(records) if record[0] == kind)


def repack_event(payload, fields=None, line=None):
    """Re-encode an event payload with replaced fields/line bytes."""
    head = _EVENT.unpack_from(payload, 0)
    type_len, fields_len, line_len = head[4:]
    at = _EVENT.size
    type_bytes = payload[at:at + type_len]
    old_fields = payload[at + type_len:at + type_len + fields_len]
    old_line = payload[at + type_len + fields_len:]
    fields = old_fields if fields is None else fields
    line = old_line if line is None else line
    return (_EVENT.pack(*head[:4], type_len, len(fields), len(line))
            + type_bytes + fields + line)


def empty_checkpoint(records):
    at = first_of(records, KIND_CHECKPOINT)
    records[at][1] = b"{}"
    return at


def non_json_event_fields(records):
    at = first_of(records, KIND_EVENT)
    records[at][1] = repack_event(records[at][1], fields=b"{nope")
    return at


def bad_utf8_in_event_line(records):
    at = first_of(records, KIND_EVENT)
    records[at][1] = repack_event(records[at][1], line=b"0001 \xff")
    return at


def header_is_a_list(records):
    at = first_of(records, KIND_HEADER)
    records[at][1] = b"[1]"
    return at


def header_nested_past_the_recursion_limit(records):
    at = first_of(records, KIND_HEADER)
    records[at][1] = b"[" * 100_000
    return at


def last_five_events_dropped(records):
    events = [i for i, record in enumerate(records) if record[0] == KIND_EVENT]
    for i in reversed(events[-5:]):
        del records[i]
    return len(records) - 1  # the footer, whose count no longer holds


def every_checkpoint_dropped(records):
    records[:] = [r for r in records if r[0] != KIND_CHECKPOINT]
    return len(records) - 1


@pytest.mark.parametrize("compress", [False, True], ids=["raw", "zlib"])
@pytest.mark.parametrize("mutate", [
    empty_checkpoint, non_json_event_fields, bad_utf8_in_event_line,
    header_is_a_list, header_nested_past_the_recursion_limit,
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


# -- fuzz: loads, or raises TraceFormatError — nothing else ------------


@pytest.fixture(scope="module", params=[False, True], ids=["raw", "zlib"])
def golden_blob(request, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "g.trace.bin"
    write_binary(Trace.load(GOLDEN_BINARY_PATH), path,
                 compress=request.param)
    return path, path.read_bytes()


def _position(data, blob):
    return data.draw(st.integers(0, len(blob) - 1))


def _flip(data, blob):
    at = _position(data, blob)
    return blob[:at] + bytes([blob[at] ^ data.draw(st.integers(1, 255))]) \
        + blob[at + 1:]


def _truncate(data, blob):
    return blob[:_position(data, blob)]


def _splice(data, blob):
    src, dst = _position(data, blob), _position(data, blob)
    chunk = blob[src:src + data.draw(st.integers(1, 64))]
    if data.draw(st.booleans()):
        return blob[:dst] + chunk + blob[dst:]  # insert
    return blob[:dst] + chunk + blob[dst + len(chunk):]  # overwrite


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_fuzzed_container_loads_or_raises_trace_format_error(golden_blob, data):
    path, blob = golden_blob
    for _ in range(data.draw(st.integers(1, 3))):
        blob = data.draw(st.sampled_from([_flip, _truncate, _splice]))(
            data, blob) or b"\0"
    path.write_bytes(blob)
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
