"""Debugger-as-a-service: wire protocol, daemon sessions, remote REPL."""

import io
import json
import os
import socket
import subprocess
import sys
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import Corpus, build_grid, get_plan, run_campaign
from repro.cluster import Cluster
from repro.debugger.api import (
    Breakpoint,
    DebuggerSession,
    Frame,
    ProcessInfo,
    SessionStatus,
    TraceSummary,
)
from repro.debugger.errors import (
    ERROR_CODES,
    BadSessionError,
    DebuggerError,
    ServiceError,
    UnsupportedOperationError,
    error_from_wire,
)
from repro.debugger.pilgrim import Pilgrim
from repro.debugger.repl import COMMANDS, PilgrimRepl
from repro.faults import FaultPlan
from repro.replay import (
    BranchInfo,
    Moment,
    Perturbation,
    StateView,
    TraceSession,
    record_run,
)
from repro.service import ServiceClient, serve, wire_decode, wire_encode
from repro.service.daemon import COUNTER_PROGRAM, PilgrimService
from repro.service.dispatch import wire_methods
from repro.service import protocol
from repro.service.protocol import recv_message, send_message
from repro.sim.units import MS
from tests.fuzz import corrupt
from tests.golden_scenario import GOLDEN_BINARY_PATH

# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------


@pytest.fixture()
def daemon(tmp_path):
    """An in-process daemon on a private socket; yields the socket path."""
    path = str(tmp_path / "svc.sock")
    ready = threading.Event()
    thread = threading.Thread(target=serve, args=(path, ready), daemon=True)
    thread.start()
    assert ready.wait(5)
    yield path
    try:
        ServiceClient(path, connect_retries=1).shutdown()
    except DebuggerError:
        pass
    thread.join(5)


def counter_world(seed=3):
    """The demo counter world, built locally (for parity checks)."""
    cluster = Cluster(names=["app", "debugger"], seed=seed)
    image = cluster.load_program(COUNTER_PROGRAM, "app")
    cluster.spawn_vm("app", image, "main")
    return Pilgrim(cluster, home="debugger")


def record_echo_trace(tmp_path, seed=5):
    """Record a short echo run (real RPC traffic) into a trace file."""
    from repro.campaign.scenarios import get_scenario

    scenario = get_scenario("echo_soak")
    cluster = Cluster(names=[*scenario.names, "debugger"], seed=seed)
    scenario.build(cluster)
    dbg = Pilgrim(cluster, home="debugger")
    dbg.connect("client", "server")
    dbg.start_recording()
    dbg.run_for(500 * MS)
    trace = dbg.stop_recording()
    path = tmp_path / "echo.trace.bin"
    trace.save(path)
    return path


# ----------------------------------------------------------------------
# Wire encoding
# ----------------------------------------------------------------------


def test_wire_roundtrips_typed_records():
    frame = Frame(module="app", proc="main", line=4, pc=2,
                  locals={"i": 7}, node=0, pid=3)
    info = ProcessInfo(pid=3, name="main", state="halted",
                       trapped_at=("app", "main", 2))
    status = SessionStatus(mode="sim", session=1, connected=[0],
                           extra={"reachability": {0: "up"}})
    bp = Breakpoint(node=0, module="app", func="main", pc=2, line=4)
    payload = wire_decode(wire_encode(
        {"frames": [frame], "info": info, "status": status, "bp": bp}
    ))
    assert payload["frames"][0] == frame
    assert isinstance(payload["frames"][0], Frame)
    assert payload["info"].pid == 3 and payload["info"].state == "halted"
    assert list(payload["info"].trapped_at) == ["app", "main", 2]
    assert isinstance(payload["status"], SessionStatus)
    assert payload["status"]["reachability"] == {0: "up"}
    assert payload["bp"].key() == bp.key()


def test_wire_preserves_int_keyed_mappings():
    value = {0: {"name": "app"}, 1: {"name": "server"}}
    encoded = wire_encode(value)
    assert "__kv__" in encoded  # plain JSON would stringify the keys
    assert wire_decode(encoded) == value


def test_wire_unknown_record_degrades_to_dict():
    decoded = wire_decode({"__rec__": "FutureThing", "x": 1})
    assert decoded == {"x": 1}


def test_wire_unencodable_object_degrades_to_repr():
    encoded = wire_encode({"handle": object()})
    assert isinstance(encoded["handle"], str)


def nested_list(depth):
    """A payload nested ``depth`` lists deep."""
    body = []
    for _ in range(depth):
        body = [body]
    return body


@pytest.mark.parametrize("body", [
    {"__rec__": "Moment"},
    {"__kv__": 5},
    {"__kv__": [[1]]},
    {"__kv__": [[[1], 2]]},
    {"__rec__": "ProcessInfo", "pid": 1},
    {"__rec__": "StateView", "time": 1},
    {"__rec__": "TraceEvent", "i": 0, "type": "PacketSent"},
    {"__rec__": ["Frame"]},
    pytest.param(nested_list(5000), id="nested-past-the-recursion-limit"),
])
def test_malformed_wire_body_raises_service_error(body):
    with pytest.raises(ServiceError, match="malformed payload"):
        wire_decode(body)


class _CannedClient(ServiceClient):
    """A client whose daemon is one canned reply frame (no socket)."""

    def __init__(self, reply: bytes):
        self._reply = reply
        super().__init__("canned")

    def _dial(self, retries, delay):
        self._file = SimpleNamespace(write=len, flush=lambda: None,
                                     readline=io.BytesIO(self._reply).readline)


@pytest.mark.parametrize("reply", [
    b"not json\n", b"[1, 2]\n", b'{"ok": false, "error": "boom"}\n',
    b'{"ok": false, "error": {"code": ["x"]}}\n',
    b'{"ok": true, "result": {"__kv__": 5}}\n',
    pytest.param(b"[" * 100000 + b"\n", id="too-deeply-nested"),
])
def test_malformed_reply_reaches_the_caller_as_service_error(reply):
    with pytest.raises(ServiceError):
        _CannedClient(reply).request("status", session="t1")


def test_too_deeply_nested_frame_is_refused_and_the_connection_serves_on(daemon):
    """A frame nested past the JSON decoder's recursion limit gets one
    ``service_error`` reply, not a dropped connection: the same
    connection then answers ``ping``."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
        conn.connect(daemon)
        stream = conn.makefile("rwb")
        stream.write(b"[" * 100000 + b"\n")
        stream.flush()
        refusal = recv_message(stream)
        assert refusal["ok"] is False
        assert refusal["error"]["code"] == "service_error"
        send_message(stream, {"id": 1, "method": "ping"})
        reply = recv_message(stream)
        assert reply["ok"] is True and reply["text"] == "pong"
        stream.close()


def test_an_oversized_frame_is_answered_once_and_its_connection_closed(daemon, monkeypatch):
    """The daemon reads a line no further than ``MAX_FRAME_BYTES`` (here
    4 096): a frame of exactly that length is served, a longer line gets
    one ``service_error`` reply and its connection is closed, as the
    line's rest cannot be skipped; a new connection is served as before."""
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 4096)
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
        conn.settimeout(10)
        conn.connect(daemon)
        stream = conn.makefile("rwb")
        frame = json.dumps({"id": 1, "method": "ping"}).encode()
        stream.write(frame.ljust(4095) + b"\n")
        stream.flush()
        assert recv_message(stream)["text"] == "pong"
        stream.write(b"x" * 4097)
        stream.flush()
        refusal = recv_message(stream)
        assert refusal["ok"] is False
        assert refusal["error"]["code"] == "service_error"
        assert "longer than 4096 bytes" in refusal["error"]["message"]
        assert stream.readline() == b""
        stream.close()
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
        conn.connect(daemon)
        stream = conn.makefile("rwb")
        send_message(stream, {"id": 2, "method": "ping"})
        assert recv_message(stream)["text"] == "pong"
        stream.close()


@pytest.fixture(scope="module")
def real_replies():
    """The reply frames the daemon writes for a post-mortem session over
    the golden trace: typed records (``SessionStatus``, ``Moment`` with its
    ``StateView`` and ``TraceEvent``, ``ProcessInfo``, ``ContractReport``),
    an int-keyed mapping, and typed errors."""
    service, replies = PilgrimService(), []
    for method, args, kwargs in [
        ("ping", [], {}),
        ("open", [], {"name": "t1", "kind": "trace",
                      "spec": {"path": str(GOLDEN_BINARY_PATH)}}),
        ("connect", [], {}), ("status", [], {}), ("at", [20 * MS], {}),
        ("processes", [], {}), ("check", [], {}), ("halt", [], {}),
        ("no_such_method", [], {}),
    ]:
        message = {"id": 1, "method": method, "client": "fuzz",
                   "params": {"args": args, "kwargs": kwargs}}
        if method not in ("ping", "open"):
            message["session"] = "t1"
        replies.append((json.dumps(service.handle(message)) + "\n").encode())
    return replies


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_fuzzed_replies_raise_nothing_but_debugger_errors(real_replies, data):
    """Flip, truncate or splice a real reply frame: the client returns a
    value or raises a :class:`DebuggerError` subclass, nothing else."""
    reply = corrupt(data, data.draw(st.sampled_from(real_replies)))
    try:
        _CannedClient(reply).request("status", session="t1", raw=data.draw(st.booleans()))
    except DebuggerError:
        pass


def test_errors_roundtrip_losslessly():
    for code, cls in ERROR_CODES.items():
        try:
            original = cls("boom", node="app", address=1, state="down")
        except TypeError:
            continue  # custom-constructor subclass (divergence)
        rebuilt = error_from_wire(original.to_wire())
        assert type(rebuilt) is cls
        assert rebuilt.code == code
        assert str(rebuilt) == "boom"
        assert rebuilt.node == "app" and rebuilt.address == 1


# ----------------------------------------------------------------------
# The method table derives from the REPL registry
# ----------------------------------------------------------------------


def test_wire_methods_derive_from_repl_registry():
    table = {row["op"]: row for row in wire_methods()}
    for command in COMMANDS.values():
        if command.op is None:
            continue
        assert command.op in table
        assert command.name in table[command.op]["commands"]
    # And the scripting-only extras ride along.
    assert "wait_for_breakpoint" in table
    assert "stop_recording" in table


#: The ``methods`` table as the daemon has always printed it: op, REPL
#: aliases, summary — in this order.  The wire surface may only change
#: by editing this literal.
WIRE_METHODS = [
    ("connect", ["connect"], "attach to nodes (force with 'connect! ...')"),
    ("disconnect", ["disconnect"], "end the session"),
    ("processes", ["ps"], "list processes on a node"),
    ("set_breakpoint", ["break"], "set a breakpoint (node module line)"),
    ("clear_breakpoint", ["clear"], "clear breakpoint #1"),
    ("run_for", ["run"], "let the program run for a while"),
    ("wait_for_event", ["wait"], "wait for the next breakpoint/failure event"),
    ("backtrace", ["bt"], "backtrace of pid 3 on node app"),
    ("distributed_backtrace", ["dbt"], "distributed backtrace (follows RPCs)"),
    ("display", ["print"], "show a variable via its print operation"),
    ("write_var", ["set"], "write a variable (ints/strings)"),
    ("step", ["step"], "single-step a trapped process"),
    ("resume", ["continue"], "resume from the breakpoint"),
    ("halt", ["halt"], "halt the whole program"),
    ("rpc_info", ["rpc"], "show RPC call tables / recent outcomes"),
    ("clocks", ["time"], "logical/real clocks and interruption total"),
    ("start_recording", ["record"],
     "start recording; 'record stop' seals the trace for time travel"),
    ("at", ["at"], "jump the time-travel cursor to a moment"),
    ("reverse_step", ["rstep"], "step the cursor one event backwards"),
    ("forward_step", ["fstep"], "step the cursor one event forwards"),
    ("why_halted", ["why"], "explain why the program is halted here"),
    ("check", ["check"],
     "fold contracts over the loaded trace (default: the trace's set)"),
    ("contracts", ["contracts"], "list the shipped contract catalogue"),
    ("causal_predecessors", ["causes"],
     "causal predecessors of trace event #42"),
    ("fork", ["fork"], "fork the trace at checkpoint #1 into a what-if branch"),
    ("branches", ["branches"], "list the branches forked off the loaded trace"),
    ("diff_branches", ["diff"],
     "event-graph diff between two branches (ids or prefixes)"),
    ("status", ["status"], "session summary"),
    ("reattach", [], "re-adopt a node that became reachable again"),
    ("wait_for_breakpoint", [], "block until some breakpoint is hit"),
    ("wait_for_failure", [], "block until a process failure is reported"),
    ("halt_all", [], "halt every connected node at once"),
    ("all_processes", [], "process tables of every connected node"),
    ("process_state", [], "registers/state of one process"),
    ("read_var", [], "read a frame variable (raw value)"),
    ("read_global", [], "read a module global"),
    ("write_global", [], "write a module global"),
    ("invoke", [], "call a procedure inside the debuggee"),
    ("wake_process", [], "force a waiting process runnable"),
    ("rpc_server_record", [], "server-side record of one RPC call"),
    ("diagnose_maybe_failure", [], "classify a maybe-failed RPC call"),
    ("stop_recording", [], "seal the trace and load it for time travel"),
    ("total_interruption", [], "debugger-caused interruption total (us)"),
]


def test_wire_methods_table_is_pinned():
    assert wire_methods() == [
        {"op": op, "commands": commands, "summary": summary}
        for op, commands, summary in WIRE_METHODS
    ]
    # Key order is part of the JSON the daemon sends.
    assert all(list(row) == ["op", "commands", "summary"]
               for row in wire_methods())


def test_daemon_accepts_repl_aliases(daemon):
    with ServiceClient(daemon) as client:
        client.open("w1", "world", scenario="counter")
        client.request("connect", session="w1", args=("app",))
        # "bt" is the REPL alias of "backtrace"; both hit the same op.
        client.request("break", session="w1", args=("app", "app"),
                       kwargs={"line": 4})
        hit = client.request("wait_for_breakpoint", session="w1")
        via_alias = client.request("bt", session="w1",
                                   args=("app", hit["pid"]))
        via_op = client.request("backtrace", session="w1",
                                args=("app", hit["pid"]))
        assert via_alias == via_op
        assert isinstance(via_alias[0], Frame)


# ----------------------------------------------------------------------
# Sessions through the typed RemoteSession proxy
# ----------------------------------------------------------------------


def test_remote_session_implements_protocol(daemon):
    with ServiceClient(daemon) as client:
        session = client.session("any")
        assert isinstance(session, DebuggerSession)


def test_world_session_full_flow(daemon):
    with ServiceClient(daemon) as client:
        client.open("w1", "world", scenario="counter", seed=3)
        session = client.session("w1")
        infos = session.connect("app")
        assert list(infos) == [0] and infos[0]["name"] == "app"
        assert session.session_id == 1
        listing = session.processes("app")
        assert all(isinstance(info, ProcessInfo) for info in listing)
        # The all-nodes survey renders as per-node ps tables.
        assert client.text("all_processes", session="w1").startswith(
            "node 0:\n  pid ")
        bp = session.set_breakpoint("app", "app", line=4)
        assert isinstance(bp, Breakpoint) and bp.line == 4
        hit = session.wait_for_breakpoint()
        frames = session.backtrace("app", hit["pid"])
        assert isinstance(frames[0], Frame) and frames[0].proc == "main"
        assert session.read_var("app", hit["pid"], "i") == \
            frames[0].locals["i"]
        status = session.status()
        assert isinstance(status, SessionStatus)
        assert status.mode == "sim" and status.breakpoints == 1
        session.resume("app")
        session.disconnect()


def test_world_session_time_travel_over_wire(daemon):
    with ServiceClient(daemon) as client:
        client.open("w1", "world", scenario="counter", seed=3)
        session = client.session("w1")
        session.connect("app")
        session.start_recording()
        session.run_for(100 * MS)
        summary = session.stop_recording()
        assert isinstance(summary, TraceSummary)
        moment = session.at(50 * MS)
        assert isinstance(moment, Moment)
        assert isinstance(moment.view, StateView)
        assert isinstance(session.forward_step(), Moment)
        assert isinstance(session.reverse_step(), Moment)


def test_trace_session_over_wire(daemon, tmp_path):
    trace_path = record_echo_trace(tmp_path)
    with ServiceClient(daemon) as client:
        client.open("t1", "trace", path=str(trace_path))
        session = client.session("t1")
        session.connect()
        status = session.status()
        assert status.mode == "replay" and status.trace_loaded
        assert status["events"] > 0
        session.at(0)  # rewind: the client exits before the trace ends
        listing = session.processes()
        assert any(info.name == "main" for info in listing)
        moment = session.at(50 * MS)
        assert isinstance(moment, Moment) and moment.time <= 50 * MS
        with pytest.raises(UnsupportedOperationError) as excinfo:
            session.halt()
        assert excinfo.value.code == "unsupported"


def test_contract_check_over_wire(daemon, tmp_path):
    """``check``/``contracts`` round-trip as typed records."""
    from repro.contracts import UNIVERSAL_SET, ContractReport, check_trace
    from repro.replay import Trace

    trace_path = record_echo_trace(tmp_path)
    with ServiceClient(daemon) as client:
        client.open("t1", "trace", path=str(trace_path))
        session = client.session("t1")
        session.connect()
        report = session.check()
        assert isinstance(report, ContractReport)
        local = check_trace(Trace.load(trace_path), UNIVERSAL_SET)
        assert report.canonical() == local.canonical()
        named = session.check(["single_leader"])
        assert list(named.verdicts) == ["single_leader"]
        rows = session.contracts()
        assert any(row["name"] == "exactly_once_delivery" for row in rows)
        text = client.text("check", session="t1")
        assert any(line.strip().startswith(("OK", "VIOLATED"))
                   for line in text.splitlines())


def test_two_session_kinds_coexist(daemon, tmp_path):
    trace_path = record_echo_trace(tmp_path)
    with ServiceClient(daemon) as client:
        client.open("world", "world", scenario="counter", seed=3)
        client.open("postmortem", "trace", path=str(trace_path))
        live = client.session("world")
        dead = client.session("postmortem")
        live.connect("app")
        dead.connect()
        assert live.status().mode == "sim"
        assert dead.status().mode == "replay"
        rows = {row["name"]: row for row in client.sessions()}
        assert rows["world"]["state"] == "attached"
        assert rows["postmortem"]["state"] == "attached"


def record_forkable_trace(tmp_path, seed=3):
    """A ``record_run`` echo trace: re-executable, so branches can fork it."""
    from repro.campaign.scenarios import get_scenario

    scenario = get_scenario("echo")
    trace = record_run(scenario.build, [*scenario.names, "debugger"],
                       seed=seed, run_until=500 * MS,
                       checkpoint_every=100 * MS)
    path = tmp_path / "forkable.trace.bin"
    trace.save(path)
    return path


def test_branch_session_over_wire(daemon, tmp_path):
    trace_path = record_forkable_trace(tmp_path)
    pert = Perturbation.from_plan(
        FaultPlan().crash(at=250 * MS, node="server"), kind="crash")
    with ServiceClient(daemon) as client:
        client.open("whatif", "branch", path=str(trace_path),
                    builder="scenario:echo", checkpoint=1,
                    perturbation=json.dumps(pert.to_dict()))
        session = client.session("whatif")
        assert session.status().mode == "replay"
        # The branch is a full trace session: time travel works on it.
        assert session.at(0).time == 0
        # And it can fork again (a grandchild) — the builder rode along.
        grand = session.fork(Perturbation.from_plan(
            FaultPlan().crash(at=400 * MS, node="client"), kind="crash"))
        assert isinstance(grand, BranchInfo)
        assert grand.id in [b.id for b in session.branches()]
        diff = session.diff_branches("root", grand.id[:8])
        assert not diff.identical and diff.first_divergence is not None
        client.close_session("whatif")
        assert "whatif" not in {row["name"] for row in client.sessions()}


def test_branch_session_refuses_interactive_traces(daemon, tmp_path):
    trace_path = record_echo_trace(tmp_path)  # Pilgrim-driven: mid-run start
    pert = Perturbation.from_plan(
        FaultPlan().crash(at=100 * MS, node="server"), kind="crash")
    with ServiceClient(daemon) as client:
        client.open("whatif", "branch", path=str(trace_path),
                    builder="scenario:echo_soak",
                    perturbation=json.dumps(pert.to_dict()))
        # Dormant specs materialize at first touch; that is where the
        # non-re-executable recording is refused.
        with pytest.raises(DebuggerError, match="manually driven"):
            client.session("whatif").status()


def test_fork_of_an_interactive_trace_is_unsupported_over_the_wire(
        daemon, tmp_path):
    trace_path = record_echo_trace(tmp_path)  # Pilgrim-driven: mid-run start
    pert = Perturbation.from_plan(
        FaultPlan().crash(at=100 * MS, node="server"), kind="crash")
    with ServiceClient(daemon) as client:
        client.open("t1", "trace", path=str(trace_path),
                    builder="scenario:echo_soak")
        session = client.session("t1")
        session.connect()
        with pytest.raises(UnsupportedOperationError,
                           match="manually driven") as excinfo:
            session.fork(pert)
        assert excinfo.value.code == "unsupported"


def test_corpus_reproducer_debuggable_by_name(daemon, tmp_path):
    cells = build_grid(["echo"], [0], [("crash", get_plan("crash"))])
    corpus_dir = tmp_path / "corpus"
    run_campaign(cells, workers=1, shrink=True, corpus_dir=corpus_dir)
    label = Corpus.open(corpus_dir).entries()[0].label()

    # Directly: the corpus hands out a typed post-mortem session.
    session = Corpus.open(corpus_dir).open_session(label)
    assert isinstance(session, TraceSession)
    assert session.name == label

    # And through the daemon, by name.
    with ServiceClient(daemon) as client:
        client.open("bug", "corpus", root=str(corpus_dir), entry=label)
        remote = client.session("bug")
        remote.connect()
        status = remote.status()
        assert status.mode == "replay" and status["events"] > 0
        verdict = remote.why_halted()
        assert "halted" in verdict


def test_corpus_find_rejects_unknown_entry(tmp_path):
    corpus = Corpus.open(tmp_path / "empty")
    with pytest.raises(KeyError, match="unknown corpus entry"):
        corpus.find("nope")


# ----------------------------------------------------------------------
# Sessions survive across client connections (the daemon's whole point)
# ----------------------------------------------------------------------


def test_session_survives_across_client_invocations(daemon):
    first = ServiceClient(daemon, client="cli-alice")
    first.open("w1", "world", scenario="counter", seed=3)
    session = first.session("w1")
    session.connect("app")
    session.set_breakpoint("app", "app", line=4)
    first.close()  # the CLI process exits; no disconnect

    # A second invocation under the same identity reattaches seamlessly.
    second = ServiceClient(daemon, client="cli-alice")
    revived = second.session("w1")
    status = revived.status()
    assert status.session == 1 and status.breakpoints == 1
    hit = revived.wait_for_breakpoint()
    assert hit["line"] == 4
    second.close()


def test_dormant_sessions_materialize_lazily(daemon):
    with ServiceClient(daemon) as client:
        for index in range(5):
            client.open(f"parked-{index}", "world", scenario="counter")
        rows = {row["name"]: row["state"] for row in client.sessions()}
        assert all(state == "dormant" for state in rows.values())
        assert client.metrics()["snapshot"][
            "service.sessions_materialized"] == 0
        client.session("parked-0").connect("app")  # first touch builds
        assert client.metrics()["snapshot"][
            "service.sessions_materialized"] == 1


def test_unknown_session_and_method_are_typed_errors(daemon):
    with ServiceClient(daemon) as client:
        with pytest.raises(BadSessionError) as excinfo:
            client.session("ghost").status()
        assert excinfo.value.code == "bad_session"
        client.open("w1", "world", scenario="counter")
        with pytest.raises(ServiceError):
            client.request("frobnicate", session="w1")


# ----------------------------------------------------------------------
# REPL byte-identity: local backend vs the daemon
# ----------------------------------------------------------------------

REPL_SCRIPT = [
    "connect app",
    "ps app",
    "break app app 4",
    "wait",
    "bt app 3",
    "print app 3 i",
    "step app 3",
    "status",
    "time",
    "continue app",
    "record",
    "run 100ms",
    "record stop",
    "at 50ms",
    "fstep",
    "rstep",
    "why",
    "clear 1",
    "disconnect",
]


#: Post-mortem commands, ending on one a trace session must refuse.
TRACE_REPL_SCRIPT = [
    "connect",
    "status",
    "at 20ms",
    "rstep",
    "why",
    "check",
    "branches",
    "print app 3 x",
]


def test_repl_renders_byte_identical_locally_and_remotely(daemon):
    local = PilgrimRepl(counter_world(seed=3)).run_script(REPL_SCRIPT)
    local_trace = PilgrimRepl(
        TraceSession(GOLDEN_BINARY_PATH)).run_script(TRACE_REPL_SCRIPT)
    with ServiceClient(daemon) as client:
        client.open("w1", "world", scenario="counter", seed=3)
        remote = PilgrimRepl(client.session("w1")).run_script(REPL_SCRIPT)
        client.open("t1", "trace", path=str(GOLDEN_BINARY_PATH))
        remote_trace = PilgrimRepl(
            client.session("t1")).run_script(TRACE_REPL_SCRIPT)
    assert local == remote
    assert local_trace == remote_trace
    assert local_trace[-1].startswith("!display is not available")


def named_arguments(command) -> list:
    """The arguments ``command``'s usage names before any optional ``[...]``."""
    return command.usage.split("[")[0].split()[1:]


#: Every command given each shorter run of the arguments its usage names.
SHORT_REPL_SCRIPT = [" ".join([command.name, *named_arguments(command)[:kept]])
                     for command in COMMANDS.values()
                     for kept in range(len(named_arguments(command)))]


def test_a_missing_argument_gets_the_usage_locally_and_remotely(daemon):
    """Every command given fewer arguments than its usage names answers
    ``?usage: <its usage>`` (not the text of an ``IndexError``), on a
    trace session and through the daemon, byte for byte; the commands
    whose usage names none take no argument they cannot do without."""
    local = PilgrimRepl(TraceSession(GOLDEN_BINARY_PATH)).run_script(SHORT_REPL_SCRIPT)
    with ServiceClient(daemon) as client:
        client.open("t1", "trace", path=str(GOLDEN_BINARY_PATH))
        remote = PilgrimRepl(client.session("t1")).run_script(SHORT_REPL_SCRIPT)
    assert local == remote == [
        line for short in SHORT_REPL_SCRIPT for line in (
            f"(pilgrim) {short}", f"?usage: {COMMANDS[short.split()[0]].usage}")]
    assert {"step", "step app", "at", "print app 3"} <= set(SHORT_REPL_SCRIPT)
    assert {name for name, command in COMMANDS.items() if not named_arguments(command)} == {
        "disconnect", "run", "wait", "time", "record", "rstep", "fstep", "why", "check",
        "contracts", "branches", "status", "help", "quit"}


def test_an_event_index_out_of_range_is_refused_locally_and_remotely(daemon):
    """``causes`` takes an event index in ``0..n-1``: -1 is not the last
    event, and one past the end is not an ``IndexError``; both are a
    ``debugger_error`` naming the range, in the REPL and on the wire."""
    local_session = TraceSession(GOLDEN_BINARY_PATH)
    events = local_session.trace.n_events
    script = ["causes -1", f"causes {events}", f"causes {events - 1}"]
    local = PilgrimRepl(local_session).run_script(script)
    with ServiceClient(daemon) as client:
        client.open("t1", "trace", path=str(GOLDEN_BINARY_PATH))
        session = client.session("t1")
        remote = PilgrimRepl(session).run_script(script)
        for index in (-1, events):
            with pytest.raises(DebuggerError) as excinfo:
                session.causal_predecessors(index)
            assert excinfo.value.code == "debugger_error"
            assert str(excinfo.value) == (
                f"event {index} out of range (trace has {events} events: 0..{events - 1})")
    assert local == remote
    assert local[:4] == [
        "(pilgrim) causes -1",
        f"!event -1 out of range (trace has {events} events: 0..{events - 1})",
        f"(pilgrim) causes {events}",
        f"!event {events} out of range (trace has {events} events: 0..{events - 1})"]
    # The last event, in range, is answered with its causal history.
    assert local[4] == f"(pilgrim) causes {events - 1}" and len(local) > 5


# ----------------------------------------------------------------------
# The CLI end to end (a real daemon process, two invocations)
# ----------------------------------------------------------------------


def _cli(socket_path, *argv, check=True):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    result = subprocess.run(
        [sys.executable, "-m", "repro.service", "--socket", socket_path,
         "--client", "cli-test", *argv],
        capture_output=True, text=True, timeout=120, env=env,
    )
    if check:
        assert result.returncode == 0, result.stderr
    return result


def test_cli_sessions_survive_between_invocations(tmp_path):
    socket_path = str(tmp_path / "cli.sock")
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    daemon_proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--socket", socket_path,
         "start"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        ServiceClient(socket_path, connect_retries=100).close()  # wait for boot
        _cli(socket_path, "open", "w1", "--kind", "world",
             "--scenario", "counter", "--seed", "3")
        first = _cli(socket_path, "script", "w1",
                     "connect app", "break app app 4", "wait")
        assert "* breakpoint" in first.stdout
        # A separate invocation reattaches to the same held session.
        second = _cli(socket_path, "script", "w1", "status", "bt app 3")
        assert "breakpoints: 1" in second.stdout
        assert "app.main" in second.stdout
        listing = _cli(socket_path, "sessions")
        assert "w1" in listing.stdout and "attached" in listing.stdout
        _cli(socket_path, "stop")
        assert daemon_proc.wait(timeout=30) == 0
        assert not os.path.exists(socket_path)
    finally:
        if daemon_proc.poll() is None:
            daemon_proc.kill()
