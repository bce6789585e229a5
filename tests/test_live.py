"""Tests for repro.live — Pilgrim's method against real Python threads.

These use wall-clock time and real sockets (localhost); timings are kept
coarse so they are robust on loaded machines.
"""

import threading
import time

import pytest

from repro.live import LiveAgent, LiveDebugger, LiveDebuggerError
from repro.live.agent import NO_DEBUGGER


class Counters:
    """The target program: two counting threads and a shared dict."""

    def __init__(self, agent: LiveAgent):
        self.agent = agent
        self.values = {"a": 0, "b": 0}
        self.stop = threading.Event()
        self.threads = []

    def loop(self, key: str) -> None:
        self.agent.adopt_current_thread()
        count = 0
        while not self.stop.is_set():
            self.agent.checkpoint()
            count += 1
            self.values[key] = count  # BREAK HERE
            time.sleep(0.001)
        self.agent.release_current_thread()

    def start(self) -> None:
        for key in ("a", "b"):
            thread = threading.Thread(
                target=self.loop, args=(key,), name=f"counter-{key}"
            )
            thread.start()
            self.threads.append(thread)

    def shutdown(self) -> None:
        self.stop.set()
        for thread in self.threads:
            thread.join(timeout=5)


BREAK_LINE = None  # computed below


def _break_line() -> int:
    import inspect

    source, start = inspect.getsourcelines(Counters.loop)
    for offset, line in enumerate(source):
        if "BREAK HERE" in line:
            return start + offset
    raise AssertionError("marker not found")


@pytest.fixture
def target():
    agent = LiveAgent()
    program = Counters(agent)
    program.start()
    time.sleep(0.05)
    yield agent, program
    program.stop.set()
    try:
        agent._end_halt()
    except Exception:
        pass
    program.shutdown()
    agent.shutdown()


def test_attach_lists_threads_and_detach_leaves_running(target):
    agent, program = target
    dbg = LiveDebugger(agent.address)
    threads = dbg.connect()
    names = {t["name"] for t in threads}
    assert {"counter-a", "counter-b"} <= names
    dbg.disconnect()
    before = dict(program.values)
    time.sleep(0.1)
    assert program.values["a"] > before["a"]  # still running
    dbg.close()


def test_agent_dormant_until_connected(target):
    agent, program = target
    # No session: checkpoint() must not install tracing.
    assert not agent._tracing
    assert agent._traced == set()


def test_breakpoint_halts_all_threads(target):
    agent, program = target
    dbg = LiveDebugger(agent.address)
    dbg.connect()
    dbg.set_breakpoint("test_live.py", _break_line())
    hit = dbg.wait_for_breakpoint(timeout=10)
    assert hit["func"] == "loop"
    assert hit["line"] == _break_line()
    # Both threads freeze (the non-trapped one parks at its next line).
    time.sleep(0.3)
    snapshot = dict(program.values)
    time.sleep(0.3)
    assert program.values == snapshot
    assert dbg.status()["halted"] is True
    dbg.clear_breakpoint("test_live.py", _break_line())
    dbg.resume()
    time.sleep(0.2)
    assert program.values != snapshot  # running again
    dbg.disconnect()
    dbg.close()


def test_backtrace_and_read_var(target):
    agent, program = target
    dbg = LiveDebugger(agent.address)
    dbg.connect()
    dbg.set_breakpoint("test_live.py", _break_line())
    hit = dbg.wait_for_breakpoint(timeout=10)
    frames = dbg.backtrace(hit["thread"])
    funcs = [f["proc"] for f in frames]
    assert "loop" in funcs
    loop_frame = funcs.index("loop")
    count = dbg.read_var(hit["thread"], "count", frame=loop_frame)
    key = dbg.read_var(hit["thread"], "key", frame=loop_frame)
    assert isinstance(count, int) and count >= 1
    assert key in ("a", "b")
    # The counter is one ahead of the published value (break is pre-store).
    assert count == program.values[key] + 1
    dbg.clear_breakpoint("test_live.py", _break_line())
    dbg.resume()
    dbg.disconnect()
    dbg.close()


def test_single_step_executes_one_line(target):
    agent, program = target
    dbg = LiveDebugger(agent.address)
    dbg.connect()
    dbg.set_breakpoint("test_live.py", _break_line())
    hit = dbg.wait_for_breakpoint(timeout=10)
    dbg.clear_breakpoint("test_live.py", _break_line())
    stopped = dbg.step()
    assert stopped["event"] == "stepped"
    assert stopped["thread"] == hit["thread"]
    assert stopped["line"] != hit["line"]
    # Still halted after the step.
    assert dbg.status()["halted"] is True
    dbg.resume()
    dbg.disconnect()
    dbg.close()


def test_logical_clock_delta_grows_while_halted(target):
    agent, program = target
    dbg = LiveDebugger(agent.address)
    dbg.connect()
    status0 = dbg.status()
    assert status0["delta"] < 0.05
    dbg.halt()
    time.sleep(0.3)
    status1 = dbg.status()
    assert status1["halted"] is True
    assert status1["delta"] >= 0.25
    # Logical clock is frozen: it lags real time by the delta.
    assert status1["real_time"] - status1["logical_time"] >= 0.25
    dbg.resume()
    status2 = dbg.status()
    assert status2["halted"] is False
    assert status2["delta"] >= 0.25  # preserved after resume
    dbg.disconnect()
    dbg.close()


def test_get_debuggee_status_for_servers(target):
    """The §6.1 support procedure, live: a 'server' checks whether its
    client is being debugged and reads the client's logical time."""
    agent, program = target
    debugger_addr, logical = agent.get_debuggee_status()
    assert debugger_addr == NO_DEBUGGER
    dbg = LiveDebugger(agent.address)
    dbg.connect()
    debugger_addr, logical = agent.get_debuggee_status()
    assert debugger_addr != NO_DEBUGGER
    dbg.halt()
    time.sleep(0.2)
    _addr, frozen1 = agent.get_debuggee_status()
    time.sleep(0.2)
    _addr, frozen2 = agent.get_debuggee_status()
    assert abs(frozen2 - frozen1) < 0.05  # frozen while halted
    dbg.resume()
    dbg.disconnect()
    dbg.close()


def test_second_debugger_rejected_then_forcible(target):
    agent, program = target
    dbg1 = LiveDebugger(agent.address)
    dbg1.connect()
    dbg2 = LiveDebugger(agent.address)
    with pytest.raises(LiveDebuggerError, match="already active"):
        dbg2.connect()
    dbg2.connect(force=True)  # forcible connect (§3)
    assert agent.session_id == dbg2.session_id
    # dbg1's session is dead.
    with pytest.raises(LiveDebuggerError, match="session"):
        dbg1.processes()
    dbg2.disconnect()
    dbg1.close()
    dbg2.close()


def test_stale_session_rejected(target):
    agent, program = target
    dbg = LiveDebugger(agent.address)
    dbg.connect()
    dbg.session_id = 999_999
    with pytest.raises(LiveDebuggerError, match="session"):
        dbg.processes()
    dbg.session_id = agent.session_id
    dbg.disconnect()
    dbg.close()


def test_a_refusal_is_its_reason_and_a_fault_is_an_agent_error(target):
    agent, program = target
    assert agent.handle_request({"op": "connect", "args": {}}) == {
        "ok": False, "error": "connect needs a session identifier"}
    assert agent.handle_request({"op": "connect", "args": {"session": 7}})["ok"]
    assert agent.handle_request(
        {"op": "backtrace", "args": {"thread": 1}, "session": 7}) == {
        "ok": False, "error": "no such thread 1"}
    fault = agent.handle_request(
        {"op": "set_breakpoint", "args": {"file": "x.py", "line": "x"}, "session": 7})
    assert fault["error"].startswith("agent error: ") and "detail" in fault
    assert agent.handle_request({"op": "disconnect", "session": 7}) == {
        "ok": True, "data": None}


@pytest.mark.parametrize("frame", [
    b"[1]",
    b'{"op": "connect", "args": []}',
    b"[" * 100_000,
    b"\xff",
    b'"x"',
], ids=["list", "list_args", "deep", "not_utf8", "string"])
def test_a_malformed_frame_gets_one_error_reply_and_the_connection_serves_on(
        target, frame):
    import json
    import socket

    agent, program = target
    with socket.create_connection(agent.address, timeout=10) as conn:
        stream = conn.makefile("rwb")

        def ask(raw: bytes) -> dict:
            stream.write(raw + b"\n")
            stream.flush()
            return json.loads(stream.readline())

        assert ask(json.dumps({"op": "connect", "args": {"session": 7}}).encode())["ok"]
        reply = ask(frame)
        assert reply["ok"] is False and reply["error"]
        status = ask(json.dumps({"op": "status", "args": {}, "session": 7}).encode())
        assert status["ok"] and status["data"]["debugger"] == "remote"
        assert ask(json.dumps({"op": "disconnect", "session": 7}).encode())["ok"]


def test_an_oversized_frame_is_answered_once_and_its_connection_closed(target, monkeypatch):
    """The agent reads a line no further than ``MAX_FRAME_BYTES`` (here
    4 096): a longer line gets one error reply and its connection is
    closed, as the line's rest cannot be skipped; a new debugger connects."""
    import socket

    from repro.service import protocol

    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 4096)
    agent, program = target
    with socket.create_connection(agent.address, timeout=10) as conn:
        stream = conn.makefile("rwb")
        stream.write(b"x" * 4097)
        stream.flush()
        reply = protocol.recv_message(stream)
        assert reply == {"ok": False, "error": "frame longer than 4096 bytes"}
        assert stream.readline() == b""
        stream.close()
    dbg = LiveDebugger(agent.address)
    assert {"counter-a", "counter-b"} <= {t["name"] for t in dbg.connect()}
    dbg.disconnect()
    dbg.close()


def test_an_undecodable_reply_is_a_typed_error():
    import socket
    import threading

    server = socket.create_server(("127.0.0.1", 0))

    def answer_garbage():
        conn, _ = server.accept()
        with conn:
            conn.makefile("rb").readline()
            conn.sendall(b"\xff\n")

    thread = threading.Thread(target=answer_garbage)
    thread.start()
    dbg = LiveDebugger(server.getsockname())
    with pytest.raises(LiveDebuggerError, match="undecodable"):
        dbg.status()
    dbg.close()
    thread.join(timeout=5)
    server.close()
