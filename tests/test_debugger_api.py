"""The unified DebuggerSession protocol."""

import re

import pytest

from repro import MS, Cluster, DebuggerSession, Pilgrim
from repro.debugger.api import OPS, SessionBase
from repro.debugger.errors import DebuggerError
from repro.debugger.repl import COMMANDS, PilgrimRepl
from repro.live.debugger import LiveDebugger
from repro.replay.session import TraceSession
from repro.service.client import RemoteSession
from tests.golden_scenario import GOLDEN_BINARY_PATH

COUNTER = (
    "proc main()\n  var i: int := 0\n  while true do\n"
    "    i := i + 1\n    sleep(1000)\n  end\nend"
)


def _session():
    cluster = Cluster(names=["app", "server", "debugger"])
    image = cluster.load_program(COUNTER, "app")
    cluster.spawn_vm("app", image, "main")
    dbg = Pilgrim(cluster, home="debugger")
    dbg.connect("app")
    return dbg


# ----------------------------------------------------------------------
# One protocol, two backends
# ----------------------------------------------------------------------


def test_both_backends_satisfy_the_protocol():
    assert issubclass(Pilgrim, DebuggerSession)
    assert issubclass(LiveDebugger, DebuggerSession)
    dbg = _session()
    assert isinstance(dbg, DebuggerSession)


@pytest.mark.parametrize(
    "cls", [Pilgrim, TraceSession, LiveDebugger, RemoteSession])
def test_every_registered_op_is_a_method_of_every_session_class(cls):
    assert issubclass(cls, DebuggerSession)
    for op in OPS.values():
        method = getattr(cls, op.name)
        assert callable(method) and method.__name__ == op.name
        assert method.__doc__


def test_protocol_defaults_hold_on_the_sim_backend():
    """``timeout=None`` means the default; a missing node is a typed error."""
    dbg = _session()
    dbg.set_breakpoint("app", "app", line=4)
    assert dbg.wait_for_breakpoint(timeout=None)["line"] == 4
    for op in (dbg.halt, dbg.resume, dbg.step):
        with pytest.raises(DebuggerError, match="needs a node"):
            op()


def test_status_is_local_and_summarizes_session():
    dbg = _session()
    before = dbg.cluster.world.now
    status = dbg.status()
    assert dbg.cluster.world.now == before  # no round trips
    assert status["mode"] == "sim"
    assert status["connected"] == [dbg.cluster.node("app").node_id]
    assert status["breakpoints"] == 0
    assert status["recording"] is False and status["trace_loaded"] is False


# ----------------------------------------------------------------------
# The deprecated aliases served their one release of grace and are gone
# ----------------------------------------------------------------------


def test_deprecated_aliases_are_removed():
    assert not hasattr(Pilgrim, "break_at")
    assert not hasattr(Pilgrim, "clear")
    assert not hasattr(LiveDebugger, "threads")


# ----------------------------------------------------------------------
# The REPL drives time travel against a recorded trace (acceptance)
# ----------------------------------------------------------------------


def test_repl_time_travel_over_recorded_trace():
    dbg = _session()
    repl = PilgrimRepl(dbg)
    repl.run_script([
        "record",
        "break app app 4",
        "wait",
        "record stop",
        "status",
        "why",
        "at 1ms",
        "fstep",
        "rstep",
        "causes 3",
    ])
    out = "\n".join(repl.lines)
    assert "recording (finish with 'record stop')" in out
    assert "* breakpoint:" in out
    assert "trace loaded" in out
    assert "trace_loaded: True" in out
    # why: at the end of the recording the program sits in a breakpoint.
    assert "halted on nodes" in out
    assert "BreakpointHit" in out
    # at/fstep/rstep echo cursor moments.
    assert "(before first event)" in out or "@#" in out

    # The cursor really moved: at(1ms) then fstep/rstep land back.
    moment = dbg.at(1 * MS)
    assert dbg.forward_step().index == moment.index + 1
    assert dbg.reverse_step().index == moment.index


def test_repl_reports_missing_trace_gracefully():
    repl = PilgrimRepl(_session())
    repl.run_script(["rstep"])
    assert any(line.startswith("!no trace loaded") for line in repl.lines)


# ----------------------------------------------------------------------
# Every REPL command, on every local backend, answers or refuses — typed
# ----------------------------------------------------------------------


@pytest.mark.parametrize("command", COMMANDS.values(), ids=lambda c: c.name)
@pytest.mark.parametrize("backend", [
    _session, lambda: TraceSession(GOLDEN_BINARY_PATH),
], ids=["pilgrim-without-trace", "trace-session"])
def test_every_repl_command_prints_output_or_a_typed_refusal(backend, command):
    session = backend()
    repl = PilgrimRepl(session)
    # The help text's example invocation, minus its optional part.
    repl.execute(re.sub(r" \[.*\]", "", command.usage))  # must not raise
    assert repl.lines
    if command.op is None:
        return
    inherited = getattr(type(session), command.op)
    if inherited is getattr(SessionBase, command.op) and command.op != "contracts":
        # An op the backend does not offer: the one typed refusal (unless
        # the REPL's own bookkeeping rejected the arguments first).
        assert repl.lines == [
            f"!{command.op} is not available on {session.refusal}"
        ] or repl.lines[0].startswith("?bad arguments")
