"""Unit tests for the Pilgrim REPL command layer."""

from repro import Cluster, Pilgrim
from repro.debugger.repl import PilgrimRepl, parse_duration, parse_value

PROGRAM = """record pair
  a: int
  b: int
end
printop pair show
proc show(p: pair) returns string
  return itoa(p.a) + "/" + itoa(p.b)
end
proc main()
  var i: int := 0
  var p: pair := pair{a: 0, b: 0}
  while true do
    i := i + 1
    p.a := i
    p.b := i * i
    sleep(3000)
  end
end
"""


def make_repl():
    cluster = Cluster(names=["app", "debugger"])
    image = cluster.load_program(PROGRAM, "app")
    cluster.spawn_vm("app", image, "main")
    dbg = Pilgrim(cluster, home="debugger")
    repl = PilgrimRepl(dbg)
    return cluster, repl


def test_parse_duration():
    assert parse_duration("100ms") == 100_000
    assert parse_duration("2s") == 2_000_000
    assert parse_duration("500us") == 500
    assert parse_duration("1234") == 1234


def test_parse_value():
    assert parse_value("42") == 42
    assert parse_value("true") is True
    assert parse_value("false") is False
    assert parse_value('"hello"') == "hello"


def test_unknown_command():
    _cluster, repl = make_repl()
    repl.execute("frobnicate")
    assert any("unknown command" in line for line in repl.lines)


def test_connect_ps_and_disconnect():
    _cluster, repl = make_repl()
    repl.run_script(["connect app", "ps app", "disconnect"])
    text = "\n".join(repl.lines)
    assert "connected to node 0 (app)" in text
    assert "main" in text
    assert "pilgrim.agent" in text
    assert "[halt-exempt]" in text
    assert "disconnected" in text


def test_breakpoint_session_flow():
    _cluster, repl = make_repl()
    repl.run_script(
        [
            "connect app",
            "break app app 12",  # i := i + 1
            "wait",
            "bt app 3",
            "print app 3 p",
            "set app 3 i 100",
            "step app 3",
            "continue app",
            "wait",
            "print app 3 i",
            "clear 1",
            "continue app",
            "time",
            "disconnect",
        ]
    )
    text = "\n".join(repl.lines)
    assert "breakpoint #1 at app.main line 12" in text
    assert "* breakpoint: node 0 pid 3" in text
    assert "app.main line 12  locals:" in text
    assert "p = " in text and "/" in text  # print op output a/b
    assert "i := 100" in text
    assert "stepped: main" in text
    # After set i := 100 and resume, the next hit shows 101.
    assert "i = 101" in text
    assert "cleared breakpoint #1" in text
    assert "interruption log total" in text


def test_error_reported_not_raised():
    _cluster, repl = make_repl()
    repl.run_script(["connect app", "break app nosuchmodule 3"])
    assert any(line.startswith("!") for line in repl.lines)


def test_bad_arguments_reported():
    _cluster, repl = make_repl()
    repl.execute("break app")  # missing args: the command's usage
    repl.execute("break app app seventeen")  # an argument that does not parse
    assert repl.lines[0] == "?usage: break app app 17"
    assert repl.lines[1].startswith("?bad arguments")


def test_help_and_quit():
    _cluster, repl = make_repl()
    repl.run_script(["help", "quit", "ps app"])  # ps never runs after quit
    text = "\n".join(repl.lines)
    assert "connect app [server ...]" in text
    assert repl.done
    assert "pilgrim.agent" not in text  # ps output never appeared


def test_check_and_contracts_commands():
    cluster, repl = make_repl()
    repl.execute("contracts")
    assert any("single_leader" in line for line in repl.lines)
    # check needs a loaded trace: record a slice, then fold over it.
    repl.run_script(["record", "run 50ms", "record stop", "check"])
    assert any(line.strip().startswith("OK") for line in repl.lines)
    repl.lines.clear()
    repl.execute("check clock_monotonicity")
    assert any("clock_monotonicity" in line and "pass" in line
               for line in repl.lines)
