"""Integration tests: Pilgrim debugger driving agents on a live program."""

import pytest

from repro import MS, SEC, AgentError, Cluster, DebuggerError, Pilgrim
from repro.agent import requests as rq
from repro.cvm import CluRecord
from repro.live import LiveAgent
from repro.mayflower.syscalls import Cpu

COUNTER = """record point
  x: int
  y: int
end
printop point show_point
proc show_point(p: point) returns string
  return "(" + itoa(p.x) + ", " + itoa(p.y) + ")"
end
proc tick(n: int) returns int
  var p: point := point{x: n, y: n * 2}
  return p.x + p.y
end
proc main()
  var total: int := 0
  var i: int := 0
  while i < 1000 do
    i := i + 1
    total := total + tick(i)
    sleep(1000)
  end
  print total
end
"""


def make_session(source=COUNTER, seed=0):
    cluster = Cluster(names=["app", "debugger"], seed=seed)
    image = cluster.load_program(source, "app")
    proc = cluster.spawn_vm("app", image, "main")
    dbg = Pilgrim(cluster, home="debugger")
    return cluster, image, proc, dbg


def test_connect_and_disconnect():
    cluster, image, proc, dbg = make_session()
    infos = dbg.connect("app")
    assert infos[0]["name"] == "app"
    assert "app" in cluster.programs
    dbg.disconnect()
    assert not cluster.node("app").agent.connected()


def test_second_connect_rejected_then_forced():
    cluster, image, proc, dbg = make_session()
    dbg.connect("app")
    dbg2 = Pilgrim(cluster, home="debugger")
    with pytest.raises(AgentError, match="already active"):
        dbg2.connect("app")
    # Forcible connect abandons the original session (paper §3).
    dbg2.connect("app", force=True)
    agent = cluster.node("app").agent
    assert agent.session_id == dbg2.session_id
    dbg2.disconnect()


def test_list_processes():
    cluster, image, proc, dbg = make_session()
    dbg.connect("app")
    procs = dbg.processes("app")
    names = [p["name"] for p in procs]
    assert "main" in names
    assert "pilgrim.agent" in names


def test_list_processes_still_shows_finished_processes():
    """The supervisor's live index serves halting and checkpoints; the
    agent's listing reads the complete table (paper §5.4)."""
    cluster, image, proc, dbg = make_session(
        "proc main()\n  print 1\nend\n"
        "proc bad()\n  print 1 / 0\nend")
    cluster.spawn_vm("app", image, "bad")
    dbg.connect("app")
    cluster.run_for(50 * MS)
    states = {p["name"]: p["state"] for p in dbg.processes("app")}
    assert states["main"] == "done" and states["bad"] == "failed"
    supervisor = cluster.node("app").supervisor
    assert {p.name for p in supervisor.live_processes()}.isdisjoint(
        {"main", "bad"})


def _row(pid, name, state, priority=0, exempt=False, waiting=None):
    return {"pid": pid, "name": name, "state": state, "priority": priority,
            "halt_exempt": exempt, "waiting_on": waiting}


def _native_frames(label):
    return [{"proc": label, "line": None, "kind": "native", "locals": {}}]


def _vm_frame(proc, pc, line, local_values):
    return {"proc": proc, "module": "client", "pc": pc, "line": line,
            "locals": local_values, "synthetic": False, "well_formed": True,
            "info_block": None}


def test_retired_processes_answer_inspection_as_before():
    """Retiring an exited process keeps every inspection reply: a
    finished native process, a finished VM RPC worker (its info block
    still at the bottom of its stack) and a FAILED VM process (its
    frames) list, report state and backtrace exactly as they did before
    retirement existed.  The replies are pinned, for every pid."""
    server_src = "proc echo(x: int) returns int\n  var y: int := x + 1\n  return y\nend"
    client_src = (
        "proc main()\n  var r: int := remote svc.echo(41)\n  print r\nend\n"
        "proc divide(n: int) returns int\n  var d: int := n - n\n  return n / d\nend\n"
        "proc bad()\n  var k: int := 6\n  print divide(k)\nend\n")

    def native_body():
        yield Cpu(10)
        return 7

    cluster = Cluster(names=["client", "server", "debugger"], seed=0)
    server = cluster.load_program(server_src, "server")
    cluster.rpc("server").export_vm("svc", server, {"echo": "echo"})
    client = cluster.load_program(client_src, "client")
    cluster.spawn_vm("client", client, "main")
    cluster.spawn_vm("client", client, "bad")
    cluster.node("server").spawn(native_body(), name="native.done")
    cluster.run_for(50 * MS)
    assert client.console == ["42"]

    agent_rows = [_row(1, "pilgrim.agent", "running", 100, True),
                  _row(2, "rpc.dispatcher.exempt", "waiting", 100, True,
                       "semaphore:rpc.dispatch.exempt.avail")]
    listings = {
        "client": agent_rows + [_row(3, "main", "done"), _row(4, "bad", "failed")],
        "server": agent_rows + [
            _row(3, "rpc.dispatcher", "waiting", waiting="semaphore:rpc.dispatch.avail"),
            _row(4, "native.done", "done"), _row(5, "rpcw.echo", "done")],
    }
    done_vm = {"kind": "vm", "pc": None}
    registers = {
        "client": {3: done_vm, 4: {"kind": "vm", "proc": "divide", "pc": 6,
                                   "line": 7, "depth": 2}},
        "server": {5: done_vm},
    }
    info_block = {"call_id": 1, "remote_proc": "svc.echo", "client_node": 0,
                  "client_pid": 3, "state": "serving"}
    backtraces = {
        "client": {3: [], 4: [_vm_frame("divide", 6, 7, {"n": 6, "d": 0}),
                              _vm_frame("bad", 4, 11, {"k": 6})]},
        "server": {5: [{"proc": "__rpc_runtime", "module": "__runtime", "pc": 0,
                        "line": 0, "locals": {}, "synthetic": True,
                        "well_formed": True, "info_block": info_block}]},
    }

    dbg = Pilgrim(cluster, home="debugger")
    for node, rows in listings.items():
        dbg.connect(node)
        assert dbg._request(node, rq.LIST_PROCESSES) == rows
        for row in rows:
            pid = row["pid"]
            native = {"kind": "native", "label": row["name"]}
            expected_registers = {**registers[node].get(pid, native),
                                  "state": row["state"], "priority": row["priority"]}
            if row["waiting_on"] is not None:
                expected_registers["waiting_on"] = row["waiting_on"]
            assert dbg._request(node, rq.PROCESS_STATE, {"pid": pid}) == {
                **row, "registers": expected_registers, "trapped_at": None}
            assert dbg._request(node, rq.BACKTRACE, {"pid": pid}) == (
                backtraces[node].get(pid, _native_frames(row["name"])))
        finished = [process for process in cluster.node(node).supervisor.processes.values()
                    if not process.is_live()]
        assert finished and all(p.executor.process is None for p in finished)


def test_breakpoint_by_source_line_hits_and_resumes():
    cluster, image, proc, dbg = make_session()
    dbg.connect("app")
    # Line 16 is `i := i + 1` inside the loop.
    bp = dbg.set_breakpoint("app", "app", line=16)
    assert bp.func == "main"
    hit = dbg.wait_for_breakpoint()
    assert hit["proc"] == "main"
    assert hit["line"] == 16
    assert hit["node"] == 0
    # The whole node halted.
    agent = cluster.node("app").agent
    assert agent.halted
    # Resume; program continues and can hit the breakpoint again.
    dbg.resume("app")
    hit2 = dbg.wait_for_breakpoint()
    assert hit2["line"] == 16
    dbg.clear_breakpoint(bp)
    dbg.resume("app")
    dbg.disconnect()
    cluster.run(until=cluster.world.now + 5 * SEC)
    assert image.console  # program ran to completion
    assert image.console[0] == str(sum(3 * i for i in range(1, 1001)))


def test_backtrace_and_variables_at_breakpoint():
    cluster, image, proc, dbg = make_session()
    dbg.connect("app")
    dbg.set_breakpoint("app", "app", line=17)  # i := i + 1
    hit = dbg.wait_for_breakpoint()
    frames = dbg.backtrace("app", hit["pid"])
    assert frames[0]["proc"] == "main"
    assert frames[0]["line"] == 17
    # The program kept running while the debugger attached (this is a
    # target-environment debugger), so assert relationships, not absolutes.
    i_value = dbg.read_var("app", hit["pid"], "i")
    total = dbg.read_var("app", hit["pid"], "total")
    assert i_value >= 0
    assert total == sum(3 * k for k in range(1, i_value + 1))
    dbg.resume("app")
    hit = dbg.wait_for_breakpoint()
    assert dbg.read_var("app", hit["pid"], "i") == i_value + 1
    assert dbg.read_var("app", hit["pid"], "total") == total + 3 * (i_value + 1)


def test_write_variable_changes_computation():
    cluster, image, proc, dbg = make_session()
    dbg.connect("app")
    bp = dbg.set_breakpoint("app", "app", line=16)
    hit = dbg.wait_for_breakpoint()
    # Jump the loop forward: i := 998 means only two more iterations.
    dbg.write_var("app", hit["pid"], "i", 997)
    dbg.write_var("app", hit["pid"], "total", 0)
    dbg.clear_breakpoint(bp)
    dbg.resume("app")
    cluster.run(until=cluster.world.now + 60 * SEC)
    assert image.console == [str(3 * 998 + 3 * 999 + 3 * 1000)]


def test_single_step():
    cluster, image, proc, dbg = make_session()
    dbg.connect("app")
    dbg.set_breakpoint("app", "app", line=16)
    hit = dbg.wait_for_breakpoint()
    state = dbg.step("app", hit["pid"])
    regs = state["registers"]
    assert regs["proc"] == "main"
    # Still stopped; stepping again advances the pc.
    state2 = dbg.step("app", hit["pid"])
    assert state2["registers"]["pc"] != regs["pc"] or (
        state2["registers"]["line"] != regs["line"]
    )
    dbg.resume("app")


def test_display_uses_print_operation():
    cluster, image, proc, dbg = make_session()
    dbg.connect("app")
    dbg.set_breakpoint("app", "app", line=11)  # tick: return p.x + p.y
    hit = dbg.wait_for_breakpoint()
    n = dbg.read_var("app", hit["pid"], "n")
    text = dbg.display("app", hit["pid"], "p")
    assert text == f"({n}, {2 * n})"
    dbg.resume("app")


def test_invoke_procedure_with_output():
    cluster, image, proc, dbg = make_session()
    dbg.connect("app")
    result, output = dbg.invoke("app", "app", "tick", [5])
    assert result == 15
    assert output == []


def test_invoke_show_point_directly():
    cluster, image, proc, dbg = make_session()
    dbg.connect("app")
    result, _ = dbg.invoke(
        "app", "app", "show_point", [CluRecord("point", {"x": 7, "y": 9})]
    )
    assert result == "(7, 9)"


def test_halt_request_freezes_program():
    cluster, image, proc, dbg = make_session()
    dbg.connect("app")
    dbg.halt("app")
    agent = cluster.node("app").agent
    assert agent.halted
    # Nothing further happens while halted.
    before = dict(agent.node.supervisor.processes[proc.pid].registers())
    cluster.run_for(100 * MS)
    after = dict(agent.node.supervisor.processes[proc.pid].registers())
    assert before == after
    dbg.resume("app")
    cluster.run_for(100 * MS)


def test_failure_event_reported():
    source = """
proc main()
  sleep(5000)
  var x: int := 1 / 0
end
"""
    cluster, image, proc, dbg = make_session(source=source)
    dbg.connect("app")
    failure = dbg.wait_for_failure()
    assert "division by zero" in failure["error"]
    assert failure["name"] == "main"


def test_failures_recorded_before_connect():
    """Target-environment debugging: the program failed before any
    debugger was attached; a later connect reports it (paper §1)."""
    source = """
proc main()
  sleep(5000)
  var x: int := 1 / 0
end
"""
    cluster, image, proc, dbg = make_session(source=source)
    cluster.run_for(1 * SEC)  # program crashes unattended
    infos = dbg.connect("app")
    failures = infos[0]["failures"]
    assert len(failures) == 1
    assert "division by zero" in failures[0]["error"]


def test_agent_dormant_overhead_is_zero():
    """With no debugger connected the agent consumes no CPU after boot."""
    cluster, image, proc, dbg = make_session()
    cluster.run_for(50 * MS)
    agent_proc = cluster.node("app").agent.process
    assert agent_proc.state.value == "waiting"  # parked on its queue
    assert cluster.node("app").agent.requests_handled == 0


def test_read_global_and_write_global():
    source = """
var counter: int := 5
proc main()
  while true do
    sleep(10000)
    counter := counter + 0
  end
end
"""
    cluster, image, proc, dbg = make_session(source=source)
    dbg.connect("app")
    assert dbg.read_global("app", "app", "counter") == 5
    dbg.write_global("app", "app", "counter", 42)
    assert dbg.read_global("app", "app", "counter") == 42


def test_wake_process_from_semaphore_wait():
    source = """
proc main()
  var s: sem := semaphore(0)
  var got: bool := wait(s, 60000000)
  if got then
    print "signalled"
  else
    print "woken"
  end
end
"""
    cluster, image, proc, dbg = make_session(source=source)
    dbg.connect("app")
    cluster.run_for(50 * MS)  # main is now waiting
    procs = dbg.processes("app")
    pid = [p["pid"] for p in procs if p["name"] == "main"][0]
    assert dbg.wake_process("app", pid, value=False)
    cluster.run_for(50 * MS)
    assert image.console == ["woken"]


def test_bad_session_rejected():
    cluster, image, proc, dbg = make_session()
    dbg.connect("app")
    dbg.session_id = 9999  # simulate a stale/guessed session id
    with pytest.raises(AgentError, match="session"):
        dbg.processes("app")


SPIN = """
proc main()
  var i: int := 0
  while true do
    i := i + 1
  end
end
"""


def test_wake_process_on_a_running_process_returns_false():
    cluster, image, proc, dbg = make_session(source=SPIN)
    dbg.connect("app")
    cluster.run_for(5 * MS)
    assert dbg.process_state("app", proc.pid).state != "waiting"
    assert dbg.wake_process("app", proc.pid) is False


def test_a_missing_pid_gets_one_refusal_from_every_op():
    cluster, image, proc, dbg = make_session()
    dbg.connect("app")
    ops = {
        "backtrace": lambda: dbg.backtrace("app", 99),
        "process_state": lambda: dbg.process_state("app", 99),
        "read_var": lambda: dbg.read_var("app", 99, "total"),
        "display": lambda: dbg.display("app", 99, "total"),
        "wake_process": lambda: dbg.wake_process("app", 99),
    }
    for name, op in ops.items():
        with pytest.raises(AgentError) as refused:
            op()
        assert str(refused.value) == "no process 99", name


def test_a_connect_without_a_session_is_answered_and_the_agent_survives():
    cluster, image, proc, dbg = make_session()
    agent = cluster.node("app").agent
    with pytest.raises(AgentError, match="session"):
        dbg._request("app", rq.CONNECT, {"debugger": dbg.home.node_id})
    assert agent.process.is_live()
    assert dbg.connect("app")[0]["name"] == "app"
    assert dbg.processes("app")


@pytest.mark.parametrize("missing", ["reply_to", "seq"])
def test_a_request_with_nowhere_to_answer_is_dropped_and_the_agent_serves_on(missing):
    """A request packet without ``reply_to`` or ``seq`` cannot be answered:
    the agent drops it (handling nothing) and answers the next one."""
    cluster, image, proc, dbg = make_session()
    dbg.connect("app")
    agent = cluster.node("app").agent
    handled = agent.requests_handled
    request = {"kind": "request", "session": dbg.session_id, "seq": 999,
               "op": rq.LIST_PROCESSES, "args": {}, "reply_to": dbg.home.node_id}
    del request[missing]
    dbg.home.station.send(cluster.node("app").node_id, rq.AGENT_PORT, request,
                          kind="agent_request")
    cluster.world.run(until=cluster.world.now + 100 * MS)
    assert agent.process.is_live()
    assert agent.requests_handled == handled
    assert [p["pid"] for p in dbg.processes("app")]
    assert agent.requests_handled == handled + 1


@pytest.mark.parametrize("payload", [
    {"kind": "response", "node": 0, "ok": True, "data": []},
    ["kind", "response"],
    {"kind": "event", "node": 0, "data": {}},
], ids=["response_without_seq", "not_a_dict", "event_without_a_name"])
def test_a_malformed_packet_on_the_debuggers_port_is_dropped(payload):
    """A debuggee node's packet to the debugger's port that is neither a
    response with a ``seq`` nor an event envelope is dropped: the run
    goes on, no event is queued, and the session answers as before."""
    cluster, image, proc, dbg = make_session()
    dbg.connect("app")
    before = [p["pid"] for p in dbg.processes("app")]
    cluster.node("app").station.send(dbg.home.node_id, rq.DEBUGGER_PORT, payload,
                                     kind="agent_event")
    cluster.world.run(until=cluster.world.now + 100 * MS)
    assert dbg.events == []
    with pytest.raises(DebuggerError, match="no breakpoint event"):
        dbg.wait_for_event(rq.EVENT_BREAKPOINT, timeout=10 * MS)
    assert [p["pid"] for p in dbg.processes("app")] == before


@pytest.mark.parametrize("payload", [["kind", "request"], "request", 7, None],
                         ids=["list", "str", "int", "none"])
def test_a_payload_on_the_agents_port_that_is_not_a_dict_is_dropped(payload):
    """A packet to the agent's port whose payload is not a dict is
    dropped: the run goes on and the agent answers the next request."""
    cluster, image, proc, dbg = make_session()
    dbg.connect("app")
    agent = cluster.node("app").agent
    handled = agent.requests_handled
    dbg.home.station.send(cluster.node("app").node_id, rq.AGENT_PORT, payload,
                          kind="agent_request")
    cluster.world.run(until=cluster.world.now + 100 * MS)
    assert agent.process.is_live()
    assert agent.requests_handled == handled
    assert [p["pid"] for p in dbg.processes("app")]


@pytest.mark.parametrize("args", [[1], "x", 7], ids=["list", "str", "int"])
def test_args_that_is_not_an_object_gets_one_refusal_from_both_agents(args):
    """The simulated and the live agent refuse non-object ``args`` with
    one reason, before any op reads them."""
    cluster, image, proc, dbg = make_session()
    dbg.connect("app")
    with pytest.raises(AgentError) as simulated:
        dbg._request("app", rq.LIST_PROCESSES, args)
    assert cluster.node("app").agent.process.is_live()

    agent = LiveAgent()
    try:
        assert agent.handle_request({"op": "connect", "args": {"session": 7}})["ok"]
        live = agent.handle_request({"op": "list_threads", "args": args, "session": 7})
        assert agent.handle_request({"op": "disconnect", "session": 7})["ok"]
    finally:
        agent.shutdown()
    reason = f"args must be an object, not {type(args).__name__}"
    assert str(simulated.value) == reason
    assert live == {"ok": False, "error": reason}


def test_a_breakpoint_in_an_unknown_procedure_is_refused():
    """An unknown procedure is a refusal, answered as a pc out of range
    is, not an agent fault."""
    cluster, image, proc, dbg = make_session()
    dbg.connect("app")
    with pytest.raises(AgentError) as refused:
        dbg.set_breakpoint("app", "app", func="nope")
    assert str(refused.value) == "unknown procedure 'nope'"
    with pytest.raises(AgentError) as refused:
        dbg.set_breakpoint("app", "app", func="main", pc=10 ** 6)
    assert str(refused.value) == f"pc {10 ** 6} out of range"
    assert dbg.processes("app")
