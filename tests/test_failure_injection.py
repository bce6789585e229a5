"""Failure injection: crashes, lossy links, and session robustness."""

import pytest

from repro import MS, SEC, AgentError, Cluster, DebuggerError, Pilgrim
from repro.faults.shaper import NACK, FaultRule, LinkShaper
from repro.params import Params

SPIN = "proc main()\n  while true do\n    sleep(5000)\n  end\nend"

TWO_WORKERS = """
proc worker(n: int)
  var i: int := 0
  while true do
    i := i + 1
    sleep(4000)
  end
end
proc main()
  spawn worker(1)
  spawn worker(2)
  sleep(1000000000)
end
"""


def test_debugger_request_to_crashed_node_times_out():
    cluster = Cluster(names=["app", "debugger"])
    image = cluster.load_program(SPIN, "app")
    cluster.spawn_vm("app", image, "main")
    dbg = Pilgrim(cluster, home="debugger")
    dbg.connect("app")
    cluster.node("app").crash()
    with pytest.raises(DebuggerError):
        dbg.processes("app")


def test_halt_broadcast_survives_crashed_peer():
    """A dead peer must not wedge the halt broadcast (bounded NACK
    retries, then the node is presumed crashed)."""
    cluster = Cluster(names=["a", "b", "c", "debugger"])
    for name in ("a", "b", "c"):
        image = cluster.load_program(SPIN, name)
        cluster.spawn_vm(name, image, "main")
    dbg = Pilgrim(cluster, home="debugger")
    dbg.connect("a", "b", "c")
    cluster.node("b").crash()
    dbg.halt("a")
    cluster.run_for(50 * MS)
    assert cluster.node("a").agent.halted
    assert cluster.node("c").agent.halted  # broadcast got past the corpse
    dbg.resume("a")
    cluster.run_for(50 * MS)
    assert not cluster.node("c").agent.halted


def test_halt_broadcast_retransmits_through_interface_nacks():
    cluster = Cluster(names=["a", "b", "debugger"], seed=5)
    for name in ("a", "b"):
        image = cluster.load_program(SPIN, name)
        cluster.spawn_vm(name, image, "main")
    dbg = Pilgrim(cluster, home="debugger")
    dbg.connect("a", "b")
    # Node b's interface rejects everything at first; the hardware NACK
    # drives the agent's retransmissions (paper §5.2) until it recovers.
    b_id = cluster.node("b").node_id
    shaper = LinkShaper(cluster.net)
    nack_b = shaper.add_rule(
        FaultRule(NACK, match=lambda packet: packet.dst == b_id)
    )
    dbg.halt("a")
    assert not cluster.node("b").agent.halted  # peer unreachable so far
    shaper.remove_rule(nack_b)
    cluster.run_for(100 * MS)
    assert cluster.node("b").agent.halted
    assert cluster.node("a").agent.halt_messages_sent > 1
    dbg.resume("a")


def test_disconnect_while_halted_resumes_program():
    cluster = Cluster(names=["app", "debugger"])
    image = cluster.load_program(SPIN, "app")
    proc = cluster.spawn_vm("app", image, "main")
    dbg = Pilgrim(cluster, home="debugger")
    dbg.connect("app")
    dbg.halt("app")
    assert cluster.node("app").agent.halted
    dbg.disconnect()
    assert not cluster.node("app").agent.halted
    # The logical clock snapped back to real time (paper §5.2).
    assert cluster.node("app").clock.delta == 0
    cluster.run_for(50 * MS)
    assert proc.is_live()


def test_forcible_connect_while_halted_cleans_up():
    cluster = Cluster(names=["app", "debugger"])
    image = cluster.load_program(SPIN, "app")
    cluster.spawn_vm("app", image, "main")
    dbg1 = Pilgrim(cluster, home="debugger")
    dbg1.connect("app")
    bp = dbg1.set_breakpoint("app", "app", line=3)
    dbg1.wait_for_breakpoint()
    agent = cluster.node("app").agent
    assert agent.halted and agent.breakpoints

    dbg2 = Pilgrim(cluster, home="debugger")
    dbg2.connect("app", force=True)
    # Original session abandoned: breakpoints cleared, node resumed.
    assert agent.session_id == dbg2.session_id
    assert agent.breakpoints == {}
    assert not agent.halted
    # The program runs untrapped now.
    cluster.run_for(100 * MS)
    assert not agent.halted


def test_two_processes_trapped_then_continue_resumes_both():
    cluster = Cluster(names=["app", "debugger"])
    image = cluster.load_program(TWO_WORKERS, "app")
    cluster.spawn_vm("app", image, "main")
    dbg = Pilgrim(cluster, home="debugger")
    dbg.connect("app")
    bp = dbg.set_breakpoint("app", "app", line=5)  # i := i + 1 in worker
    first = dbg.wait_for_breakpoint()
    agent = cluster.node("app").agent
    # One worker trapped; the other was halted before reaching the trap.
    assert len(agent.trapped) == 1
    i_before = dbg.read_var("app", first["pid"], "i")
    dbg.clear_breakpoint(bp)
    dbg.resume("app")
    cluster.run_for(100 * MS)
    # Both workers are making progress again.
    workers = [p for p in dbg.processes("app") if p["name"] == "worker"]
    assert all(w["state"] in ("ready", "waiting", "running") for w in workers)
    dbg.halt("app")
    i_after = dbg.read_var("app", first["pid"], "i")
    assert i_after > i_before
    dbg.resume("app")


def test_invoke_failure_reports_agent_error():
    source = """
proc boom() returns int
  return 1 / 0
end
proc main()
  sleep(1000000000)
end
"""
    cluster = Cluster(names=["app", "debugger"])
    image = cluster.load_program(source, "app")
    cluster.spawn_vm("app", image, "main")
    dbg = Pilgrim(cluster, home="debugger")
    dbg.connect("app")
    with pytest.raises(AgentError, match="invocation failed"):
        dbg.invoke("app", "app", "boom", [])


def test_display_of_opaque_value_falls_back():
    source = """
proc main()
  var s: sem := semaphore(0)
  var got: bool := wait(s, 1000000000)
end
"""
    cluster = Cluster(names=["app", "debugger"])
    image = cluster.load_program(source, "app")
    cluster.spawn_vm("app", image, "main")
    dbg = Pilgrim(cluster, home="debugger")
    dbg.connect("app")
    cluster.run_for(20 * MS)
    pid = next(p["pid"] for p in dbg.processes("app") if p["name"] == "main")
    text = dbg.display("app", pid, "s")
    assert "sem" in text.lower() or "Semaphore" in text
    value = dbg.read_var("app", pid, "s")
    assert "sem" in str(value).lower()


def test_lossy_ring_exactly_once_program_still_completes():
    cluster = Cluster(
        names=["client", "server", "debugger"],
        seed=11,
        params=Params(packet_loss_probability=0.25),
    )
    server_image = cluster.load_program(
        "proc inc(x: int) returns int\n  return x + 1\nend", "server"
    )
    cluster.rpc("server").export_vm("svc", server_image, {"inc": "inc"})
    client_image = cluster.load_program(
        """
proc main()
  var total: int := 0
  for i := 1 to 10 do
    var r: int := remote svc.inc(i)
    if failed(r) then
      total := total - 1000
    else
      total := total + r
    end
  end
  print total
end
""",
        "client",
    )
    cluster.spawn_vm("client", client_image, "main")
    cluster.run(until=60 * SEC)
    # sum(i+1 for i in 1..10) = 65; exactly-once rides out the loss.
    assert client_image.console == ["65"]


def test_breakpoint_in_program_with_steady_rpc_traffic():
    """Halting a node with calls in flight must not corrupt the protocol:
    after resume, all calls still complete exactly once."""
    cluster = Cluster(names=["client", "server", "debugger"])
    server_image = cluster.load_program(
        "proc echo(x: int) returns int\n  return x\nend", "server"
    )
    cluster.rpc("server").export_vm("svc", server_image, {"echo": "echo"})
    client_image = cluster.load_program(
        """
var acc: int := 0
proc main()
  for i := 1 to 30 do
    var r: int := remote svc.echo(i)
    acc := acc + r
  end
  print acc
end
""",
        "client",
    )
    cluster.spawn_vm("client", client_image, "main")
    dbg = Pilgrim(cluster, home="debugger")
    dbg.connect("client", "server")
    for _ in range(3):
        cluster.run_for(40 * MS)
        dbg.halt("client")
        dbg.run_for(150 * MS)
        dbg.resume("client")
    dbg.disconnect()
    cluster.run(until=cluster.world.now + 10 * SEC)
    assert client_image.console == [str(sum(range(1, 31)))]


def test_failure_event_halts_other_processes_for_inspection():
    source = """
proc crasher()
  sleep(20000)
  var x: int := 1 / 0
end
proc main()
  spawn crasher()
  var i: int := 0
  while true do
    i := i + 1
    sleep(1000)
  end
end
"""
    cluster = Cluster(names=["app", "debugger"])
    image = cluster.load_program(source, "app")
    cluster.spawn_vm("app", image, "main")
    dbg = Pilgrim(cluster, home="debugger")
    dbg.connect("app")
    failure = dbg.wait_for_failure()
    assert failure["name"] == "crasher"
    # The whole node halted so the state at failure can be examined.
    assert cluster.node("app").agent.halted
    main_pid = next(p["pid"] for p in dbg.processes("app") if p["name"] == "main")
    i_at_failure = dbg.read_var("app", main_pid, "i")
    cluster.run_for(200 * MS)
    assert dbg.read_var("app", main_pid, "i") == i_at_failure  # frozen
    dbg.resume("app")
