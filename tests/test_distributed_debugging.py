"""Integration tests for the distributed features: cross-node halting,
time consistency, cross-node backtraces, and the Figure 2 race."""

from repro import MS, SEC, Cluster, Pilgrim
from repro.faults.shaper import LOSS, FaultRule, LinkShaper
from repro.mayflower.syscalls import Cpu, Wait
from repro.params import Params
from repro.sim.units import US

SERVER_SRC = """
proc double(a: int) returns int
  sleep(30000)
  return a * 2
end
"""

CLIENT_SRC = """
proc compute(n: int) returns int
  var r: int := remote worksvc.double(n)
  return r
end
proc main()
  var i: int := 0
  while i < 10000 do
    i := i + 1
    var r: int := compute(i)
    print r
  end
end
"""


def make_two_node_session(seed=0, **params):
    cluster = Cluster(
        names=["client", "server", "debugger"], seed=seed, params=Params(**params)
    )
    server_program = cluster.load_program(SERVER_SRC, "server")
    cluster.rpc("server").export_vm("worksvc", server_program, {"double": "double"})
    client_image = cluster.load_program(CLIENT_SRC, "client")
    cluster.spawn_vm("client", client_image, "main")
    dbg = Pilgrim(cluster, home="debugger")
    return cluster, client_image, dbg


def test_breakpoint_halts_remote_node_too():
    cluster, image, dbg = make_two_node_session()
    dbg.connect("client", "server")
    dbg.set_breakpoint("client", "client", line=4)  # inside compute, after rcall
    dbg.wait_for_breakpoint()
    assert cluster.node("client").agent.halted
    # The halt broadcast reached the server's agent (one Basic Block later).
    cluster.run_for(5 * MS)
    assert cluster.node("server").agent.halted
    dbg.resume("client")
    cluster.run_for(5 * MS)
    assert not cluster.node("client").agent.halted
    assert not cluster.node("server").agent.halted


def test_logical_clocks_agree_after_breakpoints():
    """Paper §6.1: logical times at each node of a debugged program should
    be almost the same, and the debugger's breakpoint log should sum to
    almost the same interruption total."""
    cluster, image, dbg = make_two_node_session()
    dbg.connect("client", "server")
    bp = dbg.set_breakpoint("client", "client", line=3)
    for _ in range(3):
        dbg.wait_for_breakpoint()
        dbg.run_for(50 * MS)  # linger at the breakpoint
        dbg.resume("client")
    dbg.clear_breakpoint(bp)
    cluster.run_for(20 * MS)
    clock_client = cluster.node("client").clock
    clock_server = cluster.node("server").clock
    tolerance = cluster.params.clock_tolerance
    assert clock_client.delta > 100 * MS  # three ~50ms pauses accumulated
    assert abs(clock_client.delta - clock_server.delta) < 2 * tolerance
    assert abs(dbg.total_interruption() - clock_client.delta) < 3 * tolerance
    # Logical clocks of both nodes agree.
    assert abs(clock_client.logical_now() - clock_server.logical_now()) < tolerance


def test_cross_node_backtrace_follows_rpc():
    cluster, image, dbg = make_two_node_session()
    dbg.connect("client", "server")
    # Break inside the *server* procedure while a client call is live.
    dbg.set_breakpoint("server", "server", line=3)  # return a * 2
    hit = dbg.wait_for_breakpoint()
    assert hit["node"] == cluster.node("server").node_id
    # Find the client process making the call.
    procs = dbg.processes("client")
    main_pid = [p["pid"] for p in procs if p["name"] == "main"][0]
    trace = dbg.distributed_backtrace("client", main_pid)
    kinds = [(f["node"], f["proc"]) for f in trace]
    # Client frames: rpc runtime frame on top of compute/main; then the
    # server worker's frames.
    assert (0, "__rpc_runtime") in kinds
    assert (0, "compute") in kinds
    assert (0, "main") in kinds
    assert (1, "double") in kinds
    # The server-side bottom frame carries the call id linking back.
    client_info = [f for f in trace if f["node"] == 0 and f.get("info_block")][0]
    server_info = [f for f in trace if f["node"] == 1 and f.get("info_block")][-1]
    assert client_info["info_block"]["call_id"] == server_info["info_block"]["call_id"]
    dbg.resume("server")


def test_rpc_info_during_call():
    cluster, image, dbg = make_two_node_session()
    dbg.connect("client", "server")
    dbg.set_breakpoint("server", "server", line=3)
    dbg.wait_for_breakpoint()
    info = dbg.rpc_info("client")
    assert len(info["in_progress"]) == 1
    call = info["in_progress"][0]
    assert call["proc"] == "double"
    assert call["state"] in ("call_sent", "retransmitting")
    server_info = dbg.rpc_info("server")
    assert len(server_info["serving"]) == 1
    dbg.resume("server")


# ----------------------------------------------------------------------
# The Figure 2 race: semaphore timeout observed across nodes
# ----------------------------------------------------------------------

FIG2_NODE_B = """
var s: sem
var outcome: string := "pending"
proc setup()
  s := semaphore(0)
end
proc poke() returns bool
  signal(s)
  return true
end
proc q()
  var got: bool := wait(s, 10000000)
  if got then
    outcome := "signalled"
  else
    outcome := "timed_out"
  end
end
"""

FIG2_NODE_A = """
proc main()
  sleep(2000000)
  var r: bool := remote bsvc.poke()
end
"""


def run_fig2(halt_remote: bool, linger: int, seed=0):
    """Figure 2: Q on node B waits on s with a 10 s timeout; P on node A
    calls a remote procedure that signals s after 2 s.  A breakpoint on
    node A around t=1s pauses the program for ``linger``.  If node B is
    *not* halted too, Q's wait can time out because P was held up —
    Q "sees" that P has halted: an atypical computation.
    """
    cluster = Cluster(names=["a", "b", "debugger"], seed=seed)
    image_b = cluster.load_program(FIG2_NODE_B, "b")
    cluster.rpc("b").export_vm("bsvc", image_b, {"poke": "poke"})
    image_a = cluster.load_program(FIG2_NODE_A, "a")

    # Boot node B: create the semaphore, start Q.
    cluster.spawn_vm("b", image_b, "setup")
    cluster.run_for(1 * MS)
    cluster.spawn_vm("b", image_b, "q")
    cluster.spawn_vm("a", image_a, "main")

    dbg = Pilgrim(cluster, home="debugger")
    if halt_remote:
        dbg.connect("a", "b")
    else:
        dbg.connect("a")  # node B is not under the debugger's control
    cluster.run_for(1 * SEC)
    dbg.halt("a")
    dbg.run_for(linger)
    dbg.resume("a")
    cluster.run(until=cluster.world.now + 30 * SEC)
    return image_b.globals["outcome"]


def test_fig2_with_distributed_halt_q_is_signalled():
    # Pause 15 s (longer than Q's whole timeout): with node B halted too,
    # Q's timeout is frozen and the computation is unaffected.
    assert run_fig2(halt_remote=True, linger=15 * SEC) == "signalled"


def test_fig2_without_remote_halt_q_times_out():
    # Same pause but node B keeps running: Q observes P's halt.
    assert run_fig2(halt_remote=False, linger=15 * SEC) == "timed_out"


def test_fig2_short_pause_harmless_either_way():
    assert run_fig2(halt_remote=True, linger=50 * MS) == "signalled"
    assert run_fig2(halt_remote=False, linger=50 * MS) == "signalled"


# ----------------------------------------------------------------------
# Halt broadcast timing (paper §5.2 arithmetic)
# ----------------------------------------------------------------------

def test_halt_broadcast_is_serial_and_timed():
    """Peers are halted at ~k * 3.5 ms after the breakpoint (no data-link
    broadcast on the ring), so only two nodes fit inside the 8 ms minimum
    RPC latency — the paper's 'confident of contacting only two nodes'."""
    names = [f"n{i}" for i in range(5)] + ["debugger"]
    cluster = Cluster(names=names, seed=0)
    spin = "proc main()\n  while true do\n    sleep(1000)\n  end\nend"
    images = [cluster.load_program(spin, f"n{i}") for i in range(5)]
    for i in range(5):
        cluster.spawn_vm(f"n{i}", images[i], "main")
    dbg = Pilgrim(cluster, home="debugger")
    dbg.connect(*[f"n{i}" for i in range(5)])

    halt_times = {}
    world = cluster.world

    # Send the halt request raw (not via the synchronous helper) so we can
    # observe the instant each node halts, including n0 itself.
    dbg.home.station.send(
        0,
        "agent",
        {
            "kind": "request",
            "session": dbg.session_id,
            "seq": 999_999,
            "op": "halt",
            "args": {},
            "reply_to": dbg.home.node_id,
        },
        kind="agent_request",
    )
    deadline = world.now + 60 * MS
    while len(halt_times) < 5 and world.now < deadline:
        world.run(until=world.now + 100 * US)
        for i in range(5):
            if i not in halt_times and cluster.node(f"n{i}").agent.halted:
                halt_times[i] = world.now
    assert len(halt_times) == 5
    t0 = halt_times[0]
    offsets = sorted(t - t0 for i, t in halt_times.items() if i != 0)
    bb = cluster.params.basic_block_latency
    # Serial sends: k-th peer halted no earlier than k * 3.5ms.
    for k, offset in enumerate(offsets, start=1):
        assert offset >= k * bb - 200 * US
        assert offset <= k * bb + 3 * MS
    # Only two peers were reachable inside the minimum RPC latency (8 ms).
    rpc_min = 8 * MS
    reachable = sum(1 for offset in offsets if offset <= rpc_min)
    assert reachable == 2


# ----------------------------------------------------------------------
# A halted session's recording (cross-commit fence)
# ----------------------------------------------------------------------

HALTED_SERVER = """
proc add(a: int, b: int) returns int
  var s: int := a + b
  return s
end
"""

HALTED_CLIENT = """
proc main()
  var total: int := 0
  for i := 1 to 40 do
    var a: int := remote calc.add(i, 1)
    var b: int := remote maybe calc.add(i, 2)
    if failed(a) then
      total := total - 100
    else
      total := total + a
    end
    if failed(b) then
      total := total - 1
    else
      total := total + b
    end
    sleep(3000)
  end
  print total
end
"""

#: The footer fingerprint of :func:`record_halted_session`: a change to
#: what a halt records, or to when a frozen timeout fires, moves it.
HALTED_SESSION_FINGERPRINT = (
    "6bd95d9c5ce694d10585406a16b3b2954dcd645eafe0b8cbe2285be1b16446a9"
)


def _timed_waiter(node):
    idle = node.semaphore(name="idle")
    while True:
        yield Wait(idle, timeout=25 * MS)
        yield Cpu(50)


def record_halted_session():
    """A recorded session that halts: a server breakpoint hit three times
    with once and maybe calls in flight, then a debugger halt and resume
    of the client while a retransmission (its call packet lost) is part
    way through its interval; a native process on each node sits in a
    timed semaphore wait throughout."""
    cluster = Cluster(names=["client", "server", "debugger"], seed=3)
    server = cluster.load_program(HALTED_SERVER, "server")
    cluster.rpc("server").export_vm("calc", server, {"add": "add"})
    client = cluster.load_program(HALTED_CLIENT, "client")
    for name in ("client", "server"):
        node = cluster.node(name)
        node.spawn(_timed_waiter(node), name="timed_waiter")
    lose_next = []

    def lose_next_call(packet):
        if lose_next and packet.kind == "rpc_call" and packet.payload["retry"] == 0:
            lose_next.clear()
            return True
        return False

    LinkShaper(cluster.net).add_rule(FaultRule(LOSS, match=lose_next_call))
    cluster.spawn_vm("client", client, "main")
    dbg = Pilgrim(cluster, home="debugger")
    dbg.connect("client", "server")
    dbg.start_recording()
    bp = dbg.set_breakpoint("server", "server", line=3)
    for _ in range(3):
        dbg.wait_for_breakpoint()
        dbg.run_for(7 * MS)
        dbg.resume("server")
    dbg.clear_breakpoint(bp)
    dbg.run_for(20 * MS)
    lose_next.append(True)
    dbg.run_for(30 * MS)
    dbg.halt("client")
    dbg.run_for(120 * MS)
    dbg.resume("client")
    dbg.run_for(300 * MS)
    return dbg.stop_recording()


def test_a_halted_session_records_byte_identically():
    """No golden trace halts, so this session pins what a halt records:
    clock, protocol timers (``TimerFrozen``) and processes
    (``ProcessHalted``) in that order, and every frozen timeout resumed
    with the time it had left."""
    trace = record_halted_session()
    tally = trace.events.tally()
    assert tally["BreakpointHit"] == 3
    assert tally["TimerFrozen"] == tally["TimerThawed"] == 8
    assert tally["ProcessHalted"] == 22
    assert "RpcCallFailed" not in tally
    client = {name: [event for event in trace.events
                     if event.type == name and event.node == 0]
              for name in ("TimerFrozen", "TimerThawed", "RpcCallRetried")}
    assert [event.fields["count"] for event in client["TimerFrozen"]] == [1] * 4
    # The lost call's retransmission was frozen part way through its
    # interval and sent less than an interval after the resume.
    (dropped,) = [event for event in trace.events if event.type == "PacketDropped"]
    (retried,) = client["RpcCallRetried"]
    froze, thawed = client["TimerFrozen"][-1].time, client["TimerThawed"][-1].time
    assert dropped.time < froze < thawed < retried.time
    assert retried.time - thawed < Params().rpc_retransmit_interval
    assert trace.footer["fingerprint"] == HALTED_SESSION_FINGERPRINT
