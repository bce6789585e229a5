"""E9 — agent request costs (paper §3).

Paper: "The dominant cost in most of the functions provided by the agent
is the round-trip delay in communicating with the debugger.  Expressing
each logical request from the debugger as a single network interaction
improves the overall performance."

Reproduced shape: every logical debugger request costs exactly one
request packet and one response packet (2 Basic Blocks ≈ 7 ms floor), and
measured latencies sit just above that floor.
"""

from repro import Cluster, Pilgrim
from repro.obs import events as ev
from benchmarks.common import print_table

AGENT_KINDS = ("agent_request", "agent_reply")

PROGRAM = """record point
  x: int
  y: int
end
printop point show
proc show(p: point) returns string
  return itoa(p.x)
end
proc work(n: int) returns int
  var p: point := point{x: n, y: n}
  sleep(2000)
  return n
end
proc main()
  var i: int := 0
  while true do
    i := i + 1
    var r: int := work(i)
  end
end
"""


def run_experiment() -> list[list]:
    cluster = Cluster(names=["app", "debugger"], seed=0)
    image = cluster.load_program(PROGRAM, "app")
    cluster.spawn_vm("app", image, "main")
    dbg = Pilgrim(cluster, home="debugger")
    agent_packets = []
    cluster.world.bus.subscribe(
        ev.PacketSent,
        lambda e: e.packet.kind in AGENT_KINDS and agent_packets.append(e.packet),
    )
    dbg.connect("app")
    bp = dbg.set_breakpoint("app", "app", line=11)  # inside work
    hit = dbg.wait_for_breakpoint()
    pid = hit["pid"]
    world = cluster.world

    def timed(label, fn):
        before_packets = len(agent_packets)
        start = world.now
        fn()
        latency = world.now - start
        return [label, f"{latency / 1000:.2f}ms", len(agent_packets) - before_packets]

    rows = [
        timed("list_processes", lambda: dbg.processes("app")),
        timed("process_state", lambda: dbg.process_state("app", pid)),
        timed("backtrace", lambda: dbg.backtrace("app", pid)),
        timed("read_var", lambda: dbg.read_var("app", pid, "n")),
        timed("write_var", lambda: dbg.write_var("app", pid, "n", 5)),
        timed("display (print op)", lambda: dbg.display("app", pid, "p")),
        timed("set_breakpoint",
              lambda: dbg.set_breakpoint("app", "app", func="work", pc=0)),
        timed("rpc_info", lambda: dbg.rpc_info("app")),
        timed("single step", lambda: dbg.step("app", pid)),
    ]
    dbg.resume("app")
    return rows


def test_e9_agent_costs(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table(
        "E9: agent request costs (paper: one network interaction per "
        "logical request; round trip dominates)",
        ["request", "round-trip latency", "packets on the ring"],
        rows,
    )
    floor_ms = 7.0  # two Basic Blocks
    for label, latency, packets in rows:
        latency_ms = float(latency.rstrip("ms"))
        # One request + one response — a single network interaction.
        assert packets == 2, f"{label} used {packets} packets"
        assert latency_ms >= floor_ms - 0.1
        # The round trip dominates: handling adds well under one more BB.
        assert latency_ms <= floor_ms + 3.0, f"{label} took {latency}"
