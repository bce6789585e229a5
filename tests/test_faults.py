"""The fault layer: nemesis schedules, link shaping, reboot, recovery."""

import pytest

from repro import (
    MS,
    SEC,
    AgentError,
    Cluster,
    FaultPlan,
    Nemesis,
    Pilgrim,
    UnreachableNodeError,
)
from repro.replay import TraceWriter

SPIN = "proc main()\n  while true do\n    sleep(5000)\n  end\nend"

ECHO_SERVER = "proc echo(x: int) returns int\n  return x\nend"

ONE_CALL_CLIENT = """
proc main()
  var r: int := remote svc.echo(7)
  if failed(r) then
    print "failed"
  else
    print r
  end
end
"""


# ----------------------------------------------------------------------
# Crash residue (the precondition for clean reboot)
# ----------------------------------------------------------------------


def test_crash_leaves_no_node_residue():
    cluster = Cluster(names=["app", "debugger"])
    image = cluster.load_program(SPIN, "app")
    cluster.spawn_vm("app", image, "main")
    cluster.run_for(20 * MS)
    node = cluster.node("app")
    node.crash()
    # Every pending node-tagged event is cancelled, except in-flight ring
    # deliveries (which live on the wire and resolve as drops).
    handles = cluster.world.kernel.node_handles(node.node_id)
    assert all(h.cancelled or h.survives_crash for h in handles)
    assert node.station._ports == {}
    assert node.station.tx_free_at == 0
    # The corpse stays silent.
    cluster.run_for(200 * MS)
    assert not any(p.is_live() for p in node.supervisor.processes.values())


def test_lazy_crash_compaction_is_behavior_identical():
    """cancel_node_events compacts lazily (cancelled entries may linger
    in the index heaps); the observable scheduling state — window_for,
    peek_next_time — must exactly match a naive recomputation over the
    live events, before and after further queue churn."""
    from repro.sim.units import FOREVER
    from repro.sim.world import World

    def naive_window(world, node, lookahead):
        live = [h for h in world.kernel.iter_handles() if not h.cancelled]
        own = min((h.time for h in live if h.node == node), default=FOREVER)
        glob = min((h.time for h in live if h.node is None), default=FOREVER)
        window = min(own, glob)
        if live:
            window = min(window, min(h.time for h in live) + lookahead)
        return window

    world = World(seed=0)
    nothing = lambda: None
    for t in range(10, 100, 10):
        world.schedule_at(t, nothing, node=0)
        world.schedule_at(t + 1, nothing, node=1)
    world.schedule_at(55, nothing)  # global
    survivor = world.schedule_at(70, nothing, node=1, survives_crash=True)

    cancelled = world.cancel_node_events(1)
    assert cancelled == 9  # every node-1 event except the survivor
    assert not survivor.cancelled
    # Window/peek agree with the naive fold over live events only.
    for node in (0, 1, 2):
        assert world.window_for(node, 3_500) == naive_window(world, node, 3_500)
    assert world.peek_next_time() == 10
    # The survivor still bounds node 1's own window.
    assert world.window_for(1, FOREVER) == min(55, 70)
    # Churn the queue: caches must invalidate, identity must hold.
    world.schedule_at(5, nothing, node=2)
    for node in (0, 1, 2):
        assert world.window_for(node, 3_500) == naive_window(world, node, 3_500)
    assert world.peek_next_time() == 5
    # A second crash drops the survivor's heap entirely once it fires.
    survivor.cancel()
    assert world.cancel_node_events(1) == 0
    assert not world.kernel.has_node_index(1)


def test_crash_then_reboot_via_nemesis_counts_in_metrics():
    cluster = Cluster(names=["app", "debugger"])
    image = cluster.load_program(SPIN, "app")
    cluster.spawn_vm("app", image, "main")
    plan = FaultPlan().crash(at=30 * MS, node="app").reboot(at=80 * MS, node="app")
    nemesis = Nemesis(cluster, plan)
    cluster.run_for(200 * MS)
    assert nemesis.faults_fired == 2
    node = cluster.node("app")
    assert node.epoch == 1
    metrics = cluster.world.metrics
    assert metrics.labeled("node.reboots").get(node.node_id) == 1
    assert metrics.counter("faults.injected").value == 1  # the crash


# ----------------------------------------------------------------------
# Reboot semantics
# ----------------------------------------------------------------------


def test_reboot_rebuilds_node_and_reregisters_services():
    cluster = Cluster(names=["client", "server", "debugger"])
    server_image = cluster.load_program(ECHO_SERVER, "server")
    cluster.rpc("server").export_vm("svc", server_image, {"echo": "echo"})
    client_image = cluster.load_program(ONE_CALL_CLIENT, "client")
    cluster.spawn_vm("client", client_image, "main")
    cluster.run(until=2 * SEC)
    assert client_image.console == ["7"]

    server = cluster.node("server")
    old_rpc = server.rpc
    old_supervisor = server.supervisor
    old_skew = server.clock.skew
    server.crash()
    epoch = server.reboot()

    assert epoch == 1 and server.epoch == 1 and not server.crashed
    assert server.supervisor is not old_supervisor
    assert server.rpc is not None and server.rpc is not old_rpc
    # Exported services carried over and re-registered identically.
    assert "svc" in server.rpc._services
    assert cluster.registry.lookup("svc") == server.node_id
    # Logical-clock state reset (delta gone, configured skew kept).
    assert server.clock.delta == 0 and server.clock.skew == old_skew
    # The fresh boot serves calls again.
    cluster.spawn_vm("client", client_image, "main")
    cluster.run(until=cluster.world.now + 2 * SEC)
    assert client_image.console == ["7", "7"]


def test_stale_retransmit_rejected_after_server_reboot():
    """Exactly-once must not double-execute across a reboot: the dedup
    table dies with the crash, so a pre-reboot retransmit is refused and
    the client sees a failure (at-most-once degradation)."""
    cluster = Cluster(names=["client", "server", "debugger"])
    executed = []

    def slow_echo(ctx, x):
        executed.append(x)
        from repro.mayflower.syscalls import Cpu
        yield Cpu(100 * MS)  # long enough to die mid-execution
        return x

    cluster.rpc("server").export_native("svc", {"echo": slow_echo})
    client_image = cluster.load_program(ONE_CALL_CLIENT, "client")
    cluster.spawn_vm("client", client_image, "main")
    plan = (FaultPlan()
            .crash(at=50 * MS, node="server")
            .reboot(at=130 * MS, node="server"))
    Nemesis(cluster, plan)
    cluster.run(until=3 * SEC)

    assert client_image.console == ["failed"]
    assert executed == [7]  # executed at most once, never replayed
    assert cluster.world.metrics.counter("rpc.stale_rejected").value >= 1


# ----------------------------------------------------------------------
# Partition / heal
# ----------------------------------------------------------------------


def test_partition_nacks_then_heal_completes_exactly_once():
    cluster = Cluster(names=["client", "server", "debugger"])
    executed = []

    def echo(ctx, x):
        executed.append(x)
        return x

    cluster.rpc("server").export_native("svc", {"echo": echo})
    client_image = cluster.load_program(ONE_CALL_CLIENT, "client")
    cluster.spawn_vm("client", client_image, "main")
    client_id = cluster.node("client").node_id
    server_id = cluster.node("server").node_id
    # Cut client|server from t=1ms for 150 ms: well inside the
    # exactly-once retransmission budget (8 x 40 ms).
    plan = FaultPlan().partition(
        at=1 * MS, groups=[[client_id], [server_id]], duration=150 * MS
    )
    Nemesis(cluster, plan)
    cluster.run(until=3 * SEC)

    assert client_image.console == ["7"]
    assert executed == [7]
    # The cut was hardware-visible: transmissions into it were NACKed.
    assert cluster.net.total_nacked > 0
    assert cluster.world.metrics.counter("faults.injected").value == 1
    assert cluster.world.metrics.counter("faults.healed").value == 1


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------


def _chaos_run(seed: int):
    cluster = Cluster(names=["client", "server", "debugger"], seed=seed)
    writer = TraceWriter(cluster)
    server_image = cluster.load_program(ECHO_SERVER, "server")
    cluster.rpc("server").export_vm("svc", server_image, {"echo": "echo"})
    client_image = cluster.load_program(
        """
proc main()
  var total: int := 0
  for i := 1 to 12 do
    var r: int := remote svc.echo(i)
    if failed(r) then
      total := total - 100
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
    client_id = cluster.node("client").node_id
    server_id = cluster.node("server").node_id
    plan = (FaultPlan()
            .crash(at=60 * MS, node="server")
            .reboot(at=200 * MS, node="server")
            .partition(at=250 * MS, groups=[[client_id], [server_id]],
                       duration=100 * MS)
            .delay(at=360 * MS, duration=400 * MS, extra=5 * MS, jitter=2 * MS)
            .duplicate(at=360 * MS, duration=400 * MS, probability=0.5))
    Nemesis(cluster, plan)
    cluster.run(until=4 * SEC)
    return writer.finish().lines(), list(client_image.console)


def test_seeded_nemesis_runs_are_byte_identical():
    lines_a, console_a = _chaos_run(seed=42)
    lines_b, console_b = _chaos_run(seed=42)
    assert console_a == console_b
    assert lines_a == lines_b


def test_different_seeds_diverge():
    lines_a, _ = _chaos_run(seed=42)
    lines_b, _ = _chaos_run(seed=43)
    # Jitter and probabilistic duplication draw from world.rng, so a
    # different seed must perturb the stream.
    assert lines_a != lines_b


# ----------------------------------------------------------------------
# Plan serialization (traces embed the plan in their header)
# ----------------------------------------------------------------------


def test_fault_plan_dict_round_trip():
    plan = (FaultPlan()
            .crash(at=60 * MS, node="server")
            .reboot(at=200 * MS, node="server")
            .partition(at=250 * MS, groups=[[0], [1, 2]], duration=100 * MS)
            .delay(at=360 * MS, duration=400 * MS, extra=5 * MS, jitter=2 * MS)
            .duplicate(at=360 * MS, duration=400 * MS, probability=0.5)
            .loss(at=500 * MS, duration=50 * MS, src=0, dst=1, probability=0.25))
    data = plan.to_dict()
    restored = FaultPlan.from_dict(data)
    assert restored.actions == plan.actions
    # Stable through JSON (what the trace file actually stores).
    import json
    assert FaultPlan.from_dict(json.loads(json.dumps(data))).actions == plan.actions


def test_fault_plan_from_dict_defaults():
    data = {"actions": [{"at": 10, "kind": "crash", "node": "app"}]}
    action = FaultPlan.from_dict(data).actions[0]
    assert action.probability == 1.0
    assert action.extra == 0 and action.jitter == 0


# ----------------------------------------------------------------------
# Debugger-side recovery
# ----------------------------------------------------------------------


def test_reboot_invalidates_session_and_reattach_recovers():
    cluster = Cluster(names=["app", "debugger"])
    image = cluster.load_program(SPIN, "app")
    cluster.spawn_vm("app", image, "main")
    dbg = Pilgrim(cluster, home="debugger")
    dbg.connect("app")
    app_id = cluster.node("app").node_id
    assert dbg.node_epochs[app_id] == 0
    assert dbg.processes("app")  # session works

    cluster.node("app").reboot()
    # The fresh agent knows nothing of the session: stale id rejected.
    with pytest.raises(AgentError, match="bad or stale"):
        dbg.processes("app")
    assert dbg.reachability[app_id] == "up"  # a rejection proves liveness

    info = dbg.reattach("app")
    assert info["epoch"] == 1
    assert dbg.node_epochs[app_id] == 1
    names = [p["name"] for p in dbg.processes("app")]
    assert "pilgrim.agent" in names  # fresh boot, debuggable again


def test_unreachable_node_error_carries_diagnosis():
    cluster = Cluster(names=["app", "debugger"])
    image = cluster.load_program(SPIN, "app")
    cluster.spawn_vm("app", image, "main")
    dbg = Pilgrim(cluster, home="debugger")
    dbg.connect("app")
    cluster.node("app").crash()
    with pytest.raises(UnreachableNodeError) as excinfo:
        dbg.processes("app")
    exc = excinfo.value
    assert exc.node == "app"
    assert exc.address == cluster.node("app").node_id
    assert exc.state == "down"
    retries = cluster.params.debugger_max_retries
    assert len(exc.attempts) == retries + 1
    # Exponential backoff was recorded per attempt.
    backoffs = [a["backoff"] for a in exc.attempts]
    assert backoffs[1] == 2 * backoffs[0]
    assert dbg.reachability[exc.address] == "down"


def test_survey_and_halt_degrade_around_dead_node():
    cluster = Cluster(names=["a", "b", "debugger"])
    for name in ("a", "b"):
        image = cluster.load_program(SPIN, name)
        cluster.spawn_vm(name, image, "main")
    dbg = Pilgrim(cluster, home="debugger")
    dbg.connect("a", "b")
    b_id = cluster.node("b").node_id
    cluster.node("b").crash()

    survey = dbg.all_processes()
    assert cluster.node("a").node_id in survey["nodes"]
    assert [u["address"] for u in survey["unreachable"]] == [b_id]

    # halt_all skips the corpse and halts via the live node.
    dbg.halt_all()
    assert cluster.node("a").agent.halted
    dbg.resume("a")
