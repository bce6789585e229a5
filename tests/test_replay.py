"""Record/replay: byte-identity, checkpoints, time travel, races."""

import collections
import gc
import hashlib
import random
import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MS, SEC, Cluster, FaultPlan, Pilgrim, Trace, record_run, replay_trace
from repro.mayflower.process import Process, ProcessState
from repro.mayflower.scheduler import RECENT_EXITS
from repro.mayflower.syscalls import Sleep
from repro.net.packets import BasicBlock
from repro.obs.metrics import COUNTED
from repro.replay import (
    TRACE_VERSION,
    ReplayDivergence,
    ReplayUnsupported,
    ReplayWorld,
    TimeTravel,
    TraceFormatError,
    detect_races,
)
from repro.replay import trace as trace_module
from repro.replay.checkpoint import capture_view, rng_digest
from repro.replay.replay import Recipe, execute
from repro.replay.trace import TraceWriter
from repro.rpc.runtime import remote_call

ECHO_SERVER = "proc echo(x: int) returns int\n  return x\nend"

CHAOS_CLIENT = """
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
"""

ONE_CALL_CLIENT = """
proc main()
  var r: int := remote svc.echo(7)
  print r
end
"""

CHAOS_NAMES = ["client", "server", "debugger"]


def build_chaos(cluster):
    """The PR 2 chaos scenario: a 12-call echo client under a nemesis."""
    server_image = cluster.load_program(ECHO_SERVER, "server")
    cluster.rpc("server").export_vm("svc", server_image, {"echo": "echo"})
    client_image = cluster.load_program(CHAOS_CLIENT, "client")
    cluster.spawn_vm("client", client_image, "main")


def chaos_plan():
    # Node ids follow CHAOS_NAMES order: client=0, server=1.
    return (FaultPlan()
            .crash(at=60 * MS, node="server")
            .reboot(at=200 * MS, node="server")
            .partition(at=250 * MS, groups=[[0], [1]], duration=100 * MS)
            .delay(at=360 * MS, duration=400 * MS, extra=5 * MS, jitter=2 * MS)
            .duplicate(at=360 * MS, duration=400 * MS, probability=0.5))


# ----------------------------------------------------------------------
# Byte-identical replay (the acceptance bar)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_replay_is_byte_identical_without_faults(seed):
    trace = record_run(build_chaos, CHAOS_NAMES, seed=seed, run_until=2 * SEC)
    report = replay_trace(trace, build_chaos)
    assert report.identical
    assert report.events == len(trace.events)
    assert report.fingerprint == trace.fingerprint()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_replay_is_byte_identical_under_chaos(seed):
    trace = record_run(build_chaos, CHAOS_NAMES, seed=seed, plan=chaos_plan(),
                       checkpoint_every=100 * MS, run_until=4 * SEC)
    assert len(trace.checkpoints) > 1  # base + periodic
    report = replay_trace(trace, build_chaos)
    assert report.identical
    assert report.checkpoints_verified == len(trace.checkpoints)
    assert report.fingerprint == trace.fingerprint()


def test_divergence_reports_first_mismatching_event():
    trace = record_run(build_chaos, CHAOS_NAMES, seed=1, run_until=2 * SEC)
    assert len(trace.events) > 11
    recorded = trace.events[10].line
    # Lines are derived, so tamper with what they derive from: the last
    # cell of event 10's row, in its type's last column.
    events = trace.events
    columns = events.cells[events.kinds[10]]
    columns[-1] = list(columns[-1])
    columns[-1][events.slots[10]] = f"{events[10].row[-1]} TAMPERED"
    with pytest.raises(ReplayDivergence) as excinfo:
        replay_trace(trace, build_chaos)
    exc = excinfo.value
    assert exc.kind == "event"
    assert exc.index == 10
    assert exc.expected == trace.events[10].line != recorded
    assert "TAMPERED" in exc.expected
    assert exc.actual == recorded


def test_manual_trace_refuses_re_execution():
    cluster = Cluster(names=["app", "debugger"], seed=0)
    dbg = Pilgrim(cluster, home="debugger")
    writer = dbg.start_recording()
    cluster.run_for(10 * MS)
    trace = dbg.stop_recording()
    assert writer.header["seed"] == 0
    assert trace.footer["drive"] == {"mode": "manual"}
    with pytest.raises(ReplayUnsupported):
        ReplayWorld(trace, lambda cluster: None).run()


def _count_calls(monkeypatch, module, names) -> dict:
    """Wrap each function ``names`` of ``module`` to count its calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _real=getattr(module, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_sealing_renders_nothing_until_the_footer_is_read(monkeypatch, tmp_path):
    """``finish()`` renders no line: the footer's digest is taken the
    first time the footer is read (or the trace is saved), once, and
    kept; ``final_time`` and ``drive`` do not take it."""
    calls = _count_calls(monkeypatch, trace_module, ("render_line", "stream_fingerprint"))
    none = {"render_line": 0, "stream_fingerprint": 0}
    trace = record_run(build_chaos, CHAOS_NAMES, seed=1, plan=chaos_plan(),
                       checkpoint_every=100 * MS, run_until=2 * SEC)
    assert calls == none
    assert (trace.final_time, trace.drive) == (2 * SEC, {"mode": "until", "until": 2 * SEC})
    assert calls == none
    first, second = trace.footer["fingerprint"], trace.footer["fingerprint"]
    assert calls == {"render_line": len(trace.events), "stream_fingerprint": 1}
    assert first == second == trace.fingerprint()

    saved = record_run(build_chaos, CHAOS_NAMES, seed=1, plan=chaos_plan(),
                       checkpoint_every=100 * MS, run_until=2 * SEC)
    calls.update(none)
    saved.save(tmp_path / "run.trace.bin")
    assert calls["stream_fingerprint"] == 1
    assert Trace.load(tmp_path / "run.trace.bin").footer == saved.footer == trace.footer

    # A hand-built trace keeps its footer dict exactly as given.
    hand = Trace(trace.header, trace.events, trace.checkpoints, {"final_time": 0})
    assert (hand.footer, hand.final_time, hand.drive) == ({"final_time": 0}, 0, {"mode": "manual"})
    assert "fingerprint" not in hand.footer


def _struct_rng_digest(rng) -> str:
    """The reference :func:`rng_digest`: the words packed by ``struct``."""
    version, words, gauss = rng.getstate()
    digest = hashlib.sha256(struct.pack(f"<{len(words)}I", *words))
    digest.update(f"{version}:{gauss!r}".encode())
    return digest.hexdigest()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 64), draws=st.integers(0, 1300), gauss=st.booleans())
def test_rng_digest_hashes_the_struct_packed_words(seed, draws, gauss):
    """The ``array`` digest is the bytes of ``struct.pack("<625I")``, at
    any position (past a twist or not) and with or without a cached
    ``gauss`` value."""
    rng = random.Random(seed)
    for _ in range(draws):
        rng.random()
    if gauss:
        rng.gauss(0.0, 1.0)
    assert (rng.getstate()[2] is not None) == gauss
    assert rng_digest(rng) == _struct_rng_digest(rng)


def _assert_counts_tally_the_events_before(trace) -> None:
    """Every checkpoint's counts are the per-type tally of the events
    before its index, counted off the events' own type names."""
    keys = {row.type.__name__: row.key for row in COUNTED}
    counts, position = dict.fromkeys(keys.values(), 0), 0
    for checkpoint in trace.checkpoints:
        for event in trace.events[position:checkpoint.index]:
            if event.type in keys:
                counts[keys[event.type]] += 1
        position = checkpoint.index
        assert checkpoint.view.counts == counts, checkpoint


def test_checkpoint_counts_are_the_tally_of_the_events_before_them():
    """A recording's checkpoint counts equal the tally of the events it
    recorded before each one: for a chaos run at a 20 ms cadence and for
    a recording started mid-run, after the series had counted events
    the trace never holds."""
    trace = record_run(build_chaos, CHAOS_NAMES, seed=2, plan=chaos_plan(),
                       checkpoint_every=20 * MS, run_until=4 * SEC)
    assert len(trace.checkpoints) > 20
    assert trace.checkpoints[-1].view.counts["rpc_failed"] > 0
    _assert_counts_tally_the_events_before(trace)

    cluster = Cluster(names=CHAOS_NAMES, seed=2)
    build_chaos(cluster)
    dbg = Pilgrim(cluster, home="debugger")
    cluster.run_for(10 * MS)
    assert cluster.world.metrics.labeled("ring.packets_sent").total > 0
    dbg.start_recording(checkpoint_every=20 * MS)
    cluster.run_for(SEC)
    trace = dbg.stop_recording()
    assert len(trace.checkpoints) > 2 and trace.checkpoints[-1].view.counts["rpc_completed"]
    _assert_counts_tally_the_events_before(trace)
    cluster.close()


def test_the_series_count_what_a_recording_from_world_birth_tallies():
    """With the writer attached before the run's first event, each
    :data:`COUNTED` series ends at its value at attach plus the trace's
    tally of its type: in total, and per node for a per-node series."""
    at_attach = {}

    def counted(cluster) -> dict:
        """Each table series' total and per-node counts."""
        series = cluster.world.metrics.series()
        return {row: (series[row.series].value,
                      collections.Counter(series[row.series].by_label() if row.per_node else {}))
                for row in COUNTED}

    def build(cluster):
        at_attach.update(counted(cluster))
        build_chaos(cluster)

    recipe = Recipe(names=tuple(CHAOS_NAMES), seed=2, plan=chaos_plan(),
                    checkpoint_every=100 * MS).running_until(4 * SEC)
    cluster, _, _, trace = execute(recipe, build)
    events, tally = trace.events, trace.events.tally()
    for row, (total, nodes) in counted(cluster).items():
        before, nodes_before = at_attach[row]
        kind = row.type.__name__
        assert total - before == tally.get(kind, 0), row
        if row.per_node:
            recorded = collections.Counter(map(events.nodes.__getitem__, events.indices([kind])))
            assert nodes - nodes_before == recorded, row
    assert {"RpcCallFailed", "FaultInjected", "NodeRebooted", "RpcCallRetried"} <= set(tally)
    cluster.close()


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------


def test_trace_save_load_round_trip(tmp_path):
    trace = record_run(build_chaos, CHAOS_NAMES, seed=2, plan=chaos_plan(),
                       checkpoint_every=100 * MS, run_until=4 * SEC)
    path = tmp_path / "run.trace.bin"
    trace.save(path)
    loaded = Trace.load(path)
    assert loaded.header == trace.header
    assert loaded.footer == trace.footer
    assert loaded.lines() == trace.lines()
    assert loaded.fingerprint() == trace.fingerprint()
    assert len(loaded.checkpoints) == len(trace.checkpoints)
    assert [c.to_dict() for c in loaded.checkpoints] == \
        [c.to_dict() for c in trace.checkpoints]
    # The round-tripped trace replays like the original.
    report = replay_trace(loaded, build_chaos)
    assert report.identical


def _load_with_header_version(tmp_path, version):
    trace = record_run(build_chaos, CHAOS_NAMES, seed=1, run_until=1 * SEC)
    trace.header["version"] = version
    path = tmp_path / "bad.trace.bin"
    trace.save(path)
    return Trace.load(path)


def test_trace_load_rejects_wrong_version(tmp_path):
    with pytest.raises(TraceFormatError, match="version 999 unsupported"):
        _load_with_header_version(tmp_path, 999)


def test_trace_load_rejects_the_previous_trace_version(tmp_path):
    """A version-2 trace (a checkpoint's ``view.time`` is its capturing
    event's, not the running maximum a fold reads there) is refused at
    load: replaying it could only end in a misleading checkpoint
    divergence."""
    assert TRACE_VERSION == 3
    with pytest.raises(TraceFormatError, match="version 2 unsupported"):
        _load_with_header_version(tmp_path, 2)


# ----------------------------------------------------------------------
# Checkpoints and time travel
# ----------------------------------------------------------------------


def _chaos_trace(seed=3):
    return record_run(build_chaos, CHAOS_NAMES, seed=seed, plan=chaos_plan(),
                      checkpoint_every=100 * MS, run_until=4 * SEC)


def test_checkpoint_seek_equals_full_fold():
    """Seeking via a checkpoint must answer exactly like folding the
    whole prefix from the base."""
    trace = _chaos_trace()
    assert len(trace.checkpoints) >= 3
    fast = TimeTravel(trace)
    # A checkpoint-stripped twin folds every prefix from the base.
    slow = TimeTravel(Trace(trace.header, trace.events,
                            trace.checkpoints[:1], trace.footer))
    for checkpoint in trace.checkpoints:
        assert fast.seek(checkpoint.index).view.to_dict() == \
            checkpoint.view.to_dict()
    for t in (0, 50 * MS, 150 * MS, 333 * MS, 1 * SEC, 4 * SEC):
        a, b = fast.at(t), slow.at(t)
        assert a.index == b.index
        assert a.view.to_dict() == b.view.to_dict()


def test_capture_view_visits_live_processes_only(monkeypatch):
    """A checkpoint costs what is live: with 2 000 failed processes in
    the table (the supervisor keeps every failed one, and only the last
    few clean exits), capture asks none of them whether it is live, and
    still returns what filtering the whole table would."""
    cluster = Cluster(names=["app", "other"], seed=0)
    node = cluster.node("app")

    def short():
        yield Sleep(1)
        raise RuntimeError("short")

    def sleeper():
        yield Sleep(1000 * SEC)

    for _ in range(2000):
        node.spawn(short(), name="short")
    for priority in (0, 1, 2):
        node.spawn(sleeper(), name="sleeper", priority=priority)
    cluster.run_for(100 * SEC)
    table = node.supervisor.processes
    dead = {id(p) for p in table.values() if not p.is_live()}
    assert len(dead) == 2000
    expected = {
        str(n.node_id): {
            str(pid): {"name": p.name, "priority": p.priority}
            for pid, p in n.supervisor.processes.items() if p.is_live()
        }
        for n in cluster.nodes
    }
    assert len(expected["0"]) == len(table) - 2000 >= 3

    asked = []
    is_live = Process.is_live
    monkeypatch.setattr(
        Process, "is_live",
        lambda self: asked.append(id(self)) or is_live(self))
    view = capture_view(cluster, cluster.world.now)
    assert not dead.intersection(asked)
    assert view.processes == expected
    assert list(view.processes["0"]) == sorted(view.processes["0"], key=int)


def _null_rpc_build(calls, extra_draws=0):
    """A faultless client making ``calls`` null RPCs; ``extra_draws``
    advances the world RNG in ``build`` without touching the event
    stream (nothing in a faultless ring run consumes it)."""
    def build(cluster):
        for _ in range(extra_draws):
            cluster.world.rng.random()
        cluster.rpc("server").export_native("svc", {"op": lambda ctx: None})

        def caller(node):
            for _ in range(calls):
                yield from remote_call(node.rpc, "svc", "op")

        node = cluster.node("client")
        node.spawn(caller(node), name="caller")
    return build


def test_a_recording_frees_its_finished_calls_by_refcount():
    """Census fence: with the collector off, null-RPC recordings of N and
    2N calls leave the same count for ``gc.collect()`` once the trace is
    dropped.  Exited processes are retired and ``record_run`` closes its
    cluster, so a finished call holds no cycle; what the collector still
    finds is the closed cluster's fixed skeleton (nodes, semaphores,
    queues, VM code)."""
    def unreachable(calls):
        gc.collect()
        gc.disable()
        try:
            trace = record_run(_null_rpc_build(calls), ["client", "server"],
                               seed=3, checkpoint_every=100 * MS)
            del trace
            return gc.collect()
        finally:
            gc.enable()

    assert unreachable(200) == unreachable(400)


def test_a_live_cluster_holds_what_is_live_not_its_history():
    """Census fence before ``close()``: a live, unrecorded null-RPC
    cluster that made N calls holds what one that made 2N holds, within
    a fixed slack (the RPC tables are bounded: 256 server records, 64
    client ones; N is past both).  Each supervisor's table holds its
    live processes, its failed ones and at most ``RECENT_EXITS`` clean
    exits; keeping every exit held ~0.4 KB a call.  No more ``Process``
    objects than that survive anywhere: a server record keeps its
    worker's pid, not the worker, so the 256 records hold no exited
    process."""
    def processes():
        return sum(type(o) is Process for o in gc.get_objects())

    def held(calls):
        gc.collect()
        existing = processes()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cluster = Cluster(names=["client", "server"], seed=3)
            _null_rpc_build(calls)(cluster)
            cluster.run()
            gc.collect()
            size = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        bound = 0
        for node in cluster.nodes:
            table = node.supervisor.processes.values()
            done = [p for p in table if p.state is ProcessState.DONE]
            failed = sum(p.state is ProcessState.FAILED for p in table)
            live = len(node.supervisor.live_processes())
            assert len(done) <= RECENT_EXITS
            assert len(table) - len(done) == live + failed
            bound += live + failed + RECENT_EXITS
        assert processes() - existing <= bound
        assert cluster.node("server").supervisor._next_pid > calls
        cluster.close()
        return size

    assert abs(held(500) - held(1000)) <= 4096


def test_a_recording_forgets_a_packet_id_with_its_packet(monkeypatch):
    """Packet-id lifetime fence: under a duplicate window (a packet is
    delivered again after its first delivery) and a NACK window (calls
    retransmit), the stream is the one pinned before ids were forgotten,
    and at every checkpoint and at ``finish()`` the normalizer holds no
    more ids than there are live packets.  Forgetting an id at its
    packet's first Delivered, Dropped or NACKed event instead renumbers
    the second delivery and changes the fingerprint."""
    census = []

    def count(writer):
        gc.collect()
        census.append((len(writer._normalizer._packet_ids),
                       sum(type(o) is BasicBlock for o in gc.get_objects())))

    capture, finish = TraceWriter._capture_checkpoint, TraceWriter.finish
    monkeypatch.setattr(TraceWriter, "_capture_checkpoint",
                        lambda self, time: (capture(self, time), count(self)))
    monkeypatch.setattr(TraceWriter, "finish",
                        lambda self, drive=None: (count(self), finish(self, drive))[1])
    plan = (FaultPlan().duplicate(at=0, duration=300 * MS, probability=0.5)
            .nack(at=120 * MS, duration=60 * MS, probability=0.5))
    trace = record_run(build_chaos, CHAOS_NAMES, seed=4, plan=plan,
                       checkpoint_every=50 * MS)
    assert trace.fingerprint() == (
        "e161af1974064b8b31477d43de4ca56020b0051576cdf50d20e6656c7ab37c91")
    tally = trace.events.tally()
    assert tally["PacketDelivered"] > tally["PacketSent"]
    assert tally["PacketNacked"] and tally["RpcCallRetried"]
    assert len(census) == len(trace.checkpoints) + 1
    assert all(ids <= live for ids, live in census), census


def test_silent_rng_drift_is_caught_at_the_first_checkpoint():
    """The state pins the RNG position by digest: a replay that drew
    once more than the recording, with an identical event stream, still
    diverges — at the first checkpoint after ``build``."""
    names = ["client", "server"]
    trace = record_run(_null_rpc_build(20), names, seed=5,
                       checkpoint_every=50 * MS)
    assert len(trace.checkpoints) > 3
    assert all(isinstance(c.state["rng"], str) and len(c.state["rng"]) == 64
               for c in trace.checkpoints)
    report = replay_trace(trace, _null_rpc_build(20))
    assert report.checkpoints_verified == len(trace.checkpoints)

    world = ReplayWorld(trace, _null_rpc_build(20, extra_draws=1))
    assert world.run().lines() == trace.lines()  # the stream cannot tell
    with pytest.raises(ReplayDivergence) as excinfo:
        world.verify()
    exc = excinfo.value
    # Checkpoint #0 is captured at attach, before ``build`` runs.
    assert (exc.kind, exc.index) == ("checkpoint", trace.checkpoints[1].index)
    assert exc.expected == f"rng={trace.checkpoints[1].state['rng']!r}"
    assert exc.actual.startswith("rng='") and exc.actual != exc.expected
    assert "rng=" in str(exc) and exc.code == "divergence"


def test_checkpoint_divergence_names_the_differing_state_keys():
    names = ["client", "server"]
    trace = record_run(_null_rpc_build(8), names, seed=5,
                       checkpoint_every=50 * MS)
    state = trace.checkpoints[2].state
    state["world_now"] += 1
    state["nodes"]["1"]["cpu_consumed"] += 7
    with pytest.raises(ReplayDivergence) as excinfo:
        replay_trace(trace, _null_rpc_build(8))
    exc = excinfo.value
    assert (exc.kind, exc.index) == ("checkpoint", trace.checkpoints[2].index)
    cpu = state["nodes"]["1"]["cpu_consumed"]
    assert exc.expected == (f"nodes.1.cpu_consumed={cpu}, "
                            f"world_now={state['world_now']}")
    assert exc.actual == (f"nodes.1.cpu_consumed={cpu - 7}, "
                          f"world_now={state['world_now'] - 1}")


def test_at_uses_prefix_semantics():
    trace = _chaos_trace()
    tt = TimeTravel(trace)
    assert tt.at(-1).index == 0
    assert tt.at(trace.final_time).index == len(trace.events)
    moment = tt.at(100 * MS)
    # Everything in the prefix happened at or before the target...
    assert all(e.time <= 100 * MS for e in trace.events[:moment.index])
    # ...and the cursor cannot be extended without passing it.
    if moment.index < len(trace.events):
        assert trace.events[moment.index].time > 100 * MS


def test_step_and_reverse_step_are_symmetric():
    trace = _chaos_trace()
    tt = TimeTravel(trace)
    middle = tt.at(200 * MS)
    forward = tt.step()
    assert forward.index == middle.index + 1
    back = tt.reverse_step()
    assert back.index == middle.index
    assert back.view.to_dict() == middle.view.to_dict()
    # Stepping through a region matches folding straight to its end.
    for _ in range(25):
        tt.step()
    stepped = tt.current()
    assert stepped.view.to_dict() == tt.seek(stepped.index).view.to_dict()


def test_causal_predecessors_of_a_delivery():
    trace = _chaos_trace()
    tt = TimeTravel(trace)
    # Every delivery is causally after its send.
    delivered = [e for e in trace.events if e.type == "PacketDelivered"]
    assert delivered
    target = delivered[0]
    history = tt.causal_predecessors(target.index)
    assert history  # at minimum the matching PacketSent
    assert all(e.index < target.index for e in history)
    sends = [e for e in history if e.type == "PacketSent"
             and e.fields["packet"]["pkt"] == target.fields["packet"]["pkt"]]
    assert len(sends) >= 1


def test_why_halted_points_at_breakpoint():
    cluster = Cluster(names=["app", "debugger"], seed=0)
    image = cluster.load_program(
        "proc main()\n  var i: int := 0\n  while true do\n"
        "    i := i + 1\n    sleep(1000)\n  end\nend",
        "app",
    )
    cluster.spawn_vm("app", image, "main")
    dbg = Pilgrim(cluster, home="debugger")
    dbg.connect("app")
    dbg.start_recording()
    dbg.set_breakpoint("app", "app", line=4)  # i := i + 1
    dbg.wait_for_breakpoint()
    trace = dbg.stop_recording()

    verdict = dbg.why_halted()
    assert verdict["halted"]
    assert verdict["cause"] is not None
    assert verdict["cause"].type == "BreakpointHit"
    assert verdict["halt_event"].type == "ProcessHalted"
    assert verdict["since"] >= verdict["cause"].time

    # Rewinding to before the hit answers "not halted".
    before = dbg.at(verdict["cause"].time - 1)
    assert before.index <= verdict["cause"].index
    assert not dbg.why_halted()["halted"]
    assert trace is dbg.trace


# ----------------------------------------------------------------------
# Message races
# ----------------------------------------------------------------------

RACE_NAMES = ["alice", "bob", "server", "debugger"]


def build_two_clients(cluster):
    """Two independent clients race their calls into one server under
    delivery jitter — arrival order at the server is seed-dependent."""
    server_image = cluster.load_program(ECHO_SERVER, "server")
    cluster.rpc("server").export_vm("svc", server_image, {"echo": "echo"})
    for name in ("alice", "bob"):
        image = cluster.load_program(ONE_CALL_CLIENT, name)
        cluster.spawn_vm(name, image, "main")


def _race_trace(seed):
    plan = FaultPlan().delay(at=0, duration=1 * SEC, extra=2 * MS, jitter=6 * MS)
    return record_run(build_two_clients, RACE_NAMES, seed=seed, plan=plan,
                      run_until=2 * SEC)


def test_detector_flags_receive_order_inversion():
    races = detect_races(_race_trace(seed=1), _race_trace(seed=5))
    assert races
    server_id = 2  # RACE_NAMES order
    race = races[0]
    assert race.dst == server_id
    # The racing messages come from the two different clients.
    assert race.first[0] != race.second[0]
    # And the runs really did deliver them in opposite relative order.
    assert (race.pos_a[0] < race.pos_a[1]) and (race.pos_b[0] > race.pos_b[1])


def test_same_seed_never_races():
    assert detect_races(_race_trace(seed=1), _race_trace(seed=1)) == []


def test_why_halted_carries_the_invariant_level_why():
    """Both why_halted shapes include the first contract violation."""
    from repro.campaign.scenarios import get_plan, get_scenario
    from repro.contracts.report import ContractViolation
    from repro.replay.replay import record_run
    from repro.replay.timetravel import TimeTravel

    scenario = get_scenario("kv")
    trace = record_run(scenario.build, list(scenario.names), seed=0,
                       run_until=scenario.run_until,
                       plan=get_plan("leader_partition"))
    travel = TimeTravel(trace)
    travel.at(trace.final_time)
    verdict = travel.why_halted()
    violation = verdict["contract"]
    assert isinstance(violation, ContractViolation)
    assert violation.contract == "single_leader"
    # Before the split brain the same key answers None.
    travel.at(violation.time - 1)
    assert travel.why_halted()["contract"] is None
