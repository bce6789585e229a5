"""Unit and integration tests for the RPC runtime."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.cvm import CluArray, CluRecord, RpcFailure
from repro.debugger.pilgrim import Pilgrim
from repro.faults.shaper import LOSS, FaultRule, LinkShaper
from repro.mayflower.syscalls import Sleep
from repro.params import Params
from repro.rpc import (
    MarshalError,
    PacketMonitor,
    RecentCallBuffer,
    Signature,
    marshal,
    remote_call,
    unmarshal,
)
from repro.rpc import runtime as rpc_runtime
from repro.rpc.debug import ServerCallRecord
from repro.sim import MS, SEC

ADDER = """
proc add(a: int, b: int) returns int
  return a + b
end
proc slow(a: int) returns int
  sleep(20000)
  return a * 2
end
proc boom() returns int
  return 1 / 0
end
"""


def lose(cluster, match):
    """Silently lose the packets ``match`` picks (a shaper LOSS rule)."""
    LinkShaper(cluster.net).add_rule(FaultRule(LOSS, match=match))


def make_pair(seed=0, **params):
    cluster = Cluster(names=["client", "server"], seed=seed, params=Params(**params))
    server_image = cluster.load_program(ADDER, "server")
    cluster.rpc("server").export_vm(
        "calc", server_image, {"add": "add", "slow": "slow", "boom": "boom"}
    )
    return cluster


# ----------------------------------------------------------------------
# Marshalling
# ----------------------------------------------------------------------


def test_marshal_roundtrip_scalars():
    for value in (None, True, False, 0, -5, 123456, "", "hello"):
        assert unmarshal(marshal(value)) == value


def test_marshal_roundtrip_structures():
    value = CluRecord(
        "point", {"x": 1, "y": CluArray([1, 2, CluRecord("q", {"z": "s"})])}
    )
    rebuilt = unmarshal(marshal(value))
    assert rebuilt == value
    assert rebuilt is not value  # pass-by-value
    assert rebuilt.fields["y"] is not value.fields["y"]


def test_marshal_rejects_untransmissible():
    with pytest.raises(MarshalError):
        marshal(object())


def test_signature_checks():
    sig = Signature(["int", "string"], "int")
    sig.check_args([1, "x"])
    with pytest.raises(MarshalError):
        sig.check_args([1])
    with pytest.raises(MarshalError):
        sig.check_args(["x", 1])
    with pytest.raises(MarshalError):
        sig.check_args([True, "x"])  # bool is not int


def test_signature_record_and_array_types():
    sig = Signature(["array[int]", "point"], "any")
    sig.check_args([CluArray([1, 2]), CluRecord("point", {"x": 1})])
    with pytest.raises(MarshalError):
        sig.check_args([CluArray(["s"]), CluRecord("point", {"x": 1})])
    with pytest.raises(MarshalError):
        sig.check_args([CluArray([1]), CluRecord("other", {"x": 1})])


# ----------------------------------------------------------------------
# Recent-call buffer (paper: ten slots)
# ----------------------------------------------------------------------


def test_recent_buffer_caps_at_ten():
    buffer = RecentCallBuffer(10)
    for i in range(25):
        buffer.record(i, i % 2 == 0)
    entries = buffer.entries()
    assert len(entries) == 10
    assert [cid for cid, _ in entries] == list(range(15, 25))
    assert buffer.lookup(24) is True
    assert buffer.lookup(23) is False
    assert buffer.lookup(3) is None  # aged out


# ----------------------------------------------------------------------
# Exactly-once calls
# ----------------------------------------------------------------------


def test_vm_to_vm_call():
    cluster = make_pair()
    client_image = cluster.load_program(
        """
proc main()
  var r: int := remote calc.add(20, 22)
  print r
end
""",
        "client",
    )
    cluster.spawn_vm("client", client_image, "main")
    cluster.run()
    assert client_image.console == ["42"]


def test_null_rpc_latency_about_16ms():
    """Calibration: a null call takes ~16 ms, so +400us is ~2.5% (E1)."""
    cluster = Cluster(names=["client", "server"])
    cluster.rpc("server").export_native("nullsvc", {"ping": lambda ctx: None})
    done = {}

    def client(node):
        start = node.world.now
        result = yield from remote_call(node.rpc, "nullsvc", "ping")
        done["latency"] = node.world.now - start
        done["result"] = result

    node = cluster.node("client")
    node.spawn(client(node), name="client")
    cluster.run()
    assert done["result"] is None
    assert 14 * MS < done["latency"] < 19 * MS


def test_native_call_from_native_process():
    cluster = Cluster(names=["a", "b"])
    cluster.rpc("b").export_native(
        "echo", {"twice": lambda ctx, x: x * 2}
    )
    out = {}

    def caller(node):
        out["r"] = yield from remote_call(node.rpc, "echo", "twice", [21])

    node = cluster.node("a")
    node.spawn(caller(node), name="caller")
    cluster.run()
    assert out["r"] == 42


def test_blocking_native_handler():
    cluster = Cluster(names=["a", "b"])

    def slow_handler(ctx, x):
        yield Sleep(5 * MS)
        return x + 1

    cluster.rpc("b").export_native("svc", {"slow": slow_handler})
    out = {}

    def caller(node):
        out["r"] = yield from remote_call(node.rpc, "svc", "slow", [1])

    node = cluster.node("a")
    node.spawn(caller(node), name="caller")
    cluster.run()
    assert out["r"] == 2


def test_unknown_service_fails_fast():
    cluster = Cluster(names=["a", "b"])
    out = {}

    def caller(node):
        out["r"] = yield from remote_call(node.rpc, "ghost", "x", [])

    node = cluster.node("a")
    node.spawn(caller(node), name="caller")
    cluster.run()
    assert isinstance(out["r"], RpcFailure)
    assert "unknown service" in out["r"].reason


def test_remote_execution_error_returns_failure():
    cluster = make_pair()
    client_image = cluster.load_program(
        """
proc main()
  var r: int := remote calc.boom()
  print failed(r)
end
""",
        "client",
    )
    cluster.spawn_vm("client", client_image, "main")
    cluster.run()
    assert client_image.console == ["true"]


def test_signature_rejects_bad_args_client_side():
    cluster = Cluster(names=["a", "b"])
    cluster.rpc("b").export_native(
        "typed",
        {"inc": lambda ctx, x: x + 1},
        signatures={"inc": Signature(["int"], "int")},
    )
    out = {}

    def caller(node):
        out["r"] = yield from remote_call(node.rpc, "typed", "inc", ["oops"])

    node = cluster.node("a")
    node.spawn(caller(node), name="caller")
    cluster.run()
    assert isinstance(out["r"], RpcFailure)
    assert "marshal error" in out["r"].reason
    # The bad call never touched the network.
    assert cluster.net.total_sent == 0


def test_exactly_once_survives_lost_call_packet():
    cluster = make_pair()
    dropped = []

    def drop_first_call(packet):
        if packet.kind == "rpc_call" and not dropped:
            dropped.append(packet.packet_id)
            return True
        return False

    lose(cluster, drop_first_call)
    client_image = cluster.load_program(
        """
proc main()
  var r: int := remote calc.add(1, 2)
  print r
end
""",
        "client",
    )
    cluster.spawn_vm("client", client_image, "main")
    cluster.run()
    assert client_image.console == ["3"]
    assert dropped  # the retransmission saved the call


def test_exactly_once_survives_lost_reply_packet():
    cluster = make_pair()
    dropped = []

    def drop_first_reply(packet):
        if packet.kind == "rpc_reply" and not dropped:
            dropped.append(packet.packet_id)
            return True
        return False

    lose(cluster, drop_first_reply)
    client_image = cluster.load_program(
        """
proc main()
  var r: int := remote calc.add(1, 2)
  print r
end
""",
        "client",
    )
    cluster.spawn_vm("client", client_image, "main")
    cluster.run()
    assert client_image.console == ["3"]
    assert dropped
    # Dedup: the server must have executed the call exactly once.
    server_records = list(cluster.rpc("server").server_table.values())
    assert len(server_records) == 1


def test_exactly_once_gives_up_on_dead_node():
    cluster = make_pair()
    cluster.node("server").crash()
    client_image = cluster.load_program(
        """
proc main()
  var r: int := remote calc.add(1, 2)
  print failed(r)
end
""",
        "client",
    )
    cluster.spawn_vm("client", client_image, "main")
    cluster.run()
    assert client_image.console == ["true"]
    history = cluster.rpc("client").client_history
    assert history[0].info_block["retries"] == Params().rpc_max_retransmits


def test_maybe_call_success():
    cluster = make_pair()
    client_image = cluster.load_program(
        """
proc main()
  var r: int := remote maybe calc.add(2, 3)
  print r
end
""",
        "client",
    )
    cluster.spawn_vm("client", client_image, "main")
    cluster.run()
    assert client_image.console == ["5"]


def test_maybe_call_fails_on_lost_call_packet():
    cluster = make_pair()
    lose(cluster, lambda p: p.kind == "rpc_call")
    client_image = cluster.load_program(
        """
proc main()
  var r: int := remote maybe calc.add(2, 3)
  print failed(r)
end
""",
        "client",
    )
    cluster.spawn_vm("client", client_image, "main")
    cluster.run()
    assert client_image.console == ["true"]
    # Server never saw the call: that is the E8 diagnosis signal.
    assert cluster.rpc("server").server_table == {}


def test_maybe_call_fails_on_lost_reply_packet():
    cluster = make_pair()
    lose(cluster, lambda p: p.kind == "rpc_reply")
    client_image = cluster.load_program(
        """
proc main()
  var r: int := remote maybe calc.add(2, 3)
  print failed(r)
end
""",
        "client",
    )
    cluster.spawn_vm("client", client_image, "main")
    cluster.run()
    assert client_image.console == ["true"]
    # The server *did* execute it: reply loss, not call loss (E8).
    records = list(cluster.rpc("server").server_table.values())
    assert len(records) == 1 and records[0].completed


@pytest.mark.parametrize("trial, diagnosis", [
    ({}, "call succeeded"),
    ({"drop": "rpc_call"},
     "call packet lost (the server never received the call)"),
    ({"drop": "rpc_reply"},
     "reply packet lost (the server executed the call and replied)"),
    ({"serve_for": 500 * MS, "maybe_timeout": 1 * SEC},
     "call still in progress"),
    ({"serve_for": 500 * MS}, "server still executing the call"),
    ({"call_id": 9999}, "call unknown at the client"),
    ({"drop": "rpc_call", "unregister": True},
     "service 'svc' is not registered (bad binding)"),
])
def test_diagnose_maybe_failure(trial, diagnosis):
    """Paper §4.1: tell call loss from reply loss, post mortem."""
    assert _diagnose_maybe_call(**trial) == diagnosis


def _diagnose_maybe_call(drop=None, serve_for=0, unregister=False,
                         call_id=None, **params):
    """One maybe call to ``svc.op``, diagnosed 100 ms after it was made."""
    cluster = Cluster(names=["client", "server", "debugger"],
                      params=Params(**params))

    def op(ctx):
        yield Sleep(serve_for)
        return 42

    cluster.rpc("server").export_native("svc", {"op": op})
    if drop is not None:
        lose(cluster, lambda p: p.kind == drop)
    node = cluster.node("client")
    node.spawn(remote_call(node.rpc, "svc", "op", protocol="maybe"),
               name="caller")
    cluster.run_for(100 * MS)
    if unregister:
        cluster.registry.unregister("svc")
    dbg = Pilgrim(cluster, home="debugger")
    dbg.connect("client", "server")
    if call_id is None:
        rpc = cluster.rpc("client")
        in_flight = rpc.inprogress_calls()
        call_id = (in_flight[0]["call_id"] if in_flight
                   else rpc.client_history[-1].call_id)
    return dbg.diagnose_maybe_failure("client", call_id)


def test_recent_call_buffer_records_outcomes():
    cluster = make_pair()
    client_image = cluster.load_program(
        """
proc main()
  var a: int := remote calc.add(1, 1)
  var b: int := remote maybe ghost.nothing(1)
  print a
end
""",
        "client",
    )
    cluster.spawn_vm("client", client_image, "main")
    cluster.run()
    outcomes = cluster.rpc("client").recent_outcomes()
    assert len(outcomes) == 2
    assert outcomes[0][1] is True
    assert outcomes[1][1] is False


def test_info_block_visible_during_call():
    cluster = make_pair()
    client_image = cluster.load_program(
        """
proc main()
  var r: int := remote calc.slow(21)
  print r
end
""",
        "client",
    )
    from repro.cvm.interp import VmExecutor

    executor = VmExecutor(client_image, "main", [])
    cluster.node("client").spawn(executor, name="main")
    cluster.run(until=10 * MS)  # call in flight
    info = executor.current_info_block()
    assert info is not None
    assert info["remote_proc"] == "calc.slow"
    assert info["state"] in ("marshalling", "call_sent")
    # And the client call table associates the call id with the process.
    calls = cluster.rpc("client").inprogress_calls()
    assert len(calls) == 1
    assert calls[0]["call_id"] == info["call_id"]
    cluster.run()
    assert client_image.console == ["42"]


def test_server_table_associates_worker_with_call():
    cluster = make_pair()
    client_image = cluster.load_program(
        """
proc main()
  var r: int := remote calc.slow(21)
end
""",
        "client",
    )
    cluster.spawn_vm("client", client_image, "main")
    cluster.run(until=15 * MS)  # server is executing `slow`
    serving = cluster.rpc("server").serving_calls()
    assert len(serving) == 1
    assert serving[0]["worker_pid"] is not None
    assert serving[0]["proc"] == "slow"


def _evict_by_sorting(table, limit):
    """The rule the front-of-table eviction replaced, kept as its
    oracle: collect completed, stable-sort by arrival, drop the oldest
    ``excess``."""
    if len(table) <= limit:
        return
    completed = [r for r in table.values() if r.completed]
    completed.sort(key=lambda r: r.received_at)
    for record in completed[: len(table) - limit]:
        table.pop(record.call_id, None)


@settings(max_examples=150, deadline=None)
@given(st.lists(
    st.one_of(st.tuples(st.just("arrive"), st.integers(0, 2)),
              st.tuples(st.just("complete"), st.integers(0, 30))),
    max_size=150))
def test_server_table_eviction_matches_the_sort_based_rule(ops):
    """Records arrive at the world clock (monotonic, ties allowed) and
    complete in any order, so an in-progress record may be older than
    every completed one and the table may hold nothing completed at
    all; after every arrival the table is what sorting would leave."""
    runtime = Cluster(names=["client", "server"]).rpc("server")
    limit = 5
    reference = {}
    now = 0
    arrived = 0
    with mock.patch.object(rpc_runtime, "SERVER_TABLE_LIMIT", limit):
        for op, arg in ops:
            if op == "arrive":
                now += arg
                arrived += 1
                record = ServerCallRecord(
                    arrived, 0, 1, "svc", "op", "once", received_at=now)
                runtime.server_table[arrived] = reference[arrived] = record
                runtime._evict_server_records()
                _evict_by_sorting(reference, limit)
            else:
                serving = [r for r in reference.values() if not r.completed]
                if serving:
                    serving[arg % len(serving)].completed = True
            assert list(runtime.server_table) == list(reference)


def test_server_table_keeps_the_newest_completed_calls():
    """End to end: past the limit, a server keeps exactly the newest
    ``SERVER_TABLE_LIMIT`` records of a sequential caller."""
    cluster = Cluster(names=["client", "server"])
    cluster.rpc("server").export_native("svc", {"op": lambda ctx: None})
    calls = rpc_runtime.SERVER_TABLE_LIMIT + 40

    def caller(node):
        for _ in range(calls):
            yield from remote_call(node.rpc, "svc", "op")

    node = cluster.node("client")
    node.spawn(caller(node), name="caller")
    cluster.run()
    table = cluster.rpc("server").server_table
    assert len(table) == rpc_runtime.SERVER_TABLE_LIMIT
    arrivals = [record.received_at for record in table.values()]
    assert arrivals == sorted(arrivals)
    completed = cluster.world.metrics.labeled("rpc.calls_completed")
    assert completed.get(cluster.node("client").node_id) == calls


def test_concurrent_calls_from_two_processes():
    cluster = make_pair()
    client_image = cluster.load_program(
        """
proc worker(n: int)
  var r: int := remote calc.add(n, n)
  print r
end
proc main()
  spawn worker(1)
  spawn worker(2)
  sleep(100000)
end
""",
        "client",
    )
    cluster.spawn_vm("client", client_image, "main")
    cluster.run()
    assert sorted(client_image.console) == ["2", "4"]


def test_debug_support_off_removes_overhead_and_buffer():
    cluster = Cluster(names=["client", "server"])
    cluster.rpc("client").debug_support = False
    cluster.rpc("server").debug_support = False
    cluster.rpc("server").export_native("svc", {"ping": lambda ctx: None})
    out = {}

    def caller(node):
        start = node.world.now
        yield from remote_call(node.rpc, "svc", "ping")
        out["latency"] = node.world.now - start

    node = cluster.node("client")
    node.spawn(caller(node), name="caller")
    cluster.run()
    assert cluster.rpc("client").recent_outcomes() == []
    # Compare with instrumented latency: difference ~ rpc_debug_overhead.
    cluster2 = Cluster(names=["client", "server"])
    cluster2.rpc("server").export_native("svc", {"ping": lambda ctx: None})
    out2 = {}

    def caller2(node):
        start = node.world.now
        yield from remote_call(node.rpc, "svc", "ping")
        out2["latency"] = node.world.now - start

    node2 = cluster2.node("client")
    node2.spawn(caller2(node2), name="caller")
    cluster2.run()
    overhead = out2["latency"] - out["latency"]
    assert abs(overhead - Params().rpc_debug_overhead) < 100


def test_recent_call_buffer_adds_no_subscriber_per_node():
    """The runtime feeds its recent-call buffer directly (paper §4.3):
    a completion's subscribers do not grow with the cluster."""
    from repro.obs import events as ev

    counts = set()
    for size in (2, 16):
        bus = Cluster(names=[f"n{i}" for i in range(size)]).world.bus
        counts.add((bus.subscriber_count(ev.RpcCallCompleted),
                    bus.subscriber_count(ev.RpcCallFailed)))
    assert len(counts) == 1


def test_recent_call_buffer_follows_debug_support_across_reboot():
    cluster = Cluster(names=["client", "server"])
    cluster.rpc("server").export_native("svc", {"ping": lambda ctx: None})

    def caller(node):
        yield from remote_call(node.rpc, "svc", "ping")

    cluster.rpc("client").debug_support = False
    cluster.reboot("client")
    node = cluster.node("client")
    node.spawn(caller(node), name="caller")
    cluster.run()
    assert cluster.rpc("client").debug_support is False
    assert cluster.rpc("client").recent_outcomes() == []
    cluster.rpc("client").debug_support = True
    node.spawn(caller(node), name="caller")
    cluster.run()
    assert [ok for _, ok in cluster.rpc("client").recent_outcomes()] == [True]


def test_packet_monitor_reconstructs_state_and_doubles_latency():
    """E2's mechanism: the §4.2 design roughly doubles call time."""
    baseline = Cluster(names=["client", "server"])
    baseline.rpc("server").export_native("svc", {"ping": lambda ctx: None})
    t0 = {}

    def caller0(node):
        start = node.world.now
        yield from remote_call(node.rpc, "svc", "ping")
        t0["latency"] = node.world.now - start

    node = baseline.node("client")
    node.spawn(caller0(node), name="caller")
    baseline.run()

    monitored = Cluster(names=["client", "server"])
    monitored.rpc("server").export_native("svc", {"ping": lambda ctx: None})
    client_mon = PacketMonitor(monitored.net, monitored.rpc("client"))
    PacketMonitor(monitored.net, monitored.rpc("server"))
    t1 = {}

    def caller1(node):
        start = node.world.now
        yield from remote_call(node.rpc, "svc", "ping")
        t1["latency"] = node.world.now - start

    node = monitored.node("client")
    node.spawn(caller1(node), name="caller")
    monitored.run()

    ratio = t1["latency"] / t0["latency"]
    assert 1.7 < ratio < 2.4  # "RPCs might take twice as long"
    calls = list(client_mon.calls.values())
    assert len(calls) == 1
    assert calls[0].state == "completed"
    assert calls[0].service == "svc"


def test_rpc_freeze_pauses_protocol_timers():
    cluster = make_pair()
    client_image = cluster.load_program(
        """
proc main()
  var r: int := remote maybe calc.add(1, 1)
  print failed(r)
end
""",
        "client",
    )
    lose(cluster, lambda p: p.kind == "rpc_reply")
    cluster.spawn_vm("client", client_image, "main")
    cluster.run(until=10 * MS)
    timers = cluster.node("client").supervisor.timers
    timers.freeze()
    cluster.run(until=200 * MS)  # far past the maybe timeout
    assert client_image.console == []  # timer frozen: no failure yet
    timers.thaw()
    cluster.run()
    assert client_image.console == ["true"]
