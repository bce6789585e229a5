"""Tests for the repro.obs instrumentation bus, metrics, and its wiring."""

import json
import sys
from types import SimpleNamespace
from typing import Any, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.debugger import Pilgrim
from repro.faults.shaper import LOSS, FaultRule, LinkShaper
from repro.obs import Bus, Metrics, bus as bus_module, events as ev, install_default_metrics
from repro.obs.recorder import (
    PayloadNormalizer,
    encode_row,
    payload_field_names,
    render_line,
    row_fields,
)
from repro.rpc import PacketMonitor, remote_call
from repro.rpc.monitor import MonitoredCall
from repro.sim import World


# ----------------------------------------------------------------------
# Bus mechanics
# ----------------------------------------------------------------------


def test_subscribe_emit_delivers_typed_event():
    bus = Bus()
    seen = []
    bus.subscribe(ev.PacketSent, seen.append)
    returned = bus.emit(ev.PacketSent, 7, 2, "pkt")
    assert len(seen) == 1
    event = seen[0]
    assert event is returned
    assert isinstance(event, ev.PacketSent)
    assert (event.time, event.node, event.packet) == (7, 2, "pkt")
    assert event.seq == 1  # bus stamps delivery order


def test_subscribers_run_in_subscription_order():
    bus = Bus()
    order = []
    bus.subscribe(ev.PacketSent, lambda e: order.append("first"))
    bus.subscribe(ev.PacketSent, lambda e: order.append("second"))
    bus.subscribe(ev.PacketSent, lambda e: order.append("third"))
    bus.emit(ev.PacketSent, 0, None)
    assert order == ["first", "second", "third"]


def test_unsubscribe_stops_delivery_and_restores_dormancy():
    bus = Bus()
    seen = []
    fn = bus.subscribe(ev.PacketSent, seen.append)
    assert bus.has_subscribers(ev.PacketSent)
    assert bus.unsubscribe(ev.PacketSent, fn)
    assert not bus.has_subscribers(ev.PacketSent)
    bus.emit(ev.PacketSent, 0, None)
    assert seen == []
    # A second unsubscribe is a harmless no-op.
    assert not bus.unsubscribe(ev.PacketSent, fn)


def test_subscription_is_per_type():
    bus = Bus()
    sent, delivered = [], []
    bus.subscribe(ev.PacketSent, sent.append)
    bus.subscribe(ev.PacketDelivered, delivered.append)
    bus.emit(ev.PacketSent, 1, None)
    bus.emit(ev.PacketDelivered, 2, None)
    bus.emit(ev.PacketDropped, 3, None)  # nobody listens
    assert len(sent) == 1 and len(delivered) == 1


def test_subscriber_may_unsubscribe_during_delivery():
    bus = Bus()
    seen = []

    def once(event):
        seen.append(event)
        bus.unsubscribe(ev.PacketSent, once)

    bus.subscribe(ev.PacketSent, once)
    bus.emit(ev.PacketSent, 1, None)
    bus.emit(ev.PacketSent, 2, None)
    assert len(seen) == 1


class _Probe(ev.Event):
    """Test-only event type: no default subscriber knows it."""

    __slots__ = ()
    FIELDS, DEFAULTS = (*ev.HEADER, "cell"), (0,)


def _builtins_called_by_emit(run) -> list:
    """The builtins ``Bus.emit`` calls while ``run()`` runs, in order.

    ``emit`` builds an event with ``tuple.__new__``, which calls no
    Python-level ``__new__`` a probe could count in; a profile hook sees
    every builtin call made from ``bus.py`` instead.
    """
    called = []

    def hook(frame, what, arg):
        if what == "c_call" and frame.f_code.co_filename == bus_module.__file__:
            called.append(arg.__qualname__)

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return called


def test_dormant_emit_never_constructs_the_event():
    """The tentpole's cost contract: a zero-subscriber emit is a dict
    lookup plus a truthiness check — the event object is never built."""
    bus = Bus()
    returned = []
    called = _builtins_called_by_emit(
        lambda: returned.extend(bus.emit(_Probe, 0, 1, 5) for _ in range(100)))
    assert called == ["dict.get"] * 100
    assert returned == [None] * 100
    assert bus.events_emitted == 0  # dormant emits are uncounted

    # With one subscriber the same call materializes exactly one event.
    seen = []
    bus.subscribe(_Probe, seen.append)
    called = _builtins_called_by_emit(lambda: bus.emit(_Probe, 0, 1, 5))
    assert called.count("tuple.__new__") == 1
    assert seen == [_Probe(time=0, node=1, seq=1, cell=5)]
    assert bus.events_emitted == 1


def test_events_are_immutable():
    bus = Bus()
    bus.subscribe(ev.PacketSent, lambda e: None)
    event = bus.emit(ev.PacketSent, 1, 0)
    with pytest.raises(Exception):
        event.time = 99


def test_emit_arity_takes_defaults_and_refuses_extra_cells():
    bus, seen = Bus(), []
    bus.subscribe(ev.PacketDropped, seen.append)
    short = bus.emit(ev.PacketDropped, 5, 1)
    assert (short.packet, short.reason) == (None, "lost")
    assert bus.emit(ev.PacketDropped, 6, 1, None, "down").reason == "down"
    with pytest.raises(TypeError, match="PacketDropped takes 2 payload cells, not 3"):
        bus.emit(ev.PacketDropped, 7, 1, None, "down", "extra")
    assert len(seen) == 2 and bus.events_emitted == 2  # nothing half-delivered


_EMITTABLE = [getattr(ev, name) for name in ev.__all__ if name != "Event"]


@pytest.mark.parametrize("event_type", _EMITTABLE, ids=lambda t: t.__name__)
def test_positional_emit_reads_back_by_name(event_type):
    """Emitting every declared field positionally puts each value under
    its own name: the emit order is the declaration order."""
    bus = Bus()
    bus.subscribe(event_type, lambda e: None)
    payload = [f"{name}-value" for name in event_type.FIELDS[3:]]
    event = bus.emit(event_type, 1234, 7, *payload)
    expected = dict(zip(event_type.FIELDS, (1234, 7, 1, *payload)))
    assert {name: getattr(event, name) for name in event_type.FIELDS} == expected
    assert event == event_type(**expected)


def test_event_equality_and_hashing_include_the_type():
    sent = ev.PacketSent(time=1, node=0, seq=1, packet="p")
    delivered = ev.PacketDelivered(time=1, node=0, seq=1, packet="p")
    assert tuple(sent) == tuple(delivered)
    assert sent != delivered and not sent == delivered
    assert sent != tuple(sent) and tuple(sent) != sent
    assert len({sent, delivered}) == 2
    twin = ev.PacketSent(time=1, node=0, seq=1, packet="p")
    assert sent == twin and not sent != twin and hash(sent) == hash(twin)


# ----------------------------------------------------------------------
# Metrics aggregation
# ----------------------------------------------------------------------


def test_default_metrics_aggregate_emitted_events():
    bus, metrics = Bus(), Metrics()
    install_default_metrics(bus, metrics)

    bus.emit(ev.PacketSent, 1, 0, None)
    bus.emit(ev.PacketSent, 2, 0, None)
    bus.emit(ev.PacketSent, 3, 1, None)
    bus.emit(ev.PacketDelivered, 4, 1, None)
    bus.emit(ev.PacketDropped, 5, 1, None, "lost")
    bus.emit(ev.PacketNacked, 6, 0)

    sent = metrics.labeled("ring.packets_sent")
    assert sent.total == 3
    assert sent.get(0) == 2 and sent.get(1) == 1
    assert sent.by_label() == {0: 2, 1: 1}
    assert metrics.counter("ring.packets_dropped").value == 1
    assert metrics.counter("ring.packets_nacked").value == 1

    bus.emit(ev.RpcCallStarted, 10, 0, 1)
    bus.emit(ev.RpcCallStarted, 11, 0, 2)
    assert metrics.gauge("rpc.calls_in_flight").value == 2
    bus.emit(ev.RpcCallCompleted, 20, 0, 1, "svc", "op", "once", 100)
    bus.emit(ev.RpcCallRetried, 21, 0, 2, "svc", "op", 1)
    bus.emit(ev.RpcCallFailed, 30, 0, 2, "svc", "op", "once", 300, "down")
    assert metrics.gauge("rpc.calls_in_flight").value == 0
    assert metrics.labeled("rpc.calls_started").get(0) == 2
    assert metrics.labeled("rpc.calls_completed").get(0) == 1
    assert metrics.labeled("rpc.calls_failed").get(0) == 1
    assert metrics.counter("rpc.retransmits").value == 1

    latency = metrics.histogram("rpc.latency_us")
    assert latency.count == 1 and latency.mean == 100.0

    snap = metrics.snapshot()
    assert snap["ring.packets_sent"] == 3
    assert snap["rpc.latency_us"]["count"] == 1


def test_histogram_statistics():
    hist = Metrics().histogram("h")
    for value in (10, 30, 20):
        hist.observe(value)
    assert (hist.count, hist.min, hist.max) == (3, 10, 30)
    assert hist.mean == 20.0


def test_metric_name_type_collision_raises():
    metrics = Metrics()
    metrics.counter("x")
    with pytest.raises(TypeError):
        metrics.gauge("x")


def test_world_owns_bus_and_metrics():
    world = World(seed=1)
    assert isinstance(world.bus, Bus)
    assert isinstance(world.metrics, Metrics)
    # The shipped metrics are subscribed from birth ...
    assert world.bus.has_subscribers(ev.PacketSent)
    assert world.bus.has_subscribers(ev.RpcCallCompleted)
    # ... but debug-session events stay dormant.
    for dormant in (
        ev.BreakpointHit,
        ev.ProcessHalted,
        ev.ProcessResumed,
        ev.TimerFrozen,
        ev.TimerThawed,
    ):
        assert not world.bus.has_subscribers(dormant)


def test_debug_events_dormant_until_pilgrim_attaches():
    cluster = Cluster(names=["a", "b", "debugger"])
    assert not cluster.world.bus.has_subscribers(ev.BreakpointHit)
    Pilgrim(cluster, home="debugger")
    assert cluster.world.bus.has_subscribers(ev.BreakpointHit)
    assert cluster.world.bus.has_subscribers(ev.TimerFrozen)


# ----------------------------------------------------------------------
# Monitor regression: the bus-fed PacketMonitor must reconstruct the same
# state machines as the legacy trace-hook algorithm.
# ----------------------------------------------------------------------


def _legacy_observe(calls: dict, packet: Any, at: int) -> None:
    """The pre-bus trace-hook transition logic, embedded verbatim so the
    test fails if the bus conversion ever drifts from it."""
    payload = packet.payload
    call_id = payload.get("call_id")
    if call_id is None:
        return
    call = calls.get(call_id)
    if call is None:
        call = MonitoredCall(call_id)
        calls[call_id] = call
        call.first_seen = at
    call.last_seen = at
    if packet.kind == "rpc_call":
        call.call_packets += 1
        call.service = payload.get("service", call.service)
        call.proc = payload.get("proc", call.proc)
        call.protocol = payload.get("protocol", call.protocol)
        call.state = "call_sent" if call.call_packets == 1 else "retransmitting"
    else:
        call.reply_packets += 1
        call.state = "completed" if payload.get("status") == "ok" else "failed"


def _run_monitored_workload(record: Optional[list] = None) -> PacketMonitor:
    """A workload with a clean call, a retransmission, and a failure."""
    cluster = Cluster(names=["client", "server"])
    cluster.rpc("server").export_native("svc", {"ping": lambda ctx: None})
    monitor = PacketMonitor(cluster.net, cluster.rpc("client"))
    if record is not None:
        node_id = monitor.node_id

        def recorder(event):
            packet = event.packet
            if packet.kind in ("rpc_call", "rpc_reply") and node_id in (
                packet.src,
                packet.dst,
            ):
                record.append((event.time, packet))

        cluster.world.bus.subscribe(ev.PacketSent, recorder)
        cluster.world.bus.subscribe(ev.PacketDelivered, recorder)

    dropped = []

    def drop_first_call(packet):
        if packet.kind == "rpc_call" and not dropped:
            dropped.append(packet.packet_id)
            return True
        return False

    LinkShaper(cluster.net).add_rule(FaultRule(LOSS, match=drop_first_call))

    def caller(node):
        yield from remote_call(node.rpc, "svc", "ping")  # retransmitted
        yield from remote_call(node.rpc, "svc", "missing")  # fails

    node = cluster.node("client")
    node.spawn(caller(node), name="caller")
    cluster.run()
    assert dropped  # the retransmission path really ran
    return monitor


def test_packet_monitor_matches_legacy_replay():
    recorded: list = []
    monitor = _run_monitored_workload(record=recorded)

    legacy: dict = {}
    for at, packet in recorded:
        _legacy_observe(legacy, packet, at)

    assert legacy.keys() == monitor.calls.keys() and legacy
    for call_id, legacy_call in legacy.items():
        live_call = monitor.calls[call_id]
        assert live_call.describe() == legacy_call.describe()
        assert live_call.first_seen == legacy_call.first_seen
        assert live_call.last_seen == legacy_call.last_seen
    states = sorted(c.state for c in monitor.calls.values())
    assert states == ["completed", "failed"]
    retransmitted = [c for c in monitor.calls.values() if c.call_packets > 1]
    assert retransmitted  # the dropped first call forced a resend


def test_packet_monitor_detach_stops_observation():
    monitor = _run_monitored_workload()
    observed = dict(monitor.calls)
    monitor.detach()
    assert monitor.runtime.monitor is None
    bus = monitor.ring.world.bus
    bus.emit(ev.PacketSent, 0, 0, None)
    assert monitor.calls == observed


# ----------------------------------------------------------------------
# The one-renderer law (obs/recorder.py) that licenses a trace to store
# rows and neither fields nor lines: what render_line / row_fields derive
# from a row *after a JSON round trip* is what the old renderer (three
# walks over the live event, kept here as the oracle) produced
# ----------------------------------------------------------------------


def _old_payload_fields(event):
    for name in type(event).FIELDS:
        if name not in ("time", "node", "seq"):
            yield name, getattr(event, name)


def _old_render(rebase, name, value):
    if name == "packet" and value is not None:
        return (f"pkt#{rebase(value.packet_id)}"
                f"[{value.src}->{value.dst}:{value.port}/{value.kind}"
                f"/{value.size_bytes}B]")
    if name == "process" and value is not None:
        return f"proc[{value.pid}:{value.name}]"
    if name == "error" and value is not None:
        return f"{type(value).__name__}:{value}"
    return repr(value)


def _old_structured(rebase, name, value):
    if name == "packet" and value is not None:
        return {"pkt": rebase(value.packet_id), "src": value.src,
                "dst": value.dst, "port": value.port, "kind": value.kind,
                "size": value.size_bytes}
    if name == "process" and value is not None:
        return {"pid": value.pid, "name": value.name}
    if name == "error" and value is not None:
        return f"{type(value).__name__}:{value}"
    return value


def _old_encode(event, rebase):
    fields = {name: _old_structured(rebase, name, value)
              for name, value in _old_payload_fields(event)}
    rendered = [f"{name}={_old_render(rebase, name, value)}"
                for name, value in _old_payload_fields(event)]
    return fields, (f"{event.seq:06d} t={event.time} node={event.node} "
                    f"{type(event).__name__} " + " ".join(rendered))


def _packet(packet_id):
    return SimpleNamespace(packet_id=packet_id, src=0, dst=1, port="rpc",
                           kind="rpc_call", size_bytes=64 + packet_id)


_OBJECT_PAYLOADS = {
    "packet": _packet(907),
    "process": SimpleNamespace(pid=12, name="worker 'w'"),
    "error": ZeroDivisionError("division by zero"),
}


def _sample_events():
    """Every recordable type twice — object payloads present, then
    ``None`` — with non-default scalars, plus a drop with a reason."""
    seq = 0
    for name in ev.__all__:
        event_type = getattr(ev, name)
        if event_type is ev.Event:
            continue
        scalars = {
            name: (f"{name}'\"x" if isinstance(default, str)
                   else True if isinstance(default, bool) else 41)
            for name, default in zip(event_type.FIELDS[3:], event_type.DEFAULTS)
            if name not in _OBJECT_PAYLOADS
        }
        for objects in (_OBJECT_PAYLOADS, dict.fromkeys(_OBJECT_PAYLOADS)):
            present = {key: value for key, value in objects.items()
                       if key in event_type.FIELDS}
            seq += 1
            yield event_type(time=seq * 10, node=seq % 3 or None, seq=seq,
                             **scalars, **present)
    yield ev.PacketDropped(time=5, node=1, seq=seq + 1,
                           packet=_packet(3), reason="no_handler")


def _line(event, normalizer):
    """A live event's line: ``render_line`` over its ``encode_row``."""
    return render_line(type(event).__name__, event.time, event.node, event.seq,
                       payload_field_names(type(event)), encode_row(event, normalizer))


def check_the_law(events):
    new, old = PayloadNormalizer(), PayloadNormalizer()
    for event in events:
        fields, line = _old_encode(event, old.rebase)
        names = payload_field_names(type(event))
        row = encode_row(event, new)
        stored = tuple(json.loads(json.dumps(row)))
        assert list(map(type, stored)) == list(map(type, row))
        assert stored == row
        assert render_line(type(event).__name__, event.time, event.node,
                           event.seq, names, stored) == line
        assert row_fields(names, stored) == fields
        assert list(fields) == list(names)


def test_the_law_holds_for_every_type_with_objects_present_and_absent():
    events = list(_sample_events())
    assert {type(e).__name__ for e in events} == set(ev.__all__) - {"Event"}
    check_the_law(events)


#: Ints past 2**53 (where a float-backed decoder would round), and text
#: with what has broken renderers: quotes, backslashes, line breaks,
#: ``%``, non-ASCII, non-BMP.
_INTS = st.integers(-2 ** 70, 2 ** 70)
_WORDS = st.one_of(st.text(max_size=6), st.text(
    alphabet=st.sampled_from('a \'"\\\n\r%\u00e9\u2028\U0001f600'), max_size=6))
_SCALARS = st.one_of(st.none(), st.booleans(), _INTS, _WORDS)
_OBJECTS = {
    # Few distinct ids, so a stream meets the same packet again.
    "packet": st.builds(SimpleNamespace, packet_id=st.integers(900, 905),
                        src=_INTS, dst=_INTS, port=_WORDS, kind=_WORDS,
                        size_bytes=_INTS),
    "process": st.builds(SimpleNamespace, pid=_INTS, name=_WORDS),
    "error": st.builds(lambda kind, text: kind(text),
                       st.sampled_from([ValueError, KeyError, RuntimeError]),
                       _WORDS),
}


def _events_of(event_type):
    payload = {name: st.none() | _OBJECTS[name] if name in _OBJECTS
               else _SCALARS for name in event_type.FIELDS[3:]}
    return st.builds(event_type, time=_INTS, seq=st.integers(0, 2 ** 70),
                     node=st.none() | st.integers(0, 9), **payload)


_RECORDABLE = [name for name in ev.__all__ if name != "Event"]


@pytest.mark.parametrize("name", _RECORDABLE)
def test_the_law_holds_for_generated_payloads(name):
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(_events_of(getattr(ev, name)), min_size=1, max_size=6))
    def run(events):
        check_the_law(events)

    run()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.one_of(*(_events_of(getattr(ev, name))
                            for name in _RECORDABLE if name.startswith("Packet"))),
                min_size=1, max_size=10))
def test_two_first_seen_orders_still_cite_one_id_per_packet(events):
    """Rebased ids depend on the order a normalizer meets packets in, but
    under either order a packet has one id, ids are 1..n in first-seen
    order, and an event's row and line cite the same one."""
    for stream in (events, events[::-1]):
        normalizer, cited = PayloadNormalizer(), {}
        for event in stream:
            if event.packet is None:
                continue
            pkt = encode_row(event, normalizer)[0]
            assert cited.setdefault(event.packet.packet_id, pkt) == pkt
            assert f" packet=pkt#{pkt}[" in _line(event, normalizer)
        assert list(cited.values()) == list(range(1, len(cited) + 1))


def test_packet_ids_rebase_in_first_seen_order_line_or_row_first():
    first, second = (ev.PacketSent(time=1, node=0, seq=1, packet=_packet(900)),
                     ev.PacketDelivered(time=2, node=1, seq=2,
                                        packet=_packet(17)))
    line_first, row_first = PayloadNormalizer(), PayloadNormalizer()
    assert "pkt#1[" in _line(first, line_first)
    assert encode_row(second, line_first)[0] == 2
    assert encode_row(first, row_first)[0] == 1
    assert "pkt#2[" in _line(second, row_first)
    # A packet seen again keeps the id it was first given.
    assert encode_row(first, line_first)[0] == 1
    assert " packet=pkt#1[0->1:" in _line(first, line_first)
