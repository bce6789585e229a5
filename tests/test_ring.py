"""Unit tests for the Cambridge Ring model."""

from repro.faults.shaper import LOSS, NACK, FaultRule, LinkShaper
from repro.mayflower import Node
from repro.net import RingTransport
from repro.obs import events as ev
from repro.params import Params
from repro.sim import MS, World

PACKET_EVENTS = (ev.PacketSent, ev.PacketDelivered, ev.PacketNacked,
                 ev.PacketDropped)


def make_ring(n_nodes=3, seed=0, **params):
    world = World(seed=seed)
    p = Params(**params)
    ring = RingTransport(world, p)
    nodes = [Node(i, f"n{i}", world, p) for i in range(n_nodes)]
    for node in nodes:
        ring.attach(node)
    return world, ring, nodes


def packet_log(ring):
    """Every ``Packet*`` event the ring emits from now on, in order."""
    log = []
    ring.bus.subscribe_many(PACKET_EVENTS, log.append)
    return log


def events_for(log, packet):
    """Event type names recorded for one packet, in order."""
    return [type(e).__name__ for e in log if e.packet is packet]


def test_basic_delivery_latency():
    world, ring, nodes = make_ring()
    arrivals = []
    nodes[1].station.register_port("p", lambda pkt: arrivals.append((world.now, pkt)))
    nodes[0].station.send(1, "p", {"x": 1})
    world.run()
    assert len(arrivals) == 1
    when, pkt = arrivals[0]
    assert when == 3_500  # one Basic Block latency
    assert pkt.payload == {"x": 1}
    assert pkt.src == 0 and pkt.dst == 1


def test_serial_sends_are_spaced():
    """No data-link broadcast: a burst from one station lands at k*3.5ms."""
    world, ring, nodes = make_ring(n_nodes=5)
    arrivals = []
    for i in range(1, 5):
        nodes[i].station.register_port(
            "halt", lambda pkt, i=i: arrivals.append((world.now, i))
        )
    for i in range(1, 5):
        nodes[0].station.send(i, "halt", None)
    world.run()
    times = [t for t, _ in sorted(arrivals)]
    assert times == [3_500, 7_000, 10_500, 14_000]


def test_sends_from_different_stations_not_serialized():
    world, ring, nodes = make_ring()
    arrivals = []
    nodes[2].station.register_port("p", lambda pkt: arrivals.append(world.now))
    nodes[0].station.send(2, "p", None)
    nodes[1].station.send(2, "p", None)
    world.run()
    assert arrivals == [3_500, 3_500]


def test_large_payload_pays_surcharge():
    world, ring, nodes = make_ring()
    arrivals = []
    nodes[1].station.register_port("p", lambda pkt: arrivals.append(world.now))
    nodes[0].station.send(1, "p", b"", size_bytes=64 + 2048)
    world.run()
    assert arrivals == [3_500 + 2 * 500]


def test_send_to_crashed_node_gets_hardware_nack():
    world, ring, nodes = make_ring()
    nodes[1].crash()
    nacks = []
    nodes[0].station.send(1, "p", None, on_nack=lambda pkt: nacks.append(world.now))
    world.run()
    assert len(nacks) == 1
    # NACK is known by end of transmission, before full delivery latency.
    assert nacks[0] <= 3_500


def test_send_to_unknown_station_nacks():
    world, ring, nodes = make_ring()
    nacks = []
    nodes[0].station.send(99, "p", None, on_nack=lambda pkt: nacks.append(1))
    world.run()
    assert nacks == [1]


def test_probabilistic_interface_nack_retransmission():
    """The halt broadcast's negative-acknowledgement scheme: retransmit on
    hardware NACK until the destination interface accepts."""
    world, ring, nodes = make_ring(seed=3)
    LinkShaper(ring).add_rule(FaultRule(NACK, probability=0.5))
    delivered = []
    nodes[1].station.register_port("p", lambda pkt: delivered.append(world.now))

    def send_with_retry(pkt=None):
        nodes[0].station.send(1, "p", None, on_nack=lambda _p: send_with_retry())

    send_with_retry()
    world.run()
    assert len(delivered) == 1


def test_silent_loss_rule():
    world, ring, nodes = make_ring()
    delivered = []
    nacks = []
    nodes[1].station.register_port("p", lambda pkt: delivered.append(pkt))
    LinkShaper(ring).add_rule(
        FaultRule(LOSS, match=lambda pkt: pkt.kind == "rpc_call")
    )
    nodes[0].station.send(
        1, "p", None, kind="rpc_call", on_nack=lambda pkt: nacks.append(pkt)
    )
    world.run()
    assert delivered == []
    assert nacks == []  # software loss is silent: no hardware NACK


def test_probabilistic_silent_loss():
    world, ring, nodes = make_ring(seed=1, packet_loss_probability=0.5)
    delivered = []
    nodes[1].station.register_port("p", lambda pkt: delivered.append(pkt))
    for _ in range(100):
        nodes[0].station.send(1, "p", None)
    world.run()
    assert 20 < len(delivered) < 80


def test_no_handler_is_silent_drop():
    world, ring, nodes = make_ring()
    log = packet_log(ring)
    nodes[0].station.send(1, "nobody-home", None)
    world.run()
    assert isinstance(log[-1], ev.PacketDropped)
    assert log[-1].reason == "no_handler"


def test_packet_events_record_lifecycle():
    world, ring, nodes = make_ring()
    log = packet_log(ring)
    nodes[1].station.register_port("p", lambda pkt: None)
    pkt = nodes[0].station.send(1, "p", None, kind="rpc_call")
    world.run()
    assert events_for(log, pkt) == ["PacketSent", "PacketDelivered"]
    assert len([e for e in log if e.packet.kind == "rpc_call"]) == 2


def test_packet_events_record_nack():
    world, ring, nodes = make_ring()
    log = packet_log(ring)
    nodes[2].crash()
    pkt = nodes[0].station.send(2, "p", None)
    world.run()
    assert events_for(log, pkt) == ["PacketSent", "PacketNacked"]


def test_crash_in_flight_drops_silently():
    world, ring, nodes = make_ring()
    log = packet_log(ring)
    pkt = nodes[0].station.send(1, "p", None)
    world.run(until=1 * MS)
    nodes[1].crash()
    world.run()
    assert events_for(log, pkt) == ["PacketSent", "PacketDropped"]
    assert log[-1].reason == "down"


def test_counters():
    world, ring, nodes = make_ring()
    nodes[1].station.register_port("p", lambda pkt: None)
    nodes[0].station.send(1, "p", None)
    nodes[0].station.send(1, "nope", None)
    world.run()
    assert ring.total_sent == 2
    assert ring.total_delivered == 1
    assert ring.total_dropped == 1
