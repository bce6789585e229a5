"""The shared contract every ``repro.net`` transport backend must honor.

One parametrized suite runs against every registered topology: delivery
and per-destination ordering, the hardware-NACK vs silent-loss taxonomy,
shaper decision points, crash/`survives_crash` semantics, and station
detach.  Fabric-*specific* timing (the ring's cross-destination
staircase vs the mesh's parallel links) and mesh replay byte-identity
get their own tests below the shared block.
"""

import pytest

from repro import MS, Cluster, FaultPlan, record_run, replay_trace
from repro.faults.plan import Nemesis
from repro.faults.shaper import DELAY, LOSS, NACK, FaultRule, LinkShaper
from repro.mayflower import Node
from repro.net import (
    TOPOLOGIES,
    MeshTransport,
    RingTransport,
    make_transport,
)
from repro.obs import events as ev
from repro.params import Params
from repro.sim import World

TOPOLOGY_NAMES = sorted(TOPOLOGIES)
PACKET_EVENTS = (ev.PacketSent, ev.PacketDelivered, ev.PacketNacked,
                 ev.PacketDropped)


def make_net(topology, n_nodes=3, seed=0, **params):
    """A bare world + transport + attached nodes (no cluster glue)."""
    world = World(seed=seed)
    p = Params(**params)
    net = make_transport(topology, world, p)
    nodes = [Node(i, f"n{i}", world, p) for i in range(n_nodes)]
    for node in nodes:
        net.attach(node)
    return world, net, nodes


def packet_log(net):
    """Every ``Packet*`` event the transport emits from now on, in order."""
    log = []
    net.bus.subscribe_many(PACKET_EVENTS, log.append)
    return log


def events_for(log, packet):
    """(event type name, drop reason) for one packet, in order."""
    return [(type(e).__name__, getattr(e, "reason", None))
            for e in log if e.packet is packet]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


def test_registry_maps_names_to_backends():
    world = World()
    assert isinstance(make_transport("ring", world), RingTransport)
    assert isinstance(make_transport("mesh", world), MeshTransport)


def test_unknown_topology_is_a_helpful_error():
    with pytest.raises(KeyError, match="torus.*known.*mesh.*ring"):
        make_transport("torus", World())


# ----------------------------------------------------------------------
# The shared contract (every topology)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("topology", TOPOLOGY_NAMES)
def test_basic_delivery_one_block_latency(topology):
    world, net, nodes = make_net(topology)
    arrivals = []
    nodes[1].station.register_port("p", lambda pkt: arrivals.append((world.now, pkt)))
    nodes[0].station.send(1, "p", {"x": 1})
    world.run()
    assert [(t, pkt.payload) for t, pkt in arrivals] == [(3_500, {"x": 1})]


@pytest.mark.parametrize("topology", TOPOLOGY_NAMES)
def test_same_destination_sends_stay_serialized(topology):
    """Per-destination ordering is what the RPC protocols lean on: a
    burst to one peer lands spaced by the transmitter occupancy on every
    fabric (the ring's single transmitter, the mesh's per-link one)."""
    world, net, nodes = make_net(topology)
    arrivals = []
    nodes[1].station.register_port(
        "p", lambda pkt: arrivals.append((world.now, pkt.payload))
    )
    nodes[0].station.send(1, "p", "first")
    nodes[0].station.send(1, "p", "second")
    world.run()
    assert arrivals == [(3_500, "first"), (7_000, "second")]


@pytest.mark.parametrize("topology", TOPOLOGY_NAMES)
def test_crashed_destination_is_a_hardware_nack(topology):
    world, net, nodes = make_net(topology)
    nodes[1].crash()
    nacks = []
    nodes[0].station.send(1, "p", None, on_nack=lambda pkt: nacks.append(world.now))
    world.run()
    assert nacks == [3_500]  # known by end of transmission
    assert net.total_nacked == 1 and net.total_delivered == 0


@pytest.mark.parametrize("topology", TOPOLOGY_NAMES)
def test_nack_rule_forces_hardware_nack(topology):
    world, net, nodes = make_net(topology)
    LinkShaper(net).add_rule(
        FaultRule(NACK, match=lambda pkt: pkt.port == "unlucky")
    )
    nacks, arrivals = [], []
    nodes[1].station.register_port("ok", lambda pkt: arrivals.append(pkt))
    nodes[0].station.send(1, "unlucky", None, on_nack=lambda pkt: nacks.append(pkt))
    nodes[0].station.send(1, "ok", None)
    world.run()
    assert len(nacks) == 1 and len(arrivals) == 1


@pytest.mark.parametrize("topology", TOPOLOGY_NAMES)
def test_silent_loss_is_invisible_to_the_sender(topology):
    """A LOSS rule models software loss *after* interface receipt: the
    obs stream shows sent+dropped, and on_nack must never fire (paper
    §4.1)."""
    world, net, nodes = make_net(topology)
    log = packet_log(net)
    LinkShaper(net).add_rule(FaultRule(LOSS))
    nacks = []
    packet = nodes[0].station.send(
        1, "p", None, on_nack=lambda pkt: nacks.append(pkt)
    )
    world.run()
    assert nacks == []
    assert events_for(log, packet) == [
        ("PacketSent", None), ("PacketDropped", "lost"),
    ]
    assert net.total_dropped == 1 and net.total_nacked == 0


@pytest.mark.parametrize("topology", TOPOLOGY_NAMES)
def test_match_rules_are_the_targeted_fault_path(topology):
    """A targeted fault is a shaper rule with a ``match`` predicate.  A
    LOSS rule is silent (sent, then dropped as "lost"; on_nack never
    fires), a NACK rule reaches the sender by the end of transmission,
    and a probability-1 rule draws nothing from the world's RNG, so
    moving a targeted fault onto a rule cannot shift a seeded run."""

    def run(*rules, shaped=True):
        world, net, nodes = make_net(topology, seed=11)
        log = packet_log(net)
        if shaped:
            shaper = LinkShaper(net)
            for rule in rules:
                shaper.add_rule(rule)
        nacks = []
        for port in ("p", "lost"):
            nodes[1].station.register_port(port, lambda pkt: None)
        sent = {
            port: nodes[0].station.send(
                1, port, None,
                on_nack=lambda pkt: nacks.append((world.now, pkt.port)),
            )
            for port in ("nacked", "lost", "p")
        }
        world.run()
        return world, log, nacks, sent

    world, log, nacks, sent = run(
        FaultRule(LOSS, match=lambda pkt: pkt.port == "lost"),
        FaultRule(NACK, match=lambda pkt: pkt.port == "nacked"),
    )
    assert events_for(log, sent["lost"]) == [
        ("PacketSent", None), ("PacketDropped", "lost"),
    ]
    assert events_for(log, sent["nacked"]) == [
        ("PacketSent", None), ("PacketNacked", None),
    ]
    assert events_for(log, sent["p"]) == [
        ("PacketSent", None), ("PacketDelivered", None),
    ]
    # Only the NACK rule's packet reached on_nack, when its one-block
    # transmission ended; the lost packet never did.
    assert nacks == [(3_500, "nacked")]

    bare_world = run(shaped=False)[0]
    assert world.rng.getstate() == bare_world.rng.getstate()


@pytest.mark.parametrize("topology", TOPOLOGY_NAMES)
def test_shaper_partition_nacks_across_the_cut(topology):
    world, net, nodes = make_net(topology)
    shaper = LinkShaper(net)
    shaper.partition([[0], [1, 2]])
    nacks, arrivals = [], []
    nodes[1].station.register_port("p", lambda pkt: arrivals.append(pkt))
    nodes[2].station.register_port("p", lambda pkt: arrivals.append(pkt))
    nodes[0].station.send(1, "p", None, on_nack=lambda pkt: nacks.append(pkt))
    nodes[2].station.send(1, "p", None)  # same side of the cut
    world.run()
    assert len(nacks) == 1 and len(arrivals) == 1
    shaper.heal_partition()
    nodes[0].station.send(1, "p", None, on_nack=lambda pkt: nacks.append(pkt))
    world.run()
    assert len(nacks) == 1 and len(arrivals) == 2


@pytest.mark.parametrize("topology", TOPOLOGY_NAMES)
def test_shaper_delay_rule_shifts_delivery(topology):
    world, net, nodes = make_net(topology)
    shaper = LinkShaper(net)
    rule = shaper.add_rule(FaultRule(DELAY, extra=2 * MS))
    arrivals = []
    nodes[1].station.register_port("p", lambda pkt: arrivals.append(world.now))
    nodes[0].station.send(1, "p", None)
    world.run()
    shaper.remove_rule(rule)
    nodes[0].station.send(1, "p", None)
    world.run()
    assert arrivals[0] - 3_500 == 2 * MS  # delayed
    assert arrivals[1] > arrivals[0]      # second send, undelayed path


@pytest.mark.parametrize("topology", TOPOLOGY_NAMES)
def test_in_flight_delivery_survives_destination_crash(topology):
    """A packet on the wire is not retracted by the destination crashing
    (survives_crash); it resolves as a silent interface-level drop."""
    world, net, nodes = make_net(topology)
    log = packet_log(net)
    packet = nodes[0].station.send(1, "p", None)
    world.schedule(1 * MS, nodes[1].crash)
    world.run()
    assert events_for(log, packet) == [
        ("PacketSent", None), ("PacketDropped", "down"),
    ]
    assert net.total_nacked == 0  # the sender saw a clean transmission


@pytest.mark.parametrize("topology", TOPOLOGY_NAMES)
def test_detached_station_nacks_new_sends(topology):
    world, net, nodes = make_net(topology)
    station = net.detach(nodes[1])
    assert station is not None and nodes[1].station is None
    assert net.detach(nodes[1]) is None  # idempotent
    nacks = []
    nodes[0].station.send(1, "p", None, on_nack=lambda pkt: nacks.append(pkt))
    world.run()
    assert len(nacks) == 1


@pytest.mark.parametrize("topology", TOPOLOGY_NAMES)
def test_link_down_cuts_one_direction_only(topology):
    """The link_down fault kind NACKs src->dst while dst->src still
    flows, and heals when its window closes — on every fabric."""
    cluster = Cluster(names=["a", "b"], topology=topology)
    plan = FaultPlan().link_down(at=1 * MS, src=0, dst=1, duration=20 * MS)
    Nemesis(cluster, plan)
    nacks, arrivals = [], []
    cluster.node("a").station.register_port("p", lambda pkt: arrivals.append(pkt))
    cluster.node("b").station.register_port("p", lambda pkt: arrivals.append(pkt))
    cluster.run(until=2 * MS)
    cluster.node("a").station.send(1, "p", None,
                                   on_nack=lambda pkt: nacks.append(pkt))
    cluster.node("b").station.send(0, "p", None,
                                   on_nack=lambda pkt: nacks.append(pkt))
    cluster.run(until=22 * MS)  # past the window close at 21 ms
    assert len(nacks) == 1 and len(arrivals) == 1  # only a->b cut
    cluster.node("a").station.send(1, "p", None,
                                   on_nack=lambda pkt: nacks.append(pkt))
    cluster.run(until=40 * MS)
    assert len(nacks) == 1 and len(arrivals) == 2  # healed


# ----------------------------------------------------------------------
# Where the fabrics differ: cross-destination parallelism
# ----------------------------------------------------------------------


def _broadcast_times(topology, n_nodes=5):
    world, net, nodes = make_net(topology, n_nodes=n_nodes)
    arrivals = []
    for i in range(1, n_nodes):
        nodes[i].station.register_port(
            "halt", lambda pkt, i=i: arrivals.append((world.now, i))
        )
    for i in range(1, n_nodes):
        nodes[0].station.send(i, "halt", None)
    world.run()
    return [t for t, _ in sorted(arrivals)]


def test_ring_broadcast_is_a_staircase():
    assert _broadcast_times("ring") == [3_500, 7_000, 10_500, 14_000]


def test_mesh_broadcast_is_parallel():
    assert _broadcast_times("mesh") == [3_500, 3_500, 3_500, 3_500]


def test_mesh_per_link_latency_override():
    world, net, nodes = make_net("mesh")
    net.set_link_latency(0, 1, 10 * MS)
    arrivals = []
    nodes[1].station.register_port("p", lambda pkt: arrivals.append(world.now))
    nodes[2].station.register_port("p", lambda pkt: arrivals.append(world.now))
    nodes[0].station.send(1, "p", None)   # slow WAN hop
    nodes[0].station.send(2, "p", None)   # default link
    world.run()
    assert sorted(arrivals) == [3_500, 10 * MS]
    with pytest.raises(ValueError, match="must be >= 0"):
        net.set_link_latency(0, 1, -1)


# ----------------------------------------------------------------------
# Mesh recordings replay byte-identically, topology pinned in the header
# ----------------------------------------------------------------------

ECHO_SERVER = "proc echo(x: int) returns int\n  return x\nend"

ECHO_CLIENT = """
proc main()
  var total: int := 0
  for i := 1 to 6 do
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


def _echo_build(cluster):
    server_image = cluster.load_program(ECHO_SERVER, "server")
    cluster.rpc("server").export_vm("svc", server_image, {"echo": "echo"})
    client_image = cluster.load_program(ECHO_CLIENT, "client")
    cluster.spawn_vm("client", client_image, "main")


def test_mesh_recording_replays_byte_identically():
    plan = (FaultPlan()
            .crash(at=60 * MS, node="server")
            .reboot(at=150 * MS, node="server")
            .delay(at=200 * MS, duration=200 * MS, extra=4 * MS, jitter=2 * MS))
    trace = record_run(
        _echo_build, ["client", "server"], seed=7, plan=plan,
        checkpoint_every=100 * MS, run_until=1_000 * MS, topology="mesh",
    )
    assert trace.header["topology"] == "mesh"
    assert trace.topology == "mesh"
    report = replay_trace(trace, _echo_build)
    assert report.identical and report.events == len(trace.events)


_FAN_CLIENT = """
proc a()
  var r: int := remote svca.echo(1)
  print r
end
proc b()
  var r: int := remote svcb.echo(2)
  print r
end
"""


def _fan_build(cluster):
    """Two client processes fanning out to two servers concurrently —
    the shape where the ring's single transmitter shows (two-party
    traffic is deliberately timing-identical across the fabrics)."""
    for name, svc in (("s1", "svca"), ("s2", "svcb")):
        image = cluster.load_program(ECHO_SERVER, name, module=name)
        cluster.rpc(name).export_vm(svc, image, {"echo": "echo"})
    client_image = cluster.load_program(_FAN_CLIENT, "client")
    cluster.spawn_vm("client", client_image, "a")
    cluster.spawn_vm("client", client_image, "b")


def test_topologies_diverge_for_the_same_scenario():
    """Same seed, same workload: the fabric's timing is part of the
    recorded history, so ring and mesh streams must differ."""
    ring_trace = record_run(_fan_build, ["client", "s1", "s2"], seed=7,
                            run_until=500 * MS)
    mesh_trace = record_run(_fan_build, ["client", "s1", "s2"], seed=7,
                            run_until=500 * MS, topology="mesh")
    assert ring_trace.topology == "ring"  # default threaded through
    assert ring_trace.fingerprint() != mesh_trace.fingerprint()
