"""The pluggable transport layer: stations plus the `Transport` contract.

Every network fabric in the reproduction — the serial Cambridge Ring the
paper ran on (:mod:`repro.net.ring`) and the switched point-to-point
mesh (:mod:`repro.net.mesh`) — implements :class:`Transport`.  The base
class owns everything that is *not* fabric-specific, so the paper's
hardware-visible vs silent failure taxonomy (§4.1, §5.2) and the fault
injection hooks behave identically on every backend:

* **station attach/detach** — one :class:`Station` per node, with
  software port handlers;
* **the send path** — :meth:`Transport.transmit` emits ``PacketSent``,
  asks the fabric when the transmitter frees up and how long delivery
  takes, and runs the shared **NACK decision point** (crashed
  destination interface, or the
  :class:`~repro.faults.shaper.LinkShaper`'s partitions and NACK rules)
  — hardware-visible non-receipt, reported to the sender by end of
  transmission;
* **delivery** — :meth:`Transport._deliver` runs the shared **silent
  loss decision point** (the shaper's LOSS rules, then the seeded
  ``Params.packet_loss_probability``) and dispatches to the destination
  port handler;
* **shaper scheduling** — delay/jitter, duplication, and hold-back
  reordering are applied as per-copy delivery offsets, fabric-agnostic.

Targeted faults are shaper rules: ``FaultRule(LOSS, match=...)`` drops
the packets its predicate picks, ``FaultRule(NACK, match=...)`` NACKs
them.  A record of packets is the ``Packet*`` events on the obs bus.

Concrete fabrics only answer four timing questions (transmitter
availability, transmitter occupancy, delivery latency, and how to record
a completed transmission), so a new backend is a few dozen lines.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.net.packets import BasicBlock
from repro.obs import events as ev
from repro.params import Params

if TYPE_CHECKING:
    from repro.mayflower.node import Node
    from repro.sim.world import World

PortHandler = Callable[[BasicBlock], None]
NackHandler = Callable[[BasicBlock], None]


class Station:
    """One node's network interface, fabric-independent.

    The station is the addressable endpoint: software port handlers hang
    off it, and the transport tracks transmitter occupancy through it —
    ``tx_free_at`` for single-transmitter fabrics (the ring), the
    ``link_free_at`` map for per-link fabrics (the mesh).
    """

    def __init__(self, transport: "Transport", node: "Node"):
        self.transport = transport
        self.node = node
        self.address = node.node_id
        self._ports: dict[str, PortHandler] = {}
        #: Time at which the (single) transmitter becomes free again.
        self.tx_free_at = 0
        #: Per-destination transmitter availability (mesh fabrics).
        self.link_free_at: dict[int, int] = {}

    def register_port(self, port: str, handler: PortHandler) -> None:
        """Attach a software handler for packets addressed to ``port``."""
        self._ports[port] = handler

    def clear_ports(self) -> None:
        """Drop every software port handler (node crash/reboot cleanup)."""
        self._ports.clear()

    def reset_transmitter(self) -> None:
        """Idle the transmitter(s) — part of crash/reboot cleanup."""
        self.tx_free_at = 0
        self.link_free_at.clear()

    def handler_for(self, port: str) -> Optional[PortHandler]:
        """The registered handler for ``port``, or ``None``."""
        return self._ports.get(port)

    def send(
        self,
        dst: int,
        port: str,
        payload: object,
        size_bytes: int = 64,
        kind: str = "data",
        on_nack: Optional[NackHandler] = None,
    ) -> BasicBlock:
        """Transmit a Basic Block; returns the packet for correlation.

        ``on_nack`` (if given) is invoked when the sending *hardware*
        reports that the destination interface did not accept the packet.
        Silent software-level losses do not trigger it.
        """
        packet = BasicBlock(
            src=self.address,
            dst=dst,
            port=port,
            payload=payload,
            size_bytes=size_bytes,
            kind=kind,
        )
        self.transport.transmit(self, packet, on_nack)
        return packet

    def __repr__(self) -> str:
        return f"<Station {self.address} ports={sorted(self._ports)}>"


class Transport:
    """The fabric contract plus the shared decision points.

    Subclasses set :attr:`topology` and answer the four timing
    questions (:meth:`_tx_available_at`, :meth:`_note_transmission`,
    :meth:`_latency`, :meth:`_tx_serialization`); everything else —
    station registry, NACK/loss decision points, shaper scheduling,
    instrumentation — lives here and is identical across fabrics.
    """

    #: Registry name of the fabric ("ring", "mesh", ...).
    topology = "abstract"

    def __init__(self, world: "World", params: Optional[Params] = None):
        self.world = world
        self.params = params or Params()
        self.bus = world.bus
        self.stations: dict[int, Station] = {}
        #: Optional :class:`repro.faults.LinkShaper`: every injected
        #: fault (partition, NACK, loss, delay/jitter, duplication,
        #: reordering).  ``None`` keeps the fault-free fast path.
        self.shaper = None
        metrics = world.metrics
        self._sent = metrics.labeled("ring.packets_sent")
        self._delivered = metrics.labeled("ring.packets_delivered")
        self._dropped = metrics.counter("ring.packets_dropped")
        self._nacked = metrics.counter("ring.packets_nacked")

    # Public counters, backed by the obs metric series.
    @property
    def total_sent(self) -> int:
        """Packets transmitted across all stations."""
        return self._sent.total

    @property
    def total_delivered(self) -> int:
        """Packets delivered to a registered port handler."""
        return self._delivered.total

    @property
    def total_dropped(self) -> int:
        """Packets lost silently after interface receipt."""
        return self._dropped.value

    @property
    def total_nacked(self) -> int:
        """Packets whose non-receipt was reported to the sender."""
        return self._nacked.value

    def attach(self, node: "Node") -> Station:
        """Create and register the station for a node."""
        station = Station(self, node)
        self.stations[station.address] = station
        node.station = station
        return station

    def detach(self, node: "Node") -> Optional[Station]:
        """Unregister a node's station (e.g. decommissioning).

        Packets already in flight toward the address are dropped at
        delivery time exactly like a crashed destination; new sends to
        it NACK.  Returns the removed station, or ``None``.
        """
        station = self.stations.pop(node.node_id, None)
        if station is not None:
            station.clear_ports()
            station.reset_transmitter()
            if node.station is station:
                node.station = None
        return station

    # ------------------------------------------------------------------
    # Fabric hooks (timing model)
    # ------------------------------------------------------------------

    def _tx_available_at(self, station: Station, packet: BasicBlock) -> int:
        """Earliest time ``station`` may start transmitting ``packet``."""
        raise NotImplementedError

    def _note_transmission(
        self, station: Station, packet: BasicBlock, free_at: int
    ) -> None:
        """Record that the transmitter is occupied until ``free_at``."""
        raise NotImplementedError

    def _latency(self, packet: BasicBlock) -> int:
        """Transmission-start-to-delivery latency for ``packet``."""
        raise NotImplementedError

    def _tx_serialization(self, packet: BasicBlock) -> int:
        """How long the transmitter is busy sending ``packet``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # The shared send path
    # ------------------------------------------------------------------

    def transmit(
        self,
        station: Station,
        packet: BasicBlock,
        on_nack: Optional[NackHandler],
    ) -> None:
        """Send ``packet`` from ``station``; the fabric sets the timing.

        Runs the transport-agnostic NACK decision point (crashed or
        detached destination, shaper partitions and NACK rules) and
        schedules delivery — one copy, or several when the shaper
        delays/duplicates/reorders.
        """
        # Sends may originate from a process running ahead on its node's
        # local CPU cursor; stamp transmission with the sender's time.
        now = station.node.supervisor.current_time()
        tx_start = max(now, self._tx_available_at(station, packet))
        tx_time = self._tx_serialization(packet)
        tx_done = tx_start + tx_time
        self._note_transmission(station, packet, tx_done)
        self.bus.emit(ev.PacketSent, now, packet.src, packet)

        dst_station = self.stations.get(packet.dst)
        dst_down = dst_station is None or dst_station.node.crashed
        if dst_down or (
            self.shaper is not None and self.shaper.forces_nack(packet)
        ):
            # The transmitting hardware learns of non-receipt when the
            # minipacket returns — i.e. by the end of transmission.
            self.bus.emit(ev.PacketNacked, now, packet.src, packet)
            if on_nack is not None:
                self.world.schedule_at(
                    tx_done, on_nack, packet, node=packet.src
                )
            return

        delivery_time = tx_start + self._latency(packet)
        if self.shaper is None:
            self._schedule_delivery(delivery_time, packet)
        else:
            # The shaper may delay, duplicate, or hold back (reorder) the
            # packet: one delivery per returned offset.
            for offset in self.shaper.delivery_offsets(packet):
                self._schedule_delivery(delivery_time + offset, packet)

    def _schedule_delivery(self, delivery_time: int, packet: BasicBlock) -> None:
        """Schedule the terminal delivery of one packet copy.

        The base implementation pays one kernel event per copy, tagged
        with the destination node so the event is retracted if that node
        crashes — except it is marked ``survives_crash``: the packet is
        already on the wire, so a crash resolves as a drop at delivery
        time instead.  Fabrics where many deliveries land on the same
        microsecond may override this to batch them into one kernel
        event (see :meth:`repro.net.mesh.MeshTransport._schedule_delivery`).
        """
        self.world.schedule_at(
            delivery_time, self._deliver, packet,
            node=packet.dst, survives_crash=True,
        )

    def _deliver(self, packet: BasicBlock) -> None:
        """Terminal delivery: the silent-loss decision point + dispatch."""
        now = self.world.now
        station = self.stations.get(packet.dst)
        if station is None or station.node.crashed:
            # Went down in flight: silent from the sender's viewpoint.
            self.bus.emit(ev.PacketDropped, now, packet.dst, packet, "down")
            return
        if self._should_drop(packet):
            self.bus.emit(ev.PacketDropped, now, packet.dst, packet, "lost")
            return
        handler = station.handler_for(packet.port)
        if handler is None:
            self.bus.emit(ev.PacketDropped, now, packet.dst, packet, "no_handler")
            return
        self.bus.emit(ev.PacketDelivered, now, packet.dst, packet)
        handler(packet)

    # ------------------------------------------------------------------

    def _should_drop(self, packet: BasicBlock) -> bool:
        """Silent software loss after interface receipt (paper §4.1)."""
        if self.shaper is not None and self.shaper.drops(packet):
            return True
        probability = self.params.packet_loss_probability
        return probability > 0 and self.world.rng.random() < probability

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} stations={sorted(self.stations)} "
            f"sent={self.total_sent}>"
        )

