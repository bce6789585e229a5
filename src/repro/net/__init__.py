"""``repro.net`` — the pluggable transport layer.

The paper's headline timing claims (3.5 ms Basic Blocks, serial sends,
"confident of contacting only two nodes" during a halt broadcast) are
properties of one fabric: the Cambridge Ring.  This package separates
the *transport contract* from any particular fabric so the debugging
methodology can be measured against others:

* :class:`~repro.net.base.Transport` — the contract: station
  attach/detach, the send path with the shared hardware-NACK and
  silent-loss decision points, shaper-driven delivery scheduling.  The
  one way to inject a fault is a :class:`repro.faults.LinkShaper` rule,
  and the one packet record is the ``Packet*`` events on the obs bus;
* :class:`~repro.net.ring.RingTransport` — the Cambridge Ring
  (``topology="ring"``): one transmitter per station, serial sends;
* :class:`~repro.net.mesh.MeshTransport` — a switched point-to-point
  mesh (``topology="mesh"``): a dedicated transmitter per directed
  link, parallel delivery, configurable per-link latency.

:func:`make_transport` builds a backend by topology name; the registry
is what :class:`repro.cluster.Cluster`, the replay trace header, and
the campaign grid thread their ``topology=`` axis through.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.net.base import Station, Transport
from repro.net.mesh import MeshTransport
from repro.net.packets import BasicBlock
from repro.net.ring import RingTransport

if TYPE_CHECKING:
    from repro.params import Params
    from repro.sim.world import World

#: Topology name -> Transport subclass.  Extend to register new fabrics.
TOPOLOGIES: dict = {
    RingTransport.topology: RingTransport,
    MeshTransport.topology: MeshTransport,
}


def make_transport(
    topology: str, world: "World", params: Optional["Params"] = None
) -> Transport:
    """Instantiate the transport backend registered under ``topology``."""
    cls = TOPOLOGIES.get(topology)
    if cls is None:
        known = ", ".join(sorted(TOPOLOGIES))
        raise KeyError(f"unknown topology {topology!r} (known: {known})")
    return cls(world, params)


__all__ = [
    "Transport",
    "Station",
    "RingTransport",
    "MeshTransport",
    "TOPOLOGIES",
    "make_transport",
    "BasicBlock",
]
