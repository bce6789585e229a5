"""Packet types shared by every :mod:`repro.net` transport backend.

The unit of transmission is the *Basic Block* — "the lowest level protocol
generally available" (paper §5.2).  A small Basic Block takes about 3.5 ms
end to end on the Cambridge Ring; larger payloads pay a per-KiB surcharge.
The switched mesh reuses the same framing so upper layers (RPC, agents,
debugger) are fabric-independent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

_packet_ids = itertools.count(1)


@dataclass
class BasicBlock:
    """One Basic Block message on the network.

    ``kind`` is free-form metadata read by fault rules' ``match``
    predicates and the obs stream (and by the rejected packet-monitor
    RPC debugging design of paper §4.2): e.g. ``rpc_call``,
    ``rpc_reply``, ``rpc_ack``, ``agent_request``, ``halt``.
    """

    src: int
    dst: int
    port: str
    payload: Any
    size_bytes: int = 64
    kind: str = "data"
    packet_id: int = field(default_factory=lambda: next(_packet_ids))

    def __repr__(self) -> str:
        return (
            f"<BB#{self.packet_id} {self.kind} {self.src}->{self.dst}:{self.port} "
            f"{self.size_bytes}B>"
        )

