"""Mayflower RPC: exactly-once and maybe protocols with integral debugging
support (info blocks, call tables, recent-call buffer), plus the rejected
packet-monitor design for the paper's §4.2 ablation.

The runtime's retransmission and maybe-timeouts run on its node's
``Supervisor.timers`` (:class:`repro.mayflower.TimerSet`), which a node
halt freezes.
"""

from repro.rpc.debug import (
    ClientCallRecord,
    RecentCallBuffer,
    ServerCallRecord,
    make_info_block,
)
from repro.rpc.marshal import (
    MarshalError,
    Signature,
    check_type,
    marshal,
    unmarshal,
    wire_size,
)
from repro.rpc.monitor import PacketMonitor
from repro.rpc.registry import ServiceRegistry
from repro.rpc.runtime import RPC_PORT, RpcRuntime, ServerCallContext, remote_call

__all__ = [
    "ClientCallRecord",
    "RecentCallBuffer",
    "ServerCallRecord",
    "make_info_block",
    "MarshalError",
    "Signature",
    "check_type",
    "marshal",
    "unmarshal",
    "wire_size",
    "PacketMonitor",
    "ServiceRegistry",
    "RPC_PORT",
    "RpcRuntime",
    "ServerCallContext",
    "remote_call",
]
