"""Pilgrim, the debugger proper: sessions, source mapping, breakpoints,
cross-node backtraces, typed display, and the breakpoint log behind
convert_debuggee_time.

:class:`DebuggerSession` is the unified protocol implemented by this
simulated debugger, :class:`repro.replay.session.TraceSession`,
:class:`repro.live.debugger.LiveDebugger`, and the
:class:`repro.service.client.RemoteSession` daemon client, and
:data:`OPS` is the one table of session operations they, the REPL and
the daemon are all derived from; the typed request/response records
(:class:`ProcessInfo`, :class:`Breakpoint`, :class:`Frame`,
:class:`SessionStatus`) double as the service's wire schema, and every
failure derives from the :mod:`repro.debugger.errors` hierarchy with
stable machine-readable codes.
"""

from repro.debugger.api import (
    OPS,
    Breakpoint,
    DebuggerSession,
    Frame,
    Op,
    ProcessInfo,
    SessionBase,
    SessionStatus,
    TraceSummary,
)
from repro.debugger.errors import (
    AgentError,
    BadSessionError,
    DebuggerError,
    RequestTimeoutError,
    ServiceError,
    SessionHeldError,
    SessionTakenError,
    UnreachableNodeError,
    UnsupportedOperationError,
    error_from_wire,
)
from repro.debugger.pilgrim import PILGRIM_TIME_SERVICE, Pilgrim
from repro.debugger.timelog import BreakpointLog

__all__ = [
    "OPS",
    "PILGRIM_TIME_SERVICE",
    "AgentError",
    "BadSessionError",
    "Breakpoint",
    "BreakpointLog",
    "DebuggerError",
    "DebuggerSession",
    "Frame",
    "Op",
    "Pilgrim",
    "ProcessInfo",
    "RequestTimeoutError",
    "ServiceError",
    "SessionBase",
    "SessionHeldError",
    "SessionStatus",
    "SessionTakenError",
    "TraceSummary",
    "UnreachableNodeError",
    "UnsupportedOperationError",
    "error_from_wire",
]
