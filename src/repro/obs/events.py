"""Typed instrumentation events.

Every event is an immutable tuple, header first — ``(time, node, seq,
*payload)`` — whose class declares its field names once (``FIELDS``)
and the defaults of its payload fields (``DEFAULTS``); each field reads
by name through a read-only accessor.  The header:

* ``time`` — virtual microseconds, stamped by the *emitter* with its own
  notion of now (a node's local CPU cursor for in-slice emissions, the
  world clock for event-context emissions), so event times line up with
  what the emitting layer observed;
* ``node`` — the node the event concerns, or ``None`` for global events;
* ``seq`` — the bus's delivery sequence number, stamped by
  :meth:`repro.obs.bus.Bus.emit`.  Events are only constructed when at
  least one subscriber exists, so ``seq`` counts *materialized* events.

Field types for cross-layer payloads (packets, processes, exceptions) are
deliberately untyped: the obs layer sits below every other subsystem and
imports none of them.
"""

from __future__ import annotations

from operator import itemgetter

__all__ = [
    "Event",
    "PacketSent",
    "PacketDelivered",
    "PacketNacked",
    "PacketDropped",
    "RpcCallStarted",
    "RpcCallRetried",
    "RpcCallCompleted",
    "RpcCallFailed",
    "ProcessCreated",
    "ProcessDeleted",
    "ProcessFailed",
    "ProcessHalted",
    "ProcessResumed",
    "BreakpointHit",
    "TimerFrozen",
    "TimerThawed",
    "FaultInjected",
    "FaultHealed",
    "NodeRebooted",
    "RpcStaleRejected",
    "Observation",
]

#: The header fields every event starts with.
HEADER = ("time", "node", "seq")


class Event(tuple):
    """Common header shared by every instrumentation event (a subclass
    gets one read-only accessor per name in its ``FIELDS``).

    The bus builds events positionally; ``Type(time=..., **payload)``
    builds one by hand (``node`` defaults to ``None``, ``seq`` to 0, a
    payload field to its declared default).  Equality and hashing
    include the type.
    """

    __slots__ = ()
    FIELDS: tuple = HEADER
    #: The defaults of ``FIELDS[3:]``, one per payload field.
    DEFAULTS: tuple = ()

    def __init_subclass__(cls) -> None:
        if len(cls.FIELDS) != len(HEADER) + len(cls.DEFAULTS):
            raise TypeError(f"{cls.__name__}: one default per payload field")
        for at, name in enumerate(cls.FIELDS):
            setattr(cls, name, property(itemgetter(at)))

    def __new__(cls, *, time, node=None, seq=0, **payload):
        cells = [payload.pop(name, default)
                 for name, default in zip(cls.FIELDS[3:], cls.DEFAULTS)]
        if payload:
            raise TypeError(f"{cls.__name__} has no field {sorted(payload)}")
        return tuple.__new__(cls, (time, node, seq, *cells))

    def __reduce__(self):
        return tuple.__new__, (type(self), tuple(self))

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash((type(self), tuple(self)))

    def __repr__(self) -> str:
        cells = ", ".join(f"{name}={value!r}" for name, value in zip(self.FIELDS, self))
        return f"{type(self).__name__}({cells})"


# ----------------------------------------------------------------------
# Ring (node = src for send-side events, dst for receive-side events)
# ----------------------------------------------------------------------


class PacketSent(Event):
    __slots__ = ()
    FIELDS, DEFAULTS = (*HEADER, "packet"), (None,)


class PacketDelivered(Event):
    __slots__ = ()
    FIELDS, DEFAULTS = (*HEADER, "packet"), (None,)


class PacketNacked(Event):
    """The transmitting hardware learned the destination interface did not
    accept the packet (the NACK driving §5.2 halt-broadcast retries)."""

    __slots__ = ()
    FIELDS, DEFAULTS = (*HEADER, "packet"), (None,)


class PacketDropped(Event):
    """Lost after interface receipt — silent from the sender's viewpoint.

    ``reason`` is ``"down"`` (destination crashed in flight), ``"lost"``
    (buffer overrun / injected software loss), or ``"no_handler"`` (no
    port handler registered at the destination).
    """

    __slots__ = ()
    FIELDS, DEFAULTS = (*HEADER, "packet", "reason"), (None, "lost")


# ----------------------------------------------------------------------
# RPC (node = the client node; server-side activity is visible through
# the packet events and the server call table)
# ----------------------------------------------------------------------


class RpcCallStarted(Event):
    __slots__ = ()
    FIELDS = (*HEADER, "call_id", "service", "proc", "protocol")
    DEFAULTS = (0, "", "", "once")


class RpcCallRetried(Event):
    __slots__ = ()
    FIELDS = (*HEADER, "call_id", "service", "proc", "retries")
    DEFAULTS = (0, "", "", 0)


class RpcCallCompleted(Event):
    """``latency``: round-trip virtual latency as seen by the calling node."""

    __slots__ = ()
    FIELDS = (*HEADER, "call_id", "service", "proc", "protocol", "latency")
    DEFAULTS = (0, "", "", "once", 0)


class RpcCallFailed(Event):
    __slots__ = ()
    FIELDS = (*HEADER, "call_id", "service", "proc", "protocol", "latency", "reason")
    DEFAULTS = (0, "", "", "once", 0, "")


# ----------------------------------------------------------------------
# Supervisor (paper §5.4: the agent "must know of the existence of every
# process")
# ----------------------------------------------------------------------


class ProcessCreated(Event):
    __slots__ = ()
    FIELDS = (*HEADER, "pid", "name", "priority", "process")
    DEFAULTS = (0, "", 0, None)


class ProcessDeleted(Event):
    __slots__ = ()
    FIELDS = (*HEADER, "pid", "name", "process", "failed")
    DEFAULTS = (0, "", None, False)


class ProcessFailed(Event):
    """Emitted after the process is finished, mirroring the legacy
    ``failure_hook`` ordering (deletion callbacks run first).  ``error``
    is the exception object itself, so subscribers can inspect it."""

    __slots__ = ()
    FIELDS = (*HEADER, "pid", "name", "process", "error")
    DEFAULTS = (0, "", None, None)


# ----------------------------------------------------------------------
# Halting and breakpoints (paper §5.2, §5.5) — dormant until a debugger
# attaches; no default subscribers.
# ----------------------------------------------------------------------


class ProcessHalted(Event):
    __slots__ = ()
    FIELDS, DEFAULTS = (*HEADER, "pid", "name"), (0, "")


class ProcessResumed(Event):
    __slots__ = ()
    FIELDS, DEFAULTS = (*HEADER, "pid", "name"), (0, "")


class BreakpointHit(Event):
    __slots__ = ()
    FIELDS = (*HEADER, "pid", "module", "proc", "pc", "line")
    DEFAULTS = (0, "", "", 0, None)


class TimerFrozen(Event):
    """A node's protocol timer set froze (the node halted)."""

    __slots__ = ()
    FIELDS, DEFAULTS = (*HEADER, "count"), (0,)


class TimerThawed(Event):
    __slots__ = ()
    FIELDS, DEFAULTS = (*HEADER, "count"), (0,)


# ----------------------------------------------------------------------
# Fault injection and recovery (the repro.faults nemesis layer)
# ----------------------------------------------------------------------


class FaultInjected(Event):
    """A nemesis began a fault.  ``fault`` names the kind (``crash``,
    ``partition``, ``loss``, ``nack``, ``delay``, ``duplicate``,
    ``reorder``); ``node`` is the affected node or ``None`` for
    link-level faults."""

    __slots__ = ()
    FIELDS, DEFAULTS = (*HEADER, "fault", "fault_id", "detail"), ("", 0, "")


class FaultHealed(Event):
    """A fault window closed (partition healed, lossy window ended)."""

    __slots__ = ()
    FIELDS, DEFAULTS = (*HEADER, "fault", "fault_id"), ("", 0)


class NodeRebooted(Event):
    """A crashed node came back with a fresh supervisor and boot epoch."""

    __slots__ = ()
    FIELDS, DEFAULTS = (*HEADER, "epoch"), (0,)


class RpcStaleRejected(Event):
    """A rebooted server refused a pre-reboot retransmit rather than risk
    executing the call a second time (exactly-once dedup across reboot)."""

    __slots__ = ()
    FIELDS, DEFAULTS = (*HEADER, "call_id", "service", "proc"), (0, "", "")


# ----------------------------------------------------------------------
# Workload observations (folded by repro.contracts)
# ----------------------------------------------------------------------


class Observation(Event):
    """A workload-level fact asserted by instrumented application code.

    Scenarios that want history-level contracts (linearizability, leader
    uniqueness) emit these around their operations — ``kind`` names the
    phase (``invoke`` / ``return`` / ``leader``), ``op``/``key``/``value``
    describe the operation, and ``pid`` ties concurrent observations to
    their emitting process.  Values are restricted to JSON scalars so a
    recorded observation folds back identically from a loaded trace.
    """

    __slots__ = ()
    FIELDS = (*HEADER, "kind", "op", "key", "value", "pid")
    DEFAULTS = ("", "", "", 0, 0)
