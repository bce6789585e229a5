"""Versioned traces of a recorded run.

A trace carries four kinds of records, stored on disk in the binary
container of :mod:`repro.replay.format` (:meth:`Trace.save` /
:meth:`Trace.load`):

* a **header** — trace version, the cluster recipe (seed, node names,
  topology, clock skews, full ``Params``), the serialized ``FaultPlan``,
  the checkpoint cadence, and caller metadata.  Everything a replayer needs
  to rebuild an identical cluster;
* one **event** line per materialized obs event, carrying both the
  structured payload (packet ids rebased to first-seen order, processes
  reduced to pid/name) and the normalized text line, both rendered
  through one :class:`~repro.obs.recorder.PayloadNormalizer`;
* interleaved **checkpoint** lines (see :mod:`repro.replay.checkpoint`);
* a **footer** — final virtual time, event count, stream fingerprint,
  and how the run was driven (``until=T`` / drained / manual), which is
  what tells a replayer how far to run.

Checkpoints are captured *inside the bus subscriber* when an event
crosses the cadence boundary — never via self-rescheduled world events,
which would keep the queue from draining and perturb the conservative
execution windows.  Capture is restricted to network/RPC events
(``SAFE_CHECKPOINT_EVENTS``): those are emitted from steady states where
the live tables and the event fold agree exactly (a reboot, by contrast,
emits its process events while the node is half-rebuilt).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Optional

from repro.obs import events as ev
from repro.obs.recorder import (
    PayloadNormalizer,
    _all_event_types,
    encode_event,
    stream_fingerprint,
)
from repro.replay.checkpoint import (
    Checkpoint,
    StateView,
    capture_state,
    capture_view,
    metric_counts,
)

if TYPE_CHECKING:
    from repro.cluster import Cluster
    from repro.faults.plan import FaultPlan

#: Version 2: a checkpoint's ``state.rng`` is a digest, not the state.
TRACE_VERSION = 2

#: Event types a checkpoint may be captured on (see module docstring).
SAFE_CHECKPOINT_EVENTS = frozenset({
    "PacketSent",
    "PacketDelivered",
    "PacketDropped",
    "PacketNacked",
    "RpcCallStarted",
    "RpcCallCompleted",
    "RpcCallFailed",
    "RpcCallRetried",
})


@dataclass(slots=True)
class TraceEvent:
    """One recorded obs event: structured payload plus normalized line."""

    index: int
    type: str
    time: int
    node: Optional[int]
    seq: int
    fields: dict
    line: str

    def to_dict(self) -> dict:
        """Serialize as one JSON record (wire protocol, JSONL export)."""
        return {
            "kind": "event",
            "i": self.index,
            "type": self.type,
            "t": self.time,
            "node": self.node,
            "seq": self.seq,
            "fields": self.fields,
            "line": self.line,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceEvent":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            index=data["i"],
            type=data["type"],
            time=data["t"],
            node=data["node"],
            seq=data["seq"],
            fields=data["fields"],
            line=data["line"],
        )

    def __repr__(self) -> str:
        return f"<TraceEvent #{self.index} {self.type} t={self.time}>"


class Trace:
    """A fully recorded run: header, events, checkpoints, footer."""

    def __init__(
        self,
        header: dict,
        events: list[TraceEvent],
        checkpoints: list[Checkpoint],
        footer: dict,
    ):
        self.header = header
        self.events = events
        self.checkpoints = checkpoints
        self.footer = footer
        #: A :class:`repro.kernel.profile.ProfileHook` when the run was
        #: recorded under ``REPRO_PROFILE=1``; :meth:`save` drops its
        #: stats next to the trace file.
        self.profile = None

    # -- derived accessors ---------------------------------------------

    @property
    def seed(self) -> int:
        """The recorded run's world seed."""
        return self.header["seed"]

    @property
    def topology(self) -> str:
        """The recorded run's transport fabric (pre-``repro.net`` traces
        carry no topology key and were all recorded on the ring)."""
        return self.header.get("topology", "ring")

    @property
    def final_time(self) -> int:
        """Virtual time when the recording was sealed."""
        return self.footer["final_time"]

    def fault_plan(self) -> Optional["FaultPlan"]:
        """The recorded fault plan, rebuilt (``None`` when faultless)."""
        from repro.faults.plan import FaultPlan
        data = self.header.get("fault_plan")
        return FaultPlan.from_dict(data) if data is not None else None

    def params(self):
        """The recorded simulation :class:`~repro.params.Params`."""
        from repro.params import Params
        return Params(**self.header["params"])

    def base_view(self) -> StateView:
        """The state at recording start (checkpoint #0, always present:
        agents spawned before the writer attached are invisible to the
        event stream, so folds must start here, not from empty)."""
        return self.checkpoints[0].view

    def lines(self) -> list[str]:
        """The normalized stream, one line per recorded event."""
        return [event.line for event in self.events]

    def fingerprint(self) -> str:
        """Digest of the normalized stream (recomputed, not the footer's)."""
        return stream_fingerprint(event.line for event in self.events)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def n_events(self) -> int:
        """Event count (wire-friendly mirror of ``len(trace.events)``)."""
        return len(self.events)

    @property
    def n_checkpoints(self) -> int:
        """Checkpoint count (wire-friendly mirror)."""
        return len(self.checkpoints)

    # -- persistence ----------------------------------------------------

    def save(self, path) -> None:
        """Write the trace to ``path`` in the binary container
        (:func:`repro.replay.format.write_binary`)."""
        from repro.replay.format import write_binary
        write_binary(self, path)
        if self.profile is not None:
            self.profile.dump_next_to(path)

    @classmethod
    def load(cls, path) -> "Trace":
        """Load and validate a trace previously written by :meth:`save`
        (:func:`repro.replay.format.read_binary`); anything else raises
        :class:`~repro.replay.format.TraceFormatError`."""
        from repro.replay.format import read_binary
        return read_binary(path)

    def __repr__(self) -> str:
        return (
            f"<Trace seed={self.header.get('seed')} events={len(self.events)} "
            f"checkpoints={len(self.checkpoints)}>"
        )


class TraceWriter:
    """Record a cluster's obs stream (plus checkpoints) into a trace.

    Attach *before* driving the run; recording is itself observable
    (subscribing materializes otherwise-dormant event types), so a
    replayer attaches its own writer to reproduce the same stream.
    """

    def __init__(
        self,
        cluster: "Cluster",
        plan: Optional["FaultPlan"] = None,
        checkpoint_every: Optional[int] = None,
        meta: Optional[dict] = None,
    ):
        self.cluster = cluster
        self.bus = cluster.world.bus
        # Not ``asdict`` (a deep-copy walk): ``extras`` is the one dict.
        params = {f.name: getattr(cluster.params, f.name)
                  for f in fields(cluster.params)}
        params["extras"] = dict(params["extras"])
        self.header = {
            "version": TRACE_VERSION,
            "seed": cluster.seed,
            "names": list(cluster.names),
            "topology": cluster.topology,
            "clock_skews": list(cluster.clock_skews),
            "params": params,
            "fault_plan": plan.to_dict() if plan is not None else None,
            "checkpoint_every": checkpoint_every,
            "meta": meta or {},
        }
        self.events: list[TraceEvent] = []
        #: Raw obs events captured during the run.  Materializing a
        #: TraceEvent is deferred to :meth:`finish`, where each event
        #: passes once through :func:`~repro.obs.recorder.encode_event`
        #: (the ledger's ``replay.finish_us_per_event``), so in the run
        #: window an event costs one list append and a checkpoint costs
        #: what is live at that instant — never the run's history (the
        #: ledger's ``replay.record_us_per_event``).  Deferral is sound
        #: because everything the normalizer reads (packet src/dst/
        #: port/kind/size and first-seen order, process pid/name) is
        #: immutable for the lifetime of the run.
        self._raw: list[ev.Event] = []
        self.checkpoints: list[Checkpoint] = []
        self._normalizer = PayloadNormalizer()
        self._types = _all_event_types()
        self._finished = False
        #: Metric values at attach; view counts are deltas against this,
        #: so fold-derived counts (which only see post-attach events)
        #: line up with live captures.
        self._base_counts = metric_counts(cluster.world.metrics)
        self._checkpoint_every = checkpoint_every
        self._next_checkpoint_at = (
            cluster.world.now + checkpoint_every
            if checkpoint_every is not None else None
        )
        self._checkpoint_pending = False
        for event_type in self._types:
            self.bus.subscribe(event_type, self._on_event)
        # Checkpoint #0: the state at attach.  Pre-attach history (the
        # agents' ProcessCreated, boot-time setup) rode the dormant path
        # and is not in the stream; every fold starts from this base.
        self._capture_checkpoint(cluster.world.now)

    # ------------------------------------------------------------------

    def _capture_checkpoint(self, time: int) -> None:
        self.checkpoints.append(Checkpoint(
            index=len(self._raw),
            time=time,
            state=capture_state(self.cluster),
            view=capture_view(self.cluster, self._base_counts, time),
        ))

    def _on_event(self, event: ev.Event) -> None:
        self._raw.append(event)
        if self._next_checkpoint_at is None:
            return
        if event.time >= self._next_checkpoint_at:
            self._checkpoint_pending = True
        if self._checkpoint_pending and type(event).__name__ in SAFE_CHECKPOINT_EVENTS:
            self._checkpoint_pending = False
            while self._next_checkpoint_at <= event.time:
                self._next_checkpoint_at += self._checkpoint_every
            self._capture_checkpoint(event.time)

    # ------------------------------------------------------------------

    def detach(self) -> None:
        """Stop observing the bus (idempotent via finish)."""
        for event_type in self._types:
            self.bus.unsubscribe(event_type, self._on_event)

    def finish(self, drive: Optional[dict] = None) -> Trace:
        """Stop recording and seal the trace.

        ``drive`` records how the run was driven so a replayer can drive
        identically: ``{"mode": "until", "until": T}``, ``{"mode":
        "drain"}``, or ``{"mode": "manual"}`` (interactive sessions,
        which support time travel but not re-execution).
        """
        if self._finished:
            raise RuntimeError("TraceWriter.finish() called twice")
        self._finished = True
        self.detach()
        self._materialize()
        footer = {
            "final_time": self.cluster.world.now,
            "events": len(self.events),
            "fingerprint": stream_fingerprint(e.line for e in self.events),
            "drive": drive or {"mode": "manual"},
        }
        return Trace(self.header, self.events, self.checkpoints, footer)

    def _materialize(self) -> None:
        """Build the TraceEvents from the raw capture, in stream order
        and one :func:`~repro.obs.recorder.encode_event` pass per event
        (the normalizer rebases packet ids by first-seen order, so the
        deferred pass renders exactly what an inline pass would have)."""
        normalizer = self._normalizer
        for index, event in enumerate(self._raw):
            fields, line = encode_event(event, normalizer)
            self.events.append(TraceEvent(
                index=index,
                type=type(event).__name__,
                time=event.time,
                node=event.node,
                seq=event.seq,
                fields=fields,
                line=line,
            ))
        self._raw.clear()

    def __repr__(self) -> str:
        return (
            f"<TraceWriter events={len(self._raw) or len(self.events)} "
            f"checkpoints={len(self.checkpoints)}>"
        )
