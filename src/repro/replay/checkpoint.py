"""Checkpoints: periodic state digests so replay can seek without
re-folding from t=0.

Agent bodies are Python generators, so a checkpoint cannot deep-copy the
live cluster and resume it.  Instead a checkpoint stores two things:

* a :class:`StateView` — the debugger-visible digest (process tables,
  halted sets, in-flight RPC calls, boot epochs, event counts) that can
  *also* be derived by folding the trace's events, which is how
  ``at(t)`` seeks: nearest checkpoint at or before the target, then fold
  the few events in between (:func:`fold_view`);
* a raw state digest (world clock, a SHA-256 of the RNG state,
  per-node clock deltas and CPU consumption) used by replay
  verification: a replayed run must reproduce every checkpoint
  bit-for-bit, which catches divergence in state the event stream does
  not spell out.  Nothing is ever restored from it, so the RNG is
  pinned by digest (:func:`rng_digest`), not stored.

Capturing one costs what is live at that instant, not what the run has
done so far: :func:`capture_view` walks each supervisor's live
processes and each runtime's open client calls, never the tables of
finished ones.  Counts are not read off the metric series, which count
the same bus events: a recording's are the previous checkpoint's plus
its own tally since (:func:`add_counts`, as time travel's are).

The fold and the live capture agree *at checkpoint events* by
construction: every layer mutates its tables before emitting the
corresponding event, and the trace writer only captures checkpoints on
network/RPC events (see ``SAFE_CHECKPOINT_EVENTS`` in
:mod:`repro.replay.trace`), which never land mid-reboot.  One deliberate
asymmetry: a crashed node's un-completed client calls stay in its (dead)
client table until reboot swaps the runtime, so the fold keeps them too
and clears the node's in-flight set on ``NodeRebooted``, not on the
crash.
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.mayflower.process import ProcessState
from repro.obs.metrics import COUNTED
from repro.obs.recorder import row_layout

if TYPE_CHECKING:
    from repro.cluster import Cluster

#: Counted event type name -> its view count key, in ``COUNTED`` order.
_COUNT_KEYS = {row.type.__name__: row.key for row in COUNTED}


#: A node's entry in a checkpoint's raw ``state["nodes"]``: its fields,
#: in the order a trace file stores its cells, and each cell's type.
NODE_STATE = {"clock_delta": int, "clock_skew": int, "cpu_consumed": int,
              "crashed": bool, "epoch": int, "name": str}


def add_counts(counts: dict, kinds, codes: tuple, start: int, stop: int) -> None:
    """Add to ``counts`` the events of each counted type in
    ``kinds[start:stop]``, where ``codes`` are the types' bytes in
    ``kinds``, in :data:`_COUNT_KEYS` order: one C-level count each."""
    kinds = kinds[start:stop]
    for code, key in zip(codes, _COUNT_KEYS.values()):
        seen = kinds.count(code)
        if seen:
            counts[key] = counts.get(key, 0) + seen


@dataclass
class StateView:
    """The debugger-visible digest of a cluster at one instant.

    All mapping keys are strings (node ids, pids) so a view survives a
    JSON round trip unchanged and compares with ``==`` against a loaded
    one.
    """

    time: int = 0
    #: node -> pid -> {"name", "priority"} for live processes.
    processes: dict = field(default_factory=dict)
    #: node -> sorted pids currently halted.
    halted: dict = field(default_factory=dict)
    #: node -> sorted client call ids still in flight.
    in_flight: dict = field(default_factory=dict)
    #: node -> boot epoch.
    epochs: dict = field(default_factory=dict)
    #: Events per counted type since the trace writer attached, keyed
    #: as :data:`repro.obs.metrics.COUNTED` names them.
    counts: dict = field(default_factory=lambda: dict.fromkeys(_COUNT_KEYS.values(), 0))

    def copy(self) -> "StateView":
        """Deep-enough copy so folds never alias a cached view.  The
        per-process ``{name, priority}`` dicts are shared: a fold writes
        one when the process is created and only ever drops it whole."""
        return StateView(
            time=self.time,
            processes={n: t.copy() for n, t in self.processes.items()},
            halted={n: pids.copy() for n, pids in self.halted.items()},
            in_flight={n: ids.copy() for n, ids in self.in_flight.items()},
            epochs=self.epochs.copy(),
            counts=self.counts.copy(),
        )

    def to_dict(self) -> dict:
        """Serialize for a checkpoint trace line: its fields in order (the
        tables themselves, not copies)."""
        return dict(vars(self))

    @classmethod
    def from_dict(cls, data: dict) -> "StateView":
        """Rebuild from a checkpoint trace line (every field required)."""
        return cls(data["time"], data["processes"], data["halted"], data["in_flight"],
                   data["epochs"], data["counts"])


def share_unchanged(view: StateView, checkpoints: list) -> StateView:
    """Give ``view`` the last of ``checkpoints``' object for each per-node
    process, halted and in-flight table, and for the epochs, that it
    equals.  A checkpoint's tables are never mutated (:meth:`StateView.copy`
    copies each before a fold), so one that repeats the one before it
    holds nothing new."""
    if checkpoints:
        previous = checkpoints[-1].view
        for tables, before in ((view.processes, previous.processes),
                               (view.halted, previous.halted),
                               (view.in_flight, previous.in_flight)):
            for node, table in tables.items():
                if before.get(node) == table:
                    tables[node] = before[node]
        if view.epochs == previous.epochs:
            view.epochs = previous.epochs
    return view


def capture_view(cluster: "Cluster", time: int,
                 shared: Optional[dict] = None) -> StateView:
    """Digest the live cluster's tables (the capture side of the
    equivalence), visiting live processes only; equal ``{name,
    priority}`` records are one, kept in ``shared`` (a writer's across
    its checkpoints).  Its counts are 0: a recording adds its own tally
    (:func:`add_counts`)."""
    view = StateView(time=time)
    shared = {} if shared is None else shared
    for node in cluster.nodes:
        key = str(node.node_id)
        table = {}
        halted = []
        for process in node.supervisor.live_processes():
            table[str(process.pid)] = shared.setdefault(
                (process.name, process.priority),
                {"name": process.name, "priority": process.priority})
            if process.state is ProcessState.HALTED:
                halted.append(process.pid)
        view.processes[key] = table
        view.halted[key] = sorted(halted)
        runtime = getattr(node, "rpc", None)
        calls = []
        if runtime is not None:
            calls = [cid for cid, rec in runtime.client_table.items()
                     if not rec.completed]
        view.in_flight[key] = sorted(calls)
        view.epochs[key] = node.epoch
    return view


def empty_view(node_ids, time: int = 0) -> StateView:
    """A view with every table present but empty (the fold's origin for
    a cluster observed from birth)."""
    view = StateView(time=time)
    for node_id in node_ids:
        key = str(node_id)
        view.processes[key] = {}
        view.halted[key] = []
        view.in_flight[key] = []
        view.epochs[key] = 0
    return view


def _process_created(view: StateView, node: str, cells, slot: int, at: dict) -> None:
    view.processes.setdefault(node, {})[str(cells[at["pid"]][slot])] = {
        "name": cells[at["name"]][slot], "priority": cells[at["priority"]][slot],
    }


def _process_deleted(view: StateView, node: str, cells, slot: int, at: dict) -> None:
    view.processes.get(node, {}).pop(str(cells[at["pid"]][slot]), None)
    _unhalt(view, node, cells, slot, at)


def _process_halted(view: StateView, node: str, cells, slot: int, at: dict) -> None:
    halted = view.halted.setdefault(node, [])
    pid = cells[at["pid"]][slot]
    if pid not in halted:
        halted.append(pid)
        halted.sort()


def _unhalt(view: StateView, node: str, cells, slot: int, at: dict) -> None:
    halted = view.halted.get(node)
    pid = cells[at["pid"]][slot]
    if halted and pid in halted:
        halted.remove(pid)


def _call_started(view: StateView, node: str, cells, slot: int, at: dict) -> None:
    calls = view.in_flight.setdefault(node, [])
    call_id = cells[at["call_id"]][slot]
    if call_id not in calls:
        calls.append(call_id)
        calls.sort()


def _call_ended(view: StateView, node: str, cells, slot: int, at: dict) -> None:
    calls = view.in_flight.get(node)
    call_id = cells[at["call_id"]][slot]
    if calls and call_id in calls:
        calls.remove(call_id)


def _node_rebooted(view: StateView, node: str, cells, slot: int, at: dict) -> None:
    view.epochs[node] = cells[at["epoch"]][slot]
    # The fresh boot starts with an empty client table; the crashed
    # boot's un-completed calls die with it here, not at the crash
    # (the dead table keeps them until the runtime is swapped).
    view.in_flight[node] = []


#: Event type -> how it changes the tables, given the columns of the
#: event's type, the event's ``slot`` in them and ``at``, where each
#: payload field sits in a row (types absent here, packets above all,
#: only move the clock and a count).
_TABLE_FOLDS = {
    "ProcessCreated": _process_created,
    "ProcessDeleted": _process_deleted,
    "ProcessHalted": _process_halted,
    "ProcessResumed": _unhalt,
    "RpcCallStarted": _call_started,
    "RpcCallCompleted": _call_ended,
    "RpcCallFailed": _call_ended,
    "NodeRebooted": _node_rebooted,
}


def apply_event(view: StateView, event) -> None:
    """Fold one trace event into ``view`` — the one definition of what an
    event does to a view, and the reference the column folds of time
    travel are tested against.

    ``event`` is anything with ``type`` / ``node`` / ``time`` / ``names``
    / ``row`` attributes (a :class:`~repro.replay.trace.TraceEvent`); its
    row is read as one-cell columns, at slot 0.
    """
    if event.time > view.time:
        view.time = event.time
    count_key = _COUNT_KEYS.get(event.type)
    if count_key is not None:
        view.counts[count_key] = view.counts.get(count_key, 0) + 1
    fold = _TABLE_FOLDS.get(event.type)
    if fold is not None:
        fold(view, str(event.node), tuple(zip(event.row)), 0, row_layout(event.names)[0])


def fold_view(events, upto_index: int, start: StateView) -> StateView:
    """Fold ``events[start_index:upto_index]`` onto a copy of ``start``.

    ``start`` must be the view as of some checkpoint whose index gives
    the slice's origin; callers pass ``events`` already sliced.
    """
    view = start.copy()
    for event in events[:upto_index]:
        apply_event(view, event)
    return view


def rng_digest(rng) -> str:
    """SHA-256 (hex) of a ``random.Random``'s full state: generator
    version, the packed Mersenne words (position included) and the
    cached gauss tail.  Nothing restores an RNG from a checkpoint —
    replay re-derives it from the seed — so pinning the position takes
    64 characters, not 625 words (as little-endian ``uint32``)."""
    version, words, gauss = rng.getstate()
    packed = array("I", words)
    if sys.byteorder == "big":
        packed.byteswap()
    digest = hashlib.sha256(packed)
    digest.update(f"{version}:{gauss!r}".encode())
    return digest.hexdigest()


def capture_state(cluster: "Cluster") -> dict:
    """The raw replay-verification digest: deterministic state that the
    event stream does not spell out (RNG position, clock deltas, CPU)."""
    nodes = {}
    for node in cluster.nodes:
        nodes[str(node.node_id)] = {
            "name": node.name,
            "epoch": node.epoch,
            "crashed": node.crashed,
            "clock_delta": node.clock.delta,
            "clock_skew": node.clock.skew,
            "cpu_consumed": node.supervisor.cpu_consumed,
        }
    return {
        "world_now": cluster.world.now,
        "events_processed": cluster.world.events_processed,
        "rng": rng_digest(cluster.world.rng),
        "nodes": nodes,
    }


@dataclass
class Checkpoint:
    """One seek point: taken after ``index`` events were recorded."""

    index: int
    time: int
    state: dict
    view: StateView

    def to_dict(self) -> dict:
        """Serialize for one checkpoint record (binary or JSONL)."""
        return dict(vars(self), view=self.view.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "Checkpoint":
        """Rebuild from a checkpoint record (binary or JSONL)."""
        return cls(data["index"], data["time"], data["state"], StateView.from_dict(data["view"]))

    def __repr__(self) -> str:
        return f"<Checkpoint index={self.index} t={self.time}>"
