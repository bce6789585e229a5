"""Deterministic record/replay with time-travel queries.

The obs bus already makes every seeded run a typed, reproducible event
stream; this package turns that stream into a first-class artifact:

* :mod:`repro.replay.trace` — :class:`TraceWriter` subscribes to the bus
  and persists a run (seed, params, fault plan, normalized events) as a
  versioned trace; :class:`Trace` loads one back;
* :mod:`repro.replay.format` — the one on-disk format, a length-prefixed
  binary container (events in columnar blocks of 4 096, int columns as
  packed int64 and the rest as JSON, optional zlib framing) whose
  reader fails only with :class:`TraceFormatError`,
  plus the one-way JSONL export (``python -m repro.replay convert --to
  jsonl``);
* :mod:`repro.replay.checkpoint` — periodic :class:`Checkpoint`
  snapshots (state digests + folded :class:`StateView`) so seeking does
  not re-fold from t=0;
* :mod:`repro.replay.replay` — a :class:`Recipe` and the one
  :func:`execute` that runs it; :func:`record_run` / :class:`ReplayWorld`
  record and re-execute a trace deterministically and assert
  byte-identical event streams, reporting the first mismatching event
  on divergence;
* :mod:`repro.replay.timetravel` — :class:`TimeTravel` answers ``at(t)``,
  ``step`` / ``reverse_step``, ``why_halted`` and causal-predecessor
  queries (Lamport ordering over the trace);
* :mod:`repro.replay.races` — an offline message-race detector flagging
  receive-order nondeterminism between traces of the same seed family;
* :mod:`repro.replay.branch` — branching time travel: fork a recording
  at any checkpoint by re-executing its recipe with one new decision
  (fault delta, race flip), and grow a content-addressed :class:`BranchTree`
  of divergent futures with :func:`diff_branches` event-graph diffing;
* :mod:`repro.replay.session` — :class:`TraceSession` wraps a trace in
  the typed :class:`~repro.debugger.api.DebuggerSession` surface so the
  service daemon can serve post-mortem sessions next to live worlds.
"""

from repro.replay.branch import (
    Branch,
    BranchDiff,
    BranchError,
    BranchInfo,
    BranchTree,
    Perturbation,
    diff_branches,
    fork_trace,
    resolve_builder,
)
from repro.replay.checkpoint import Checkpoint, StateView, capture_view, fold_view
from repro.replay.format import TraceFormatError
from repro.replay.races import detect_races
from repro.replay.replay import (
    Recipe,
    ReplayDivergence,
    ReplayReport,
    ReplayUnsupported,
    ReplayWorld,
    execute,
    extract_verdict,
    record_run,
    replay_trace,
)
from repro.replay.session import TraceSession
from repro.replay.timetravel import Moment, TimeTravel
from repro.replay.trace import TRACE_VERSION, Trace, TraceEvent, TraceWriter

__all__ = [
    "TRACE_VERSION",
    "Trace",
    "TraceEvent",
    "TraceFormatError",
    "TraceWriter",
    "Checkpoint",
    "StateView",
    "capture_view",
    "fold_view",
    "Recipe",
    "ReplayDivergence",
    "ReplayReport",
    "ReplayUnsupported",
    "ReplayWorld",
    "execute",
    "record_run",
    "replay_trace",
    "extract_verdict",
    "Moment",
    "TimeTravel",
    "TraceSession",
    "detect_races",
    "Branch",
    "BranchDiff",
    "BranchError",
    "BranchInfo",
    "BranchTree",
    "Perturbation",
    "diff_branches",
    "fork_trace",
    "resolve_builder",
]
