"""Deterministic re-execution of a recorded trace.

:func:`record_run` drives a scenario under a :class:`TraceWriter`;
:class:`ReplayWorld` rebuilds an identical cluster from the trace header
(seed, names, skews, params, fault plan), re-runs the same scenario, and
:meth:`ReplayWorld.verify` asserts the replayed event stream is
byte-identical to the recording — divergence is reported with the first
mismatching event.  Checkpoints are cross-checked too: the replay must
reproduce every recorded state digest (RNG position included), which
catches drift the event stream alone would miss.

The *scenario* (programs, services, workload) is not serializable, so
both sides take the same ``build(cluster)`` callable; the trace pins
everything else.  Interactive recordings (``drive.mode == "manual"``,
e.g. from a live :class:`~repro.debugger.pilgrim.Pilgrim` session)
support time travel but not re-execution — the debugger's request
timing is not part of the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.debugger.errors import DebuggerError, register_error
from repro.replay.trace import Trace, TraceWriter


@register_error
class ReplayDivergence(DebuggerError, AssertionError):
    """The replayed stream differs from the recording.

    Carries the first mismatching event index, the expected (recorded)
    and actual (replayed) normalized lines — ``None`` on a length
    mismatch — and ``kind`` (``"event"``, ``"checkpoint"``, or
    ``"final_time"``).  Part of the :mod:`repro.debugger.errors`
    hierarchy (code ``divergence``) so the session daemon relays it
    losslessly; still an :class:`AssertionError` for its long-standing
    test-facing contract.
    """

    code = "divergence"

    def __init__(self, kind: str, index: int,
                 expected: Optional[str], actual: Optional[str]):
        self.kind = kind
        self.index = index
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"replay diverged ({kind}) at index {index}:\n"
            f"  expected: {expected!r}\n"
            f"  actual:   {actual!r}"
        )


class ReplayUnsupported(RuntimeError):
    """The trace cannot be re-executed (manually driven recording)."""


@dataclass
class ReplayReport:
    """Outcome of a verified replay."""

    events: int
    checkpoints_verified: int
    final_time: int
    fingerprint: str
    identical: bool = True
    notes: list = field(default_factory=list)


def record_run(
    build: Callable,
    names: list[str],
    seed: int = 0,
    params=None,
    plan=None,
    checkpoint_every: Optional[int] = None,
    run_until: Optional[int] = None,
    clock_skews: Optional[list[int]] = None,
    meta: Optional[dict] = None,
    topology: str = "ring",
    contracts=None,
) -> Trace:
    """Record one scenario run and return the sealed trace.

    ``build(cluster)`` installs programs/services/workload; the rest of
    the recipe (seed, names, skews, params, plan) lands in the trace
    header so :class:`ReplayWorld` can repeat it exactly.  The replayer
    performs the same steps in the same order: build cluster, attach
    writer, run ``build``, apply the plan, drive.

    ``contracts`` (a :class:`~repro.contracts.dsl.ContractSet` or
    contract iterable) additionally attaches an online
    :class:`~repro.contracts.online.ContractMonitor` beside the writer;
    its finished report lands on the returned trace as
    ``trace.contract_report`` — byte-identical, by construction, to
    ``check_trace(trace, contracts)`` over the same recording.
    """
    from repro.cluster import Cluster
    from repro.faults.plan import Nemesis
    from repro.kernel.profile import ProfileHook

    cluster = Cluster(names=names, seed=seed, params=params,
                      clock_skews=clock_skews, topology=topology)
    writer = TraceWriter(cluster, plan=plan, checkpoint_every=checkpoint_every,
                         meta=meta)
    monitor = None
    if contracts is not None:
        from repro.contracts.online import ContractMonitor

        monitor = ContractMonitor(cluster.world.bus, contracts)
    build(cluster)
    if plan is not None:
        Nemesis(cluster, plan)
    # REPRO_PROFILE=1 wraps the drive in cProfile; the stats land next
    # to the trace file when it is saved (see EXPERIMENTS.md).
    hook = ProfileHook()
    with hook:
        if run_until is not None:
            cluster.run(until=run_until)
            drive = {"mode": "until", "until": run_until}
        else:
            cluster.run()
            drive = {"mode": "drain"}
    trace = writer.finish(drive=drive)
    trace.profile = hook
    if monitor is not None:
        trace.contract_report = monitor.report()
    return trace


class ReplayWorld:
    """Re-execute a recorded trace against the same scenario builder."""

    def __init__(self, trace: Trace, build: Callable,
                 run_until: Optional[int] = None):
        from repro.cluster import Cluster
        from repro.faults.plan import Nemesis

        self.trace = trace
        header = trace.header
        self.cluster = Cluster(
            names=list(header["names"]),
            seed=header["seed"],
            params=trace.params(),
            clock_skews=list(header["clock_skews"]),
            topology=trace.topology,
        )
        self.writer = TraceWriter(
            self.cluster,
            plan=trace.fault_plan(),
            checkpoint_every=header.get("checkpoint_every"),
        )
        build(self.cluster)
        plan = trace.fault_plan()
        if plan is not None:
            Nemesis(self.cluster, plan)
        self._run_until = run_until
        self._replayed: Optional[Trace] = None

    def run(self) -> Trace:
        """Drive the replay exactly as the recording was driven."""
        if self._replayed is not None:
            return self._replayed
        drive = dict(self.trace.footer.get("drive") or {"mode": "manual"})
        if self._run_until is not None:
            drive = {"mode": "until", "until": self._run_until}
        mode = drive.get("mode")
        if mode == "until":
            self.cluster.run(until=drive["until"])
        elif mode == "drain":
            self.cluster.run()
        else:
            raise ReplayUnsupported(
                "trace was recorded from a manually driven session; "
                "re-execution needs a run boundary (pass run_until=...)"
            )
        self._replayed = self.writer.finish(drive=drive)
        return self._replayed

    def verify(self) -> ReplayReport:
        """Run (if needed) and assert byte-identity with the recording."""
        recorded = self.trace
        replayed = self.run()
        require_same_events(recorded, replayed)
        if recorded.final_time != replayed.final_time:
            raise ReplayDivergence(
                "final_time", len(recorded.events),
                str(recorded.final_time), str(replayed.final_time),
            )
        verified = 0
        for rec_cp, rep_cp in zip(recorded.checkpoints, replayed.checkpoints):
            if rec_cp.index != rep_cp.index or rec_cp.time != rep_cp.time:
                raise ReplayDivergence(
                    "checkpoint", rec_cp.index,
                    f"checkpoint at index {rec_cp.index} t={rec_cp.time}",
                    f"checkpoint at index {rep_cp.index} t={rep_cp.time}",
                )
            if rec_cp.view.to_dict() != rep_cp.view.to_dict():
                raise ReplayDivergence(
                    "checkpoint", rec_cp.index,
                    repr(rec_cp.view.to_dict()), repr(rep_cp.view.to_dict()),
                )
            if rec_cp.state != rep_cp.state:
                raise ReplayDivergence(
                    "checkpoint", rec_cp.index,
                    *_state_difference(rec_cp.state, rep_cp.state),
                )
            verified += 1
        if len(recorded.checkpoints) != len(replayed.checkpoints):
            raise ReplayDivergence(
                "checkpoint", verified,
                f"{len(recorded.checkpoints)} checkpoints",
                f"{len(replayed.checkpoints)} checkpoints",
            )
        return ReplayReport(
            events=len(replayed.events),
            checkpoints_verified=verified,
            final_time=replayed.final_time,
            fingerprint=replayed.fingerprint(),
        )


def require_same_events(expected: Trace, actual: Trace,
                        upto: Optional[int] = None) -> None:
    """Raise the ``"event"`` :class:`ReplayDivergence` at the first event
    below ``upto`` (default: all) on which the two streams differ, citing
    both lines (``None`` for a stream that has run out).  The columns are
    compared; only the diverging pair is rendered."""
    index = expected.events.first_difference(actual.events, upto)
    if index is not None:
        raise ReplayDivergence("event", index, *(
            events[index].line if index < len(events) else None
            for events in (expected.events, actual.events)))


#: Shown for a state key one side of a checkpoint comparison lacks (a
#: loaded trace's ``state`` is whatever its file held).
_ABSENT = "<absent>"


def _flatten(state: dict, prefix: str = "") -> dict:
    """A checkpoint state with dotted keys (``nodes.0.cpu_consumed``)."""
    flat = {}
    for key, value in state.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}."))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


def _state_difference(recorded: dict, replayed: dict) -> tuple[str, str]:
    """Render the keys at which two checkpoint states differ, once with
    the recorded values and once with the replayed ones."""
    recorded, replayed = _flatten(recorded), _flatten(replayed)
    keys = sorted(
        key for key in recorded.keys() | replayed.keys()
        if recorded.get(key, _ABSENT) != replayed.get(key, _ABSENT)
    )

    def render(side: dict) -> str:
        return ", ".join(f"{key}={side.get(key, _ABSENT)!r}" for key in keys)

    return render(recorded), render(replayed)


def replay_trace(trace: Trace, build: Callable,
                 run_until: Optional[int] = None) -> ReplayReport:
    """Convenience: rebuild, re-run, and verify in one call."""
    return ReplayWorld(trace, build, run_until=run_until).verify()


def extract_verdict(trace: Trace) -> dict:
    """Fold the failure-relevant facts out of a recorded trace.

    The campaign runner attaches one of these to every failing cell so
    the report can say *what kind* of failure the trace holds without
    re-executing it: counts of failed RPC calls / failed processes /
    stale rejections / injected faults, the distinct failed call ids,
    and the earliest failure's time and index (where a shrinker or a
    human should start reading).
    """
    events = trace.events
    counts = {key: events.types.count(kind) for kind, key in (
        ("RpcCallFailed", "rpc_failed"), ("ProcessFailed", "proc_failed"),
        ("RpcStaleRejected", "rpc_stale_rejected"), ("FaultInjected", "faults_injected"))}
    failures = [events[index] for index, kind in enumerate(events.types)
                if kind in ("RpcCallFailed", "ProcessFailed")]
    call_ids = (event.fields.get("call_id") for event in failures
                if event.type == "RpcCallFailed")
    failed_calls = list(dict.fromkeys(c for c in call_ids if c is not None))
    first = failures[0] if failures else None
    first_failure = first and {"index": first.index, "time": first.time, "type": first.type}
    return {
        "final_time": trace.final_time,
        "events": len(trace.events),
        "fingerprint": trace.footer.get("fingerprint"),
        "counts": counts,
        "failed_calls": failed_calls,
        "first_failure": first_failure,
    }


def replay_prefix(trace: Trace, build: Callable,
                  checkpoint_index: int) -> ReplayReport:
    """Checkpoint-seeded partial re-execution.

    Re-executes the recording only up to checkpoint ``checkpoint_index``
    and verifies the event prefix byte-for-byte — the cheap way to ask
    "does the run still follow the recording this far?" without paying
    for the full horizon.  The shrinker's horizon bisection and the
    campaign ``repro`` command use this to localize the first event a
    minimized plan actually needs.
    """
    checkpoint = trace.checkpoints[checkpoint_index]
    world = ReplayWorld(trace, build, run_until=checkpoint.time + 1)
    replayed = world.run()
    require_same_events(trace, replayed, checkpoint.index)
    return ReplayReport(
        events=checkpoint.index,
        checkpoints_verified=checkpoint_index + 1,
        final_time=checkpoint.time,
        fingerprint=replayed.fingerprint(),
    )
