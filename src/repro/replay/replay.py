"""Deterministic re-execution of a recorded trace.

A :class:`Recipe` is everything that determines a run except the
scenario: seed, node names, skews, params, topology, fault plan,
checkpoint cadence and how far to drive.  :func:`execute` is the one
function that runs a recipe — recording (:func:`record_run`), replay
(:class:`ReplayWorld`), a fork (:func:`repro.replay.branch.fork_trace`),
a campaign cell and a shrink trial all go through it, so "the same
recipe gives the same stream" is a property of one sequence, not of
five copies.

:meth:`ReplayWorld.verify` asserts the replayed event stream is
byte-identical to the recording — divergence is reported with the first
mismatching event.  Checkpoints are cross-checked too: the replay must
reproduce every recorded state digest (RNG position included), which
catches drift the event stream alone would miss.  A replay bounded at
another ``T`` than the recording's compares the prefix the one rule
(:func:`require_same_prefix`) says it reproduces.

The *scenario* (programs, services, workload) is not serializable, so
both sides take the same ``build(cluster)`` callable; the trace pins
everything else.  Interactive recordings (``drive.mode == "manual"``,
e.g. from a live :class:`~repro.debugger.pilgrim.Pilgrim` session)
support time travel but not re-execution — the debugger's request
timing is not part of the trace — so :meth:`Recipe.of` refuses them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from repro.debugger.errors import (
    DebuggerError,
    UnsupportedOperationError,
    register_error,
)
from repro.cluster import Cluster
from repro.faults.plan import FaultPlan, Nemesis
from repro.params import Params
from repro.replay.checkpoint import _COUNT_KEYS
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


class ReplayUnsupported(UnsupportedOperationError):
    """The trace cannot be re-executed (manually driven recording);
    wire code ``unsupported``."""


@dataclass
class ReplayReport:
    """Outcome of a verified replay."""

    events: int
    checkpoints_verified: int
    final_time: int
    fingerprint: str
    identical: bool = True
    notes: list = field(default_factory=list)


@dataclass(frozen=True)
class Recipe:
    """Everything that determines a run except the scenario builder.

    ``drive`` is the footer record of how far the run goes:
    ``{"mode": "until", "until": T}`` or ``{"mode": "drain"}``.
    """

    names: Sequence[str]
    seed: int = 0
    params: Optional[Params] = None
    clock_skews: Optional[Sequence[int]] = None
    topology: str = "ring"
    plan: Optional[FaultPlan] = None
    checkpoint_every: Optional[int] = None
    drive: dict = field(default_factory=lambda: {"mode": "drain"})

    @classmethod
    def of(cls, trace: Trace) -> "Recipe":
        """The recipe a trace was recorded from.

        Raises :class:`ReplayUnsupported` for a manually driven
        recording: an interactive session starts recording mid-run and
        its debugger interference is not in the trace, so no fresh
        execution reproduces it — however far it is asked to run.
        """
        drive = trace.drive
        if drive.get("mode") not in ("until", "drain"):
            raise ReplayUnsupported(
                "trace was recorded from a manually driven session and cannot "
                "be re-executed; record with record_run to replay or fork it"
            )
        header = trace.header
        plan = header.get("fault_plan")
        return cls(
            names=tuple(header["names"]),
            seed=header["seed"],
            params=Params(**header["params"]),
            clock_skews=tuple(header["clock_skews"]),
            topology=trace.topology,
            plan=FaultPlan.from_dict(plan) if plan is not None else None,
            checkpoint_every=header.get("checkpoint_every"),
            drive=dict(drive),
        )

    def running_until(self, until: Optional[int]) -> "Recipe":
        """This recipe driven to virtual time ``until`` (``None``: as is)."""
        if until is None:
            return self
        return replace(self, drive={"mode": "until", "until": until})

    def bound_cut(self, until: Optional[int]) -> Optional[int]:
        """The virtual time from which :meth:`running_until` ``(until)``
        differs from this recipe (``None``: it does not) — the earlier of
        ``until`` and this recipe's own bound, which capped the last
        cooperative window of a run driven to it."""
        if self.running_until(until).drive == self.drive:
            return None
        return min(until, self.drive.get("until", until))


def execute(recipe: Recipe, build: Callable, *, contracts=None,
            meta: Optional[dict] = None, record: bool = True) -> tuple:
    """Run ``build`` on the cluster ``recipe`` describes, the one way.

    The order is fixed: build the cluster, attach a
    :class:`~repro.replay.trace.TraceWriter` (``record``; its header
    carries ``meta``), attach a
    :class:`~repro.contracts.online.ContractMonitor` when the
    :class:`~repro.contracts.dsl.ContractSet` ``contracts`` has event
    contracts (over the writer's stream, or the bus's own without one;
    it folds only when asked for its report), ``probes = build(cluster)``, apply the plan when it has
    actions, drive under :class:`~repro.kernel.profile.ProfileHook`,
    seal the trace.  Returns ``(cluster, probes, monitor, trace)``;
    ``monitor`` and ``trace`` are ``None`` when not attached.
    """
    # Deferred: it loads cProfile, which a process that never runs a
    # cluster (the churn benchmark, a trace viewer) should not pay for.
    from repro.kernel.profile import ProfileHook

    cluster = Cluster(names=list(recipe.names), seed=recipe.seed,
                      params=recipe.params, clock_skews=recipe.clock_skews,
                      topology=recipe.topology)
    writer = monitor = trace = None
    if record:
        writer = TraceWriter(cluster, plan=recipe.plan,
                             checkpoint_every=recipe.checkpoint_every, meta=meta)
    if contracts is not None and contracts.event_contracts():
        from repro.contracts.online import ContractMonitor

        monitor = ContractMonitor(cluster.world.bus if writer is None else writer, contracts)
    probes = build(cluster)
    if recipe.plan is not None and recipe.plan.actions:
        Nemesis(cluster, recipe.plan)
    # REPRO_PROFILE=1 wraps the drive in cProfile; the stats land next
    # to the trace file when it is saved (see EXPERIMENTS.md).
    with ProfileHook() as hook:
        cluster.run(until=recipe.drive.get("until"))
    if writer is not None:
        trace = writer.finish(drive=dict(recipe.drive))
        trace.profile = hook
    return cluster, probes, monitor, trace


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
    header so :class:`ReplayWorld` can repeat it exactly through the
    same :func:`execute`.  ``run_until=None`` drains the run.  Only the
    trace outlives the call: the cluster is closed (``Cluster.close``).

    ``contracts`` (a :class:`~repro.contracts.dsl.ContractSet`) with
    event contracts additionally attaches a
    :class:`~repro.contracts.online.ContractMonitor` to the writer; its
    report, folded once the run is sealed, lands on the returned trace
    as ``trace.contract_report`` — the fold
    ``check_trace(trace, contracts)`` runs, over the same columns.
    """
    recipe = Recipe(names=tuple(names), seed=seed, params=params,
                    clock_skews=clock_skews, topology=topology, plan=plan,
                    checkpoint_every=checkpoint_every).running_until(run_until)
    cluster, _, monitor, trace = execute(recipe, build, contracts=contracts, meta=meta)
    if monitor is not None:
        trace.contract_report = monitor.report()
    cluster.close()
    return trace


class ReplayWorld:
    """Re-execute a recorded trace against the same scenario builder.

    Nothing is built until :meth:`run`; then :attr:`cluster` and
    :attr:`probes` are the replay's.  ``run_until`` overrides how far
    the replay runs, never whether the trace can be re-executed.
    """

    def __init__(self, trace: Trace, build: Callable,
                 run_until: Optional[int] = None):
        self.trace = trace
        self.build = build
        self.run_until = run_until
        self.cluster = None
        self.probes = None
        self._replayed: Optional[Trace] = None

    def run(self) -> Trace:
        """Drive the replay exactly as the recording was driven."""
        if self._replayed is None:
            recipe = Recipe.of(self.trace).running_until(self.run_until)
            self.cluster, self.probes, _, self._replayed = execute(recipe, self.build)
        return self._replayed

    def verify(self) -> ReplayReport:
        """Run (if needed) and assert byte-identity with the recording.

        Bounded at a ``run_until`` other than the recording's own, only
        the events the recording's prefix before :meth:`Recipe.bound_cut`
        holds are compared: a bound caps the last cooperative window, so
        checkpoint states near it may differ.
        """
        recorded = self.trace
        replayed = self.run()
        cut = Recipe.of(recorded).bound_cut(self.run_until)
        if cut is not None:
            events = require_same_prefix(recorded, replayed, cut)
            return ReplayReport(events=events, checkpoints_verified=0,
                                final_time=replayed.final_time,
                                fingerprint=replayed.fingerprint())
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


def require_same_prefix(recorded: Trace, run: Trace, cut: int) -> int:
    """Raise the ``"event"`` :class:`ReplayDivergence` unless ``run``, whose
    recipe differs from ``recorded``'s only from virtual time ``cut`` on,
    reproduces the recording's :meth:`~repro.replay.trace.Trace.prefix_before`
    ``(cut)`` events — short of the run's own ``prefix_before(cut)`` if it
    goes on past ``cut``: a node its longer bound does not cap puts its
    later events ahead of others' earlier ones.  Returns the count compared."""
    upto = recorded.prefix_before(cut)
    ahead = run.prefix_before(cut)
    if ahead < len(run.events):
        upto = min(upto, ahead)
    require_same_events(recorded, run, upto)
    return upto


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
    tally = events.tally()
    counts = {_COUNT_KEYS[kind]: tally.get(kind, 0) for kind in (
        "RpcCallFailed", "ProcessFailed", "RpcStaleRejected", "FaultInjected")}
    failures = [events[index] for index in events.indices(("RpcCallFailed", "ProcessFailed"))]
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

