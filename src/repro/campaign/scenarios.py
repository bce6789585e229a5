"""The campaign's scenario and fault-plan catalogues.

A :class:`Scenario` is the unit a campaign cell executes: a named,
deterministic recipe (node names, workload builder, run horizon) plus a
named :class:`~repro.contracts.dsl.ContractSet` — the declarative
verdict oracle that replaced the old per-scenario check closures.  A
scenario's verdict is the union of its probe contracts (end-of-run
predicates over the builder's probes) and its event contracts (stream
folds checked by a :class:`~repro.contracts.online.ContractMonitor`
over the cell's stream, or by
:func:`~repro.contracts.offline.check_trace` over a recording — one
fold, so the same verdict either way).  Builders, contract predicates,
and derivations are module-level functions so a cell is fully described
by small picklable data and any worker process can run it.

The shipped scenarios: the exactly-once echo workload the chaos soak
uses (every call carries a distinct power of two, so the client's
printed total is a bitmask of exactly which calls succeeded), and a
replicated KV store with naive lease-based leader election
(:mod:`repro.servers.replicated_kv`) whose contracts —
``single_leader``, ``register_linearizability`` — are event-backed and
demonstrably violable by partitioning the leader.

``PLANS`` is the matching :class:`~repro.faults.plan.FaultPlan` preset
catalogue; a campaign grid is the cross product scenario x seed x plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.contracts.dsl import ContractSet, ProbeContract
from repro.contracts.report import merge_reports
from repro.faults.plan import FaultPlan
from repro.sim.units import MS, SEC

#: Calls per workload; small enough that a cell stays in the low
#: milliseconds of host time, large enough that faults land mid-run.
ECHO_CALLS = 12

#: The expected success bitmask when every call lands: 2^ECHO_CALLS - 1.
ECHO_FULL_MASK = 2 ** ECHO_CALLS - 1

_ECHO_CLIENT = f"""
proc main()
  var total: int := 0
  var done: int := 0
  var p: int := 1
  for i := 1 to {ECHO_CALLS} do
    var r: int := remote svc.echo(p)
    if failed(r) then
      done := done + 1
    else
      total := total + r
      done := done + 1
    end
    p := p * 2
  end
  print total
  print done
end
"""


@dataclass(frozen=True)
class Scenario:
    """One deterministic campaign workload.

    ``build(cluster)`` installs programs/services and returns a *probes*
    dict (images, server-side logs); ``contracts`` is the named verdict
    oracle.  Everything else a cell needs (seed, fault plan) rides in
    the cell spec, so the same scenario sweeps the whole grid.
    """

    name: str
    description: str
    names: tuple
    run_until: int
    build: Callable = field(repr=False)
    contracts: ContractSet = field(repr=False)

    def report(self, cluster, probes, trace=None, monitor=None):
        """Full :class:`~repro.contracts.report.ContractReport`.

        Event-contract verdicts come from ``monitor`` (online) or
        ``trace`` (offline fold) — pass exactly one when the set has
        event contracts.
        """
        report = self.contracts.check_probes(cluster, probes)
        event_contracts = self.contracts.event_contracts()
        if event_contracts:
            if monitor is not None:
                event_report = monitor.report()
            elif trace is not None:
                from repro.contracts.offline import check_trace

                event_report = check_trace(trace, self.contracts)
            else:
                return report
            report = merge_reports(report, event_report,
                                   order=self.contracts.names())
        return report

    def reproduce(self, trace):
        """Re-execute a golden trace of this scenario: verify byte-identity
        with the recording, then judge the replayed run.

        Returns the :class:`~repro.replay.replay.ReplayReport` and the
        violation list; event contracts fold offline over the replayed
        stream — the verdict the online monitor gave the recording.
        """
        from repro.replay.replay import ReplayWorld

        world = ReplayWorld(trace, self.build)
        verified = world.verify()
        return verified, self.report(world.cluster, world.probes,
                                     trace=world.run()).messages()


# ----------------------------------------------------------------------
# Echo: exactly-once powers-of-two workload (probe contracts)
# ----------------------------------------------------------------------


def _echo_build(cluster) -> dict:
    """Install the echo service and the powers-of-two client."""
    executed: list = []

    def echo(ctx, x):
        """Log the execution, then echo the argument back."""
        executed.append(x)
        return x

    cluster.rpc("server").export_native("svc", {"echo": echo})
    client_image = cluster.load_program(_ECHO_CLIENT, "client")
    cluster.spawn_vm("client", client_image, "main")
    return {"client_image": client_image, "executed": executed}


def _echo_facts(cluster, probes) -> dict:
    """The per-call bookkeeping every echo contract shares.

    This derivation ran twice in the old strict/soak closures; deriving
    once here is the deduplication the contract migration bought.
    """
    console = probes["client_image"].console
    finished = len(console) >= 2
    return {
        "console": console,
        "finished": finished,
        "total": int(console[0]) if finished else 0,
        "done": int(console[1]) if finished else 0,
        "executed": probes["executed"],
    }


def _echo_client_finished(facts) -> Optional[str]:
    """The client printed its summary — every other check needs it."""
    if not facts["finished"]:
        return f"client never finished: console={list(facts['console'])!r}"
    return None


def _echo_calls_resolved(facts) -> Optional[str]:
    """Every call reached a verdict (success or failure)."""
    done = facts["done"]
    if done != ECHO_CALLS:
        return f"calls without a verdict: done={done} expected={ECHO_CALLS}"
    return None


def _echo_exactly_once_execution(facts) -> Optional[str]:
    """The server never executed one call twice."""
    executed = facts["executed"]
    if len(executed) != len(set(executed)):
        return (
            f"duplicate server execution: {len(executed)} executions of "
            f"{len(set(executed))} distinct calls"
        )
    return None


def _echo_no_phantom_success(facts) -> Optional[str]:
    """Every success the client counted is backed by a real execution."""
    total = facts["total"]
    executed_mask = sum(set(facts["executed"]))
    if total & ~executed_mask:
        return (
            f"phantom success: client mask {total:#x} not covered by "
            f"server mask {executed_mask:#x}"
        )
    return None


def _echo_no_lost_calls(facts) -> Optional[str]:
    """Liveness: the full success bitmask came back."""
    total = facts["total"]
    if total != ECHO_FULL_MASK:
        return (
            f"lost calls: success mask {total:#x} "
            f"expected {ECHO_FULL_MASK:#x}"
        )
    return None


_ECHO_SAFETY = (
    ProbeContract(
        name="client_finished",
        description="the client printed its success/verdict summary",
        check=_echo_client_finished,
    ),
    ProbeContract(
        name="calls_resolved",
        description="every call reached a verdict (done == expected)",
        check=_echo_calls_resolved,
        requires=("client_finished",),
    ),
    ProbeContract(
        name="exactly_once_execution",
        description="the server never executed a call twice",
        check=_echo_exactly_once_execution,
        requires=("client_finished",),
    ),
    ProbeContract(
        name="no_phantom_success",
        description="every counted success is backed by a server execution",
        check=_echo_no_phantom_success,
        requires=("client_finished",),
    ),
)

#: Strict echo oracle: safety plus no-lost-calls liveness.
ECHO_STRICT_SET = ContractSet(
    name="echo_strict",
    contracts=_ECHO_SAFETY + (
        ProbeContract(
            name="no_lost_calls",
            description="liveness: every call succeeded (full bitmask)",
            check=_echo_no_lost_calls,
            requires=("client_finished",),
        ),
    ),
    derive=_echo_facts,
)

#: Soak echo oracle: exactly-once safety only (losses allowed).
ECHO_SOAK_SET = ContractSet(
    name="echo_soak",
    contracts=_ECHO_SAFETY,
    derive=_echo_facts,
)


def _kv_scenario() -> Scenario:
    """The replicated-KV scenario (import deferred to keep this module
    light for workers that only run echo cells)."""
    from repro.servers.replicated_kv import (
        KV_CONTRACT_SET,
        KV_NODE_NAMES,
        KV_RUN_UNTIL,
        build_kv,
    )

    return Scenario(
        name="kv",
        description=(
            "replicated KV with naive lease leader election: "
            "single_leader + register linearizability (split-brains "
            "under an unhealed leader partition)"
        ),
        names=KV_NODE_NAMES,
        run_until=KV_RUN_UNTIL,
        build=build_kv,
        contracts=KV_CONTRACT_SET,
    )


#: Registry of shipped scenarios, keyed by name.
SCENARIOS: dict = {
    "echo": Scenario(
        name="echo",
        description=(
            "exactly-once echo, strict: every call must succeed "
            "(fails under any unhealed disruption)"
        ),
        names=("client", "server"),
        run_until=8 * SEC,
        build=_echo_build,
        contracts=ECHO_STRICT_SET,
    ),
    "echo_soak": Scenario(
        name="echo_soak",
        description=(
            "exactly-once echo, safety only: no duplicate execution, "
            "no phantom success, every call reaches a verdict"
        ),
        names=("client", "server"),
        run_until=8 * SEC,
        build=_echo_build,
        contracts=ECHO_SOAK_SET,
    ),
}
SCENARIOS["kv"] = _kv_scenario()


def _preset(summary: str) -> Callable:
    """Give a plan factory the line ``scenarios`` lists (not a docstring: ``-OO`` strips those)."""
    return lambda factory: setattr(factory, "summary", summary) or factory


@_preset("No faults: the baseline cell of every grid.")
def _plan_calm() -> FaultPlan:
    return FaultPlan()


@_preset("Fail-stop the server mid-run and never bring it back.")
def _plan_crash() -> FaultPlan:
    return FaultPlan().crash(at=150 * MS, node="server")


@_preset("Crash the server, reboot it inside the retransmission budget.")
def _plan_crash_reboot() -> FaultPlan:
    return (FaultPlan()
            .crash(at=100 * MS, node="server")
            .reboot(at=300 * MS, node="server"))


@_preset("A healed partition: cut client from server for 150 ms.")
def _plan_partition() -> FaultPlan:
    return FaultPlan().partition(
        at=80 * MS, groups=((0,), (1,)), duration=150 * MS
    )


@_preset("Delay + duplication + reordering windows; nothing is lost.")
def _plan_jitter() -> FaultPlan:
    return (FaultPlan()
            .delay(at=50 * MS, duration=1 * SEC, extra=4 * MS, jitter=2 * MS)
            .duplicate(at=50 * MS, duration=1500 * MS, probability=0.5)
            .reorder(at=300 * MS, duration=500 * MS, probability=0.3))


@_preset("Everything at once — the shrinker's favourite haystack.")
def _plan_storm() -> FaultPlan:
    """Only the unrebooted crash is actually fatal to the strict echo
    scenario; the delay/duplicate/reorder windows and the healed
    partition are noise the shrinker should strip away.
    """
    return (FaultPlan()
            .delay(at=50 * MS, duration=800 * MS, extra=4 * MS, jitter=2 * MS)
            .duplicate(at=60 * MS, duration=900 * MS, probability=0.5)
            .partition(at=80 * MS, groups=((0,), (1,)), duration=100 * MS)
            .reorder(at=120 * MS, duration=400 * MS, probability=0.3)
            .crash(at=150 * MS, node="server"))


@_preset("Crash the initial KV leader; staggered takeover keeps one leader.")
def _plan_leader_crash() -> FaultPlan:
    from repro.servers.replicated_kv import leader_crash_plan

    return leader_crash_plan()


@_preset("Isolate every KV replica from every other: the split-brain seed.")
def _plan_leader_partition() -> FaultPlan:
    """Both followers time out blind and claim the same term; the
    shrinker should reduce the plan to this single partition action."""
    from repro.servers.replicated_kv import leader_partition_plan

    return leader_partition_plan()


#: Named fault-plan presets; each entry is a zero-argument factory so a
#: grid gets a fresh plan object per cell, with its ``summary`` line.
PLANS: dict = {
    "calm": _plan_calm,
    "crash": _plan_crash,
    "crash_reboot": _plan_crash_reboot,
    "partition": _plan_partition,
    "jitter": _plan_jitter,
    "storm": _plan_storm,
    "leader_crash": _plan_leader_crash,
    "leader_partition": _plan_leader_partition,
}


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name, with a helpful error."""
    scenario = SCENARIOS.get(name)
    if scenario is None:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r} (known: {known})")
    return scenario


def get_plan(name: str) -> FaultPlan:
    """Instantiate a fault-plan preset by name, with a helpful error."""
    factory = PLANS.get(name)
    if factory is None:
        known = ", ".join(sorted(PLANS))
        raise KeyError(f"unknown fault plan {name!r} (known: {known})")
    return factory()
