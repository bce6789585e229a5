"""Every way of running a recipe runs the same cluster.

A campaign cell, a recording, a shrink trial, a replay and an
unperturbed fork are five callers of one recipe (scenario, seed, fault
plan, topology).  Generated over the scenario and fault-plan catalogues,
they must agree: the cell's fingerprint is the recording's, the cell's
verdict is the shrink trial's, the recording replays byte-identically,
and a fork that adds nothing is the recording again.  A run whose recipe
differs only from virtual time ``T`` on — a replay bounded at ``T``, a
fork whose delta fires at ``T`` — reproduces the recording's events
before ``Trace.prefix_before(T)``.  Whatever the path, a run has one
stream: the writer encodes each event as it is emitted and a monitor
folds the writer's columns.
"""

import gc
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.runner import CellSpec, run_cell
from repro.campaign.scenarios import PLANS, SCENARIOS, get_plan
from repro.campaign.shrink import _CellOracle
from repro.cluster import Cluster
from repro.contracts import UNIVERSAL_SET
from repro.obs import events as ev
from repro.faults.plan import FaultPlan
from repro.replay import (
    Perturbation,
    Recipe,
    ReplayWorld,
    TraceWriter,
    execute,
    fork_trace,
    record_run,
    replay_trace,
)
from repro.rpc.runtime import remote_call
from repro.sim.units import MS

_RECORDED = [getattr(ev, name) for name in ev.__all__ if name != "Event"]


def _compatible(names: tuple, plan) -> bool:
    """Every node the plan names or numbers exists in ``names``."""
    for action in plan.actions:
        if isinstance(action.node, str) and action.node not in names:
            return False
        indices = [n for group in action.groups or () for n in group]
        indices += [n for n in (action.src, action.dst, action.node)
                    if isinstance(n, int)]
        if any(n >= len(names) for n in indices):
            return False
    return True


#: (scenario, plan name) pairs a cell can run.
_PAIRS = [(scenario, plan_name)
          for scenario in sorted(SCENARIOS)
          for plan_name in sorted(PLANS)
          if _compatible(SCENARIOS[scenario].names, get_plan(plan_name))]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(pair=st.sampled_from(_PAIRS),
       seed=st.sampled_from([0, 1, 7]),
       topology=st.sampled_from(["ring", "mesh"]))
def test_every_execution_path_runs_the_same_cluster(pair, seed, topology):
    scenario_name, plan_name = pair
    scenario = SCENARIOS[scenario_name]
    cell = CellSpec(index=0, scenario=scenario_name, seed=seed,
                    plan_name=plan_name, plan=get_plan(plan_name),
                    topology=topology)
    result = run_cell(cell)
    trace = record_run(scenario.build, list(scenario.names), seed=seed,
                       plan=cell.plan, checkpoint_every=250 * MS,
                       run_until=scenario.run_until, topology=topology,
                       contracts=scenario.contracts)
    assert result["fingerprint"] == trace.footer["fingerprint"]

    trial = _CellOracle(cell).report(cell.plan)
    assert result["violations"] == trial.messages()
    assert result["contracts"] == dict(trial.verdicts)

    assert replay_trace(trace, scenario.build).identical

    child = fork_trace(trace, scenario.build, 0, Perturbation(kind="none"))
    assert child.lines() == trace.lines()


# ----------------------------------------------------------------------
# One prefix rule
# ----------------------------------------------------------------------


def _record(scenario_name: str, plan_name: str, seed: int):
    scenario = SCENARIOS[scenario_name]
    return scenario, record_run(scenario.build, list(scenario.names), seed=seed,
                                plan=get_plan(plan_name), checkpoint_every=250 * MS,
                                run_until=scenario.run_until)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(pair=st.sampled_from(_PAIRS), seed=st.sampled_from([0, 1, 7]), data=st.data())
def test_a_bounded_replay_reproduces_the_prefix_before_its_bound(pair, seed, data):
    scenario, trace = _record(*pair, seed)
    # A third of the bounds land on an event's own time, where ``<``
    # matters; a third lie past the recording's own bound, which then is
    # the cut (it capped the recording's last window, not the replay's).
    on_event = sorted({t for t in trace.events.times if 0 < t < trace.final_time})
    until = data.draw(st.one_of(st.integers(1, trace.final_time - 1),
                                st.sampled_from(on_event),
                                st.integers(trace.final_time + 1, 2 * trace.final_time)),
                      label="until")
    replay = ReplayWorld(trace, scenario.build, run_until=until)
    report = replay.verify()
    cut = min(until, scenario.run_until)
    assert report.events == min(trace.prefix_before(cut), replay.run().prefix_before(cut))
    if until < scenario.run_until:
        assert report.events == trace.prefix_before(until)
    assert report.checkpoints_verified == 0


def test_a_replay_bounded_at_the_recorded_bound_is_the_full_check():
    scenario, trace = _record("kv", "calm", 0)
    report = ReplayWorld(trace, scenario.build, run_until=scenario.run_until).verify()
    assert report.events == len(trace)
    assert report.checkpoints_verified == trace.n_checkpoints > 1


@st.composite
def _delta(draw, scenario, start: int, stop: int) -> Perturbation:
    """One fault action of a drawn kind, firing in ``[start, stop)``."""
    at = draw(st.integers(start, stop - 1), label="at")
    plan = FaultPlan()
    kind = draw(st.sampled_from(["crash", "delay", "loss", "nack"]), label="kind")
    if kind == "crash":
        plan.crash(at=at, node=draw(st.sampled_from(scenario.names), label="node"))
    else:
        duration = draw(st.integers(1, 500), label="ms") * MS
        if kind == "delay":
            plan.delay(at=at, duration=duration, extra=5 * MS, jitter=2 * MS)
        else:
            getattr(plan, kind)(at=at, duration=duration, probability=0.5)
    return Perturbation.from_plan(plan, kind=kind)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(pair=st.sampled_from(_PAIRS), seed=st.sampled_from([0, 1, 7]), data=st.data())
def test_a_fork_reproduces_the_prefix_before_its_delta(pair, seed, data):
    scenario, trace = _record(*pair, seed)
    checkpoint = data.draw(st.integers(0, trace.n_checkpoints - 1), label="checkpoint")
    start = trace.checkpoint(checkpoint).time
    perturbation = data.draw(_delta(scenario, start, trace.final_time), label="delta")
    run_until = data.draw(st.one_of(st.none(), st.integers(1, trace.final_time - 1),
                                    st.integers(trace.final_time + 1, 2 * trace.final_time)),
                          label="run_until")
    child = fork_trace(trace, scenario.build, checkpoint, perturbation, run_until=run_until)
    cut = min(perturbation.first_at(), run_until or trace.final_time, scenario.run_until)
    upto = min(trace.prefix_before(cut), child.prefix_before(cut))
    assert child.events[:upto] == trace.events[:upto]


#: The post-mortem CLU echo recipe (three clients looping echo calls at
#: one server through a crash, a reboot and a delay window), cut to 50
#: calls a client.
_ECHO_SERVER = "proc echo(x: int) returns int\n  return x\nend"
_ECHO_CLIENT = """
proc main()
  var total: int := 0
  for i := 1 to 50 do
    var r: int := remote svc.echo(i)
    if failed(r) then
      total := total - 100
    else
      total := total + r
    end
  end
  print total
end
"""


def _echo_clients(cluster):
    image = cluster.load_program(_ECHO_SERVER, "server")
    cluster.rpc("server").export_vm("svc", image, {"echo": "echo"})
    for name in ("c0", "c1", "c2"):
        cluster.spawn_vm(name, cluster.load_program(_ECHO_CLIENT, name), "main")


def _echo_recording(run_until=None):
    rng = random.Random(0)
    crash = rng.randrange(40 * MS, 80 * MS)
    plan = (FaultPlan()
            .crash(at=crash, node="server")
            .reboot(at=crash + rng.randrange(100 * MS, 180 * MS), node="server")
            .delay(at=rng.randrange(340 * MS, 400 * MS), duration=400 * MS,
                   extra=5 * MS, jitter=2 * MS))
    return record_run(_echo_clients, ["c0", "c1", "c2", "server"], seed=0,
                      plan=plan, checkpoint_every=100 * MS, run_until=run_until)


def test_a_replay_bounded_after_a_checkpoint_covers_the_events_before_it():
    """A node runs ahead inside its window, so the events before a
    checkpoint's index can be later than the checkpoint's own time: the
    bound that covers them is the running maximum, ``view.time``."""
    trace = _echo_recording()
    ahead = [cp for cp in trace.checkpoints if cp.view.time > cp.time]
    assert ahead
    for checkpoint in ahead:
        covered = ReplayWorld(trace, _echo_clients,
                              run_until=checkpoint.view.time + 1).verify()
        assert covered.events >= checkpoint.index
        # Bounded at the capturing event's own time, the run reproduces
        # less than the checkpoint's prefix, and only that is compared.
        short = ReplayWorld(trace, _echo_clients, run_until=checkpoint.time + 1).verify()
        assert short.events < checkpoint.index


def test_a_run_past_the_recorded_bound_cuts_where_it_runs_ahead():
    """Recorded to a bound inside a window some node ran ahead in, the
    recording is capped there and a longer run is not: that node's later
    events come ahead of other nodes' earlier ones, so a fork or replay
    past the bound compares only until either stream reaches it."""
    drained = _echo_recording()
    ahead = [cp for cp in drained.checkpoints if cp.view.time > cp.time]
    assert ahead
    for checkpoint in ahead:
        trace = _echo_recording(run_until=checkpoint.time + 1)
        longer = drained.final_time + 1
        child = fork_trace(trace, _echo_clients, 0, Perturbation(kind="none"),
                           run_until=longer)
        assert child.lines() == drained.lines()
        report = ReplayWorld(trace, _echo_clients, run_until=longer).verify()
        assert report.events == child.prefix_before(checkpoint.time + 1) < len(trace)


# ----------------------------------------------------------------------
# One stream per run
# ----------------------------------------------------------------------


def test_a_recorded_and_checked_run_subscribes_once_per_event_type():
    """The monitor rides the writer: recording and checking together add
    one bus subscriber per recorded event type, not one each."""
    counts = []

    def build(cluster):
        bus = cluster.world.bus
        counts.append({t.__name__: bus.subscriber_count(t) for t in _RECORDED})

    recipe = Recipe(names=("a", "b")).running_until(MS)
    execute(recipe, build, contracts=UNIVERSAL_SET)
    execute(recipe, build, record=False)
    checked, bare = counts
    assert {name: checked[name] - bare[name] for name in checked} == dict.fromkeys(checked, 1)


def test_a_recording_keeps_no_live_event_before_finish():
    """Each event is encoded into the writer's columns when emitted, so
    none of the obs event objects outlives its delivery."""
    before = {id(o) for o in gc.get_objects() if isinstance(o, ev.Event)}
    cluster = Cluster(names=["client", "server"], seed=0)
    writer = TraceWriter(cluster)
    cluster.rpc("server").export_native("svc", {"op": lambda ctx: None})

    def caller(node):
        for _ in range(200):
            yield from remote_call(node.rpc, "svc", "op")

    client = cluster.node("client")
    client.spawn(caller(client), name="caller")
    cluster.run()
    gc.collect()
    alive = [o for o in gc.get_objects() if isinstance(o, ev.Event) and id(o) not in before]
    assert alive == []
    assert len(writer.finish().events) == 1603
    cluster.close()
