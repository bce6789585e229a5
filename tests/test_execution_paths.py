"""Every way of running a recipe runs the same cluster.

A campaign cell, a recording, a shrink trial, a replay and an
unperturbed fork are five callers of one recipe (scenario, seed, fault
plan, topology).  Generated over the scenario and fault-plan catalogues,
they must agree: the cell's fingerprint is the recording's, the cell's
verdict is the shrink trial's, the recording replays byte-identically,
and a fork that adds nothing is the recording again.  Whatever the
path, a run has one stream: the writer encodes each event as it is
emitted and a monitor folds the writer's columns.
"""

import gc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.runner import CellSpec, run_cell
from repro.campaign.scenarios import PLANS, SCENARIOS, get_plan
from repro.campaign.shrink import _CellOracle
from repro.cluster import Cluster
from repro.contracts import UNIVERSAL_SET
from repro.obs import events as ev
from repro.replay import Perturbation, Recipe, TraceWriter, execute, record_run, replay_trace
from repro.replay.branch import execute_fork
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

    child = execute_fork(trace, scenario.build, 0, Perturbation(kind="none"))
    assert child.lines() == trace.lines()


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
