"""Every way of running a recipe runs the same cluster.

A campaign cell, a recording, a shrink trial, a replay and an
unperturbed fork are five callers of one recipe (scenario, seed, fault
plan, topology).  Generated over the scenario and fault-plan catalogues,
they must agree: the cell's fingerprint is the recording's, the cell's
verdict is the shrink trial's, the recording replays byte-identically,
and a fork that adds nothing is the recording again.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.runner import CellSpec, run_cell
from repro.campaign.scenarios import PLANS, SCENARIOS, get_plan
from repro.campaign.shrink import _CellOracle
from repro.replay import Perturbation, record_run, replay_trace
from repro.replay.branch import execute_fork
from repro.sim.units import MS


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
