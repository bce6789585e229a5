"""Delta-debugging failure minimization for campaign cells.

A failing cell arrives with whatever haystack of faults the grid threw
at it; the developer wants the needle.  :func:`shrink_cell` minimizes
the cell's :class:`~repro.faults.plan.FaultPlan` in three passes, each
re-running the (cheap, deterministic) cell to test candidates:

1. **ddmin over actions** — the plan is :meth:`~FaultPlan.split` into
   single-action units and reduced with the classic Zeller/Hildebrandt
   complement loop: drop a chunk, keep the complement if the cell still
   fails, refine the granularity when stuck.
2. **Window narrowing** — each surviving window action's duration is
   repeatedly halved while the failure persists, shrinking e.g. an
   800 ms delay storm to the slice that matters.
3. **Horizon bisection via replay checkpoints** — the minimal failing
   run is recorded once, and the earliest run horizon that still
   reproduces the *exact* violation list is found by bisecting over the
   trace's checkpoint times (a bounded replay is the replay-side dual,
   see :meth:`repro.replay.ReplayWorld.verify`).

The result is a minimal plan, a replayable golden trace recorded under
that plan, and the one-line ``python -m repro.campaign repro <trace>``
command that re-executes and re-verifies it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.campaign.scenarios import get_scenario
from repro.faults.plan import FaultPlan
from repro.replay.replay import Recipe, execute, extract_verdict
from repro.sim.units import MS

if TYPE_CHECKING:
    from repro.campaign.runner import CellSpec

#: Checkpoint cadence for the recorded minimal run (drives the horizon
#: bisection's candidate cut points).
DEFAULT_CHECKPOINT_EVERY = 250 * MS

#: Windows are not narrowed below this.
MIN_WINDOW = 1 * MS


@dataclass
class ShrinkResult:
    """Outcome of minimizing one failing cell."""

    index: int
    scenario: str
    seed: int
    plan_name: str
    topology: str
    original_plan: FaultPlan
    minimal_plan: FaultPlan
    violations: list
    horizon: int
    trials: int
    reductions: int
    #: The contract the minimization targeted — the first one the
    #: original cell broke; every trial asked "does *this* still fail?".
    contract: Optional[str] = None
    trace_fingerprint: Optional[str] = None
    trace_verdict: Optional[dict] = None
    trace_path: Optional[str] = None
    repro_command: Optional[str] = None
    #: The recorded minimal golden trace itself — kept on the result so
    #: callers (the corpus) can persist it without a re-record; not part
    #: of :meth:`to_dict`.
    trace: Optional[object] = None

    def to_dict(self) -> dict:
        """A JSON-able summary (plans serialized via ``to_dict``)."""
        return {
            "index": self.index,
            "scenario": self.scenario,
            "seed": self.seed,
            "plan_name": self.plan_name,
            "topology": self.topology,
            "original_actions": len(self.original_plan),
            "minimal_actions": len(self.minimal_plan),
            "minimal_windows": self.minimal_plan.window_count(),
            "minimal_plan": self.minimal_plan.to_dict(),
            "violations": self.violations,
            "contract": self.contract,
            "horizon": self.horizon,
            "trials": self.trials,
            "reductions": self.reductions,
            "trace_fingerprint": self.trace_fingerprint,
            "trace_verdict": self.trace_verdict,
            "trace_path": self.trace_path,
            "repro_command": self.repro_command,
        }


class _CellOracle:
    """Runs one cell's scenario under candidate plans, counting trials.

    Once :attr:`contract` is set (the first contract the original cell
    broke), every :meth:`fails` trial asks specifically "does *that*
    contract still fail?" — so minimization cannot wander onto a plan
    that breaks something easier."""

    def __init__(self, cell: "CellSpec"):
        self.cell = cell
        self.scenario = get_scenario(cell.scenario)
        self.trials = 0
        #: Name of the contract minimization targets (set from baseline).
        self.contract: Optional[str] = None

    def recipe(self, plan: FaultPlan, run_until: Optional[int] = None,
               checkpoint_every: Optional[int] = None) -> Recipe:
        """The cell under ``plan``, to ``run_until`` (default: the
        scenario's horizon)."""
        return replace(self.cell.recipe(), plan=plan,
                       checkpoint_every=checkpoint_every).running_until(run_until)

    def report(self, plan: FaultPlan, run_until: Optional[int] = None):
        """Execute the cell under ``plan``, unrecorded; full contract report."""
        self.trials += 1
        cluster, probes, monitor, _ = execute(
            self.recipe(plan, run_until), self.scenario.build,
            contracts=self.scenario.contracts, record=False)
        found = self.scenario.report(cluster, probes, monitor=monitor)
        cluster.close()
        return found

    def violations(self, plan: FaultPlan,
                   run_until: Optional[int] = None) -> list:
        """Execute the cell under ``plan`` and return its violations."""
        return self.report(plan, run_until=run_until).messages()

    def fails(self, plan: FaultPlan) -> bool:
        """Does the targeted contract (or, untargeted, anything) still
        fail under ``plan``?"""
        report = self.report(plan)
        if self.contract is None:
            return not report.ok
        return report.verdicts.get(self.contract) == "fail"


def _ddmin(oracle: _CellOracle, plan: FaultPlan) -> tuple[FaultPlan, int]:
    """Classic ddmin over the plan's single-action units."""
    units = plan.split()
    reductions = 0
    granularity = 2
    while len(units) >= 2:
        chunk = math.ceil(len(units) / granularity)
        reduced = False
        for start in range(0, len(units), chunk):
            complement = units[:start] + units[start + chunk:]
            if not complement:
                continue
            candidate = FaultPlan.merge(complement)
            if oracle.fails(candidate):
                units = complement
                granularity = max(2, granularity - 1)
                reductions += 1
                reduced = True
                break
        if not reduced:
            if granularity >= len(units):
                break
            granularity = min(len(units), granularity * 2)
    return FaultPlan.merge(units), reductions


def _narrow_windows(oracle: _CellOracle,
                    plan: FaultPlan) -> tuple[FaultPlan, int]:
    """Halve each window's duration while the failure persists."""
    reductions = 0
    for index in range(len(plan.actions)):
        while True:
            action = plan.actions[index]
            if action.duration is None or action.duration <= MIN_WINDOW:
                break
            candidate = plan.narrowed(index)
            if oracle.fails(candidate):
                plan = candidate
                reductions += 1
            else:
                break
    return plan, reductions


def _bisect_horizon(oracle: _CellOracle, plan: FaultPlan,
                    target: list, checkpoint_every: int) -> tuple[int, int]:
    """Earliest horizon reproducing exactly ``target``, via checkpoints.

    Records the minimal failing run once to harvest checkpoint times,
    then bisects over them: a horizon qualifies only when the truncated
    run yields the *same* violation list (a too-short run fails with
    "client never finished", which does not count as a reproduction).
    """
    scenario = oracle.scenario
    cluster, *_, trace = execute(
        oracle.recipe(plan, checkpoint_every=checkpoint_every), scenario.build)
    cluster.close()
    times = {cp.time for cp in trace.checkpoints if cp.time > 0}
    if trace.events:
        # The instant just after the last recorded event: checkpoints
        # stop when the run goes quiet, but the tightest horizon is
        # usually right there, not at the next checkpoint cadence.
        times.add(trace.events[-1].time + 1)
    candidates = sorted(t for t in times if t < scenario.run_until)
    candidates.append(scenario.run_until)
    reductions = 0
    low, high = 0, len(candidates) - 1
    while low < high:
        mid = (low + high) // 2
        if oracle.violations(plan, run_until=candidates[mid]) == target:
            high = mid
            reductions += 1
        else:
            low = mid + 1
    return candidates[low], reductions


def shrink_cell(
    cell: "CellSpec",
    out_dir: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
) -> ShrinkResult:
    """Minimize a failing cell to its smallest reproducing fault plan.

    Raises ``ValueError`` if the cell does not actually fail (the
    shrinker needs a reproducible failure to preserve).  Returns a
    :class:`ShrinkResult` carrying the minimal plan, the golden trace's
    fingerprint and verdict, and — when ``out_dir`` is given — the
    saved trace path plus the ready-to-paste repro command.
    """
    checkpoint_every = checkpoint_every or DEFAULT_CHECKPOINT_EVERY
    oracle = _CellOracle(cell)
    baseline = oracle.report(cell.plan)
    if baseline.ok:
        raise ValueError(
            f"cell {cell.label()} passed; nothing to shrink"
        )
    # Target the first contract the cell broke (declaration order), so
    # the minimal plan reproduces *that* invariant violation.
    oracle.contract = next(
        name for name, verdict in baseline.verdicts.items()
        if verdict == "fail"
    )
    minimal, dropped = _ddmin(oracle, cell.plan)
    minimal, narrowed = _narrow_windows(oracle, minimal)
    target = oracle.violations(minimal)
    horizon, tightened = _bisect_horizon(
        oracle, minimal, target, checkpoint_every
    )
    # The golden artifact: the minimal plan over the minimal horizon.
    cluster, *_, trace = execute(
        oracle.recipe(minimal, horizon, checkpoint_every),
        oracle.scenario.build,
        meta={
            "campaign": {
                "scenario": cell.scenario,
                "seed": cell.seed,
                "plan_name": cell.plan_name,
                "topology": cell.topology,
                "cell_index": cell.index,
            },
            "violations": target,
            "contract": oracle.contract,
        },
    )
    cluster.close()
    result = ShrinkResult(
        index=cell.index,
        scenario=cell.scenario,
        seed=cell.seed,
        plan_name=cell.plan_name,
        topology=cell.topology,
        original_plan=cell.plan,
        minimal_plan=minimal,
        violations=target,
        contract=oracle.contract,
        horizon=horizon,
        trials=oracle.trials,
        reductions=dropped + narrowed + tightened,
        trace_fingerprint=trace.fingerprint(),
        trace_verdict=extract_verdict(trace),
        trace=trace,
    )
    if out_dir is not None:
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        stem = f"{cell.scenario}_s{cell.seed}_{cell.plan_name}"
        if cell.topology != "ring":
            stem += f"_{cell.topology}"
        path = directory / f"{stem}.min.trace.bin"
        trace.save(path)
        result.trace_path = str(path)
        result.repro_command = f"python -m repro.campaign repro {path}"
    return result
