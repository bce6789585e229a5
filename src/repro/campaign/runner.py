"""The fault-tolerant parallel campaign runner.

A campaign is a grid of *cells* — (scenario x seed x fault plan) — each
executed as one isolated :class:`~repro.cluster.Cluster` in its own
:class:`~repro.sim.world.World`.  Cells are deterministic given their
spec, so throughput is embarrassingly parallel: the runner feeds them
to a work-stealing process fleet (:mod:`repro.campaign.fleet`) that
contains crashes, hangs, and poison cells instead of losing the run.

Reproducibility is structural, not best-effort:

* **Schedule-independent results** — a cell's result carries no
  wall-clock or scheduling state, and results are aggregated in cell
  -index order, so the canonical report is byte-identical whether the
  grid ran on one worker or sixteen, with or without retries, across a
  kill-and-``resume`` boundary.  Each result includes the cell's
  normalized obs-stream fingerprint as evidence.
* **Containment as data** — a cell whose execution raises, hangs, or
  kills its worker resolves to a deterministic ``error`` verdict (the
  captured traceback / timeout / quarantine cause) instead of aborting
  its siblings.
* **Durable progress** — with a journal path, every resolved cell is
  checkpointed atomically under a content-addressed key (scenario +
  seed + plan + code fingerprint, :mod:`repro.campaign.journal`);
  ``resume=True`` re-executes only the cells the journal cannot vouch
  for.

Failing cells are re-recorded under a
:class:`~repro.replay.trace.TraceWriter` and handed to the delta-
debugging shrinker (:mod:`repro.campaign.shrink`), which emits a minimal
fault plan, a replayable golden trace, and a one-line repro command;
shrunken reproducers can additionally be banked in a persistent
:class:`~repro.campaign.corpus.Corpus` that replays as a regression
suite and seeds future grids.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.campaign.corpus import Corpus
from repro.campaign.fleet import (
    DEFAULT_BACKOFF,
    DEFAULT_CELL_TIMEOUT,
    DEFAULT_RETRIES,
    FleetOptions,
    execute_cell,
    run_fleet,
)
from repro.campaign.journal import CampaignJournal, cell_key
from repro.campaign.report import CampaignReport
from repro.campaign.scenarios import get_scenario
from repro.campaign.shrink import shrink_cell
from repro.debugger.errors import fork_context
from repro.faults.plan import FaultPlan
from repro.obs.metrics import fleet_metrics
from repro.replay.replay import Recipe, execute


@dataclass(frozen=True)
class CellSpec:
    """One grid cell: everything a worker needs to run it, picklable."""

    index: int
    scenario: str
    seed: int
    plan_name: str
    plan: FaultPlan
    topology: str = "ring"

    def label(self) -> str:
        """Short human identifier, e.g. ``echo/s3/storm``.

        The transport only appears when it is not the default ring
        (``echo/s3/storm@mesh``), so single-topology campaign output is
        unchanged.
        """
        base = f"{self.scenario}/s{self.seed}/{self.plan_name}"
        if self.topology != "ring":
            base += f"@{self.topology}"
        return base

    def recipe(self) -> Recipe:
        """The cell as a run: its scenario's nodes and horizon, its seed,
        plan and fabric."""
        scenario = get_scenario(self.scenario)
        return Recipe(names=scenario.names, seed=self.seed, topology=self.topology,
                      plan=self.plan).running_until(scenario.run_until)


def build_grid(
    scenarios: Sequence[str],
    seeds: Sequence[int],
    plans: Sequence[tuple],
    topologies: Sequence[str] = ("ring",),
) -> list[CellSpec]:
    """Cross scenarios x seeds x (name, plan) pairs x topologies into
    ordered cells.

    The order — scenario-major, then seed, then plan, then topology —
    fixes each cell's index, and results are keyed by that index, so
    the same grid arguments always produce the same campaign regardless
    of how the work is later distributed.
    """
    from repro.net import TOPOLOGIES

    for topology in topologies:
        if topology not in TOPOLOGIES:  # fail fast, before any fork
            known = ", ".join(sorted(TOPOLOGIES))
            raise KeyError(f"unknown topology {topology!r} (known: {known})")
    cells: list[CellSpec] = []
    for scenario in scenarios:
        get_scenario(scenario)  # fail fast on typos, before any fork
        for seed in seeds:
            for plan_name, plan in plans:
                for topology in topologies:
                    cells.append(CellSpec(
                        index=len(cells),
                        scenario=scenario,
                        seed=seed,
                        plan_name=plan_name,
                        plan=plan,
                        topology=topology,
                    ))
    return cells


def run_cell(cell: CellSpec) -> dict:
    """Execute one grid cell in a fresh isolated world.

    Returns a plain JSON-able dict: the verdict (``pass`` / ``fail``
    with the violation list), the per-contract verdict map from the
    scenario's contract set, the cell's metrics snapshot, event count,
    final virtual time, and the normalized obs-stream fingerprint.
    Nothing in the result depends on the host, the worker, or the
    wall clock, which is what makes campaign reports byte-identical
    across worker counts.
    """
    scenario = get_scenario(cell.scenario)
    # Event-backed contracts check online, exactly as an offline fold
    # over the co-recorded trace would (repro.contracts).
    cluster, probes, monitor, trace = execute(cell.recipe(), scenario.build,
                                              contracts=scenario.contracts)
    report = scenario.report(cluster, probes, monitor=monitor)
    violations = report.messages()
    result = {
        "index": cell.index,
        "scenario": cell.scenario,
        "seed": cell.seed,
        "plan_name": cell.plan_name,
        "topology": cell.topology,
        "plan": cell.plan.to_dict(),
        "verdict": "fail" if violations else "pass",
        "violations": violations,
        "contracts": dict(report.verdicts),
        "final_time": cluster.world.now,
        "events": cluster.world.events_processed,
        "fingerprint": trace.footer["fingerprint"],
        "metrics": cluster.world.metrics.snapshot(),
    }
    cluster.close()
    return result


def run_campaign(
    cells: Sequence[CellSpec],
    workers: int = 1,
    shrink: bool = True,
    out_dir: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
    journal_path: Optional[str] = None,
    resume: bool = False,
    corpus_dir: Optional[str] = None,
    cell_timeout: float = DEFAULT_CELL_TIMEOUT,
    retries: int = DEFAULT_RETRIES,
    backoff: float = DEFAULT_BACKOFF,
    chaos_kill_cells: Sequence[int] = (),
) -> CampaignReport:
    """Run a grid, aggregate the verdicts, and shrink the failures.

    ``workers=1`` runs inline (no processes — handy under debuggers and
    in tests, with the same exception containment); ``workers>1`` feeds
    the cells to a fault-tolerant work-stealing fleet with per-cell
    ``cell_timeout`` / ``retries`` / ``backoff`` containment and
    quarantine after :data:`~repro.campaign.fleet.QUARANTINE_AFTER`
    worker deaths.  ``journal_path`` checkpoints progress after every cell
    and shrink; with ``resume=True`` previously-journaled results whose
    content-addressed keys still match are reused instead of re-executed.
    Shrinking always happens in the parent, sequentially in cell order,
    so its trials are reproducible too.  ``out_dir`` receives one golden
    trace per failing cell when given; ``corpus_dir`` additionally banks
    every shrunken reproducer in a persistent corpus.
    ``chaos_kill_cells`` is the fleet's test hook (SIGKILL the worker on
    which a listed cell first starts executing).  Without ``fork(2)``,
    ``workers>1`` raises ``ForkUnavailableError`` before anything runs.
    """
    cells = list(cells)
    if workers > 1:
        fork_context()  # refuse before a stale journal is truncated
    started = time.perf_counter()
    metrics = fleet_metrics()

    journal = None
    keys: dict[int, str] = {}
    if journal_path is not None:
        keys = {cell.index: cell_key(cell) for cell in cells}
        if resume:
            journal = CampaignJournal.load(journal_path)
        else:
            # A fresh run truncates any stale journal immediately, so a
            # later --resume can never trust leftovers from another grid.
            journal = CampaignJournal(journal_path)
            journal.flush()

    results: dict[int, dict] = {}
    pending: list[CellSpec] = []
    for cell in cells:
        entry = journal.cell_result(keys[cell.index]) if journal else None
        if entry is not None:
            # The key vouches for everything but the grid position.
            restored = dict(entry)
            restored["index"] = cell.index
            results[cell.index] = restored
            metrics.counter("fleet.cells_resumed").inc()
        else:
            pending.append(cell)

    def on_result(cell: CellSpec, result: dict) -> None:
        results[cell.index] = result
        if journal is not None:
            journal.record_cell(keys[cell.index], cell.index, result)

    if pending:
        if workers <= 1:
            for cell in pending:
                metrics.counter("fleet.cells_executed").inc()
                on_result(cell, execute_cell(cell))
        else:
            run_fleet(
                pending,
                FleetOptions(
                    workers=workers,
                    cell_timeout=cell_timeout,
                    retries=retries,
                    backoff=backoff,
                    chaos_kill_cells=frozenset(chaos_kill_cells),
                ),
                metrics=metrics,
                on_result=on_result,
            )
    ordered = [results[cell.index] for cell in cells]
    wall = time.perf_counter() - started

    shrinks: list[dict] = []
    if shrink:
        corpus = Corpus.open(corpus_dir) if corpus_dir is not None else None
        by_index = {cell.index: cell for cell in cells}
        for result in ordered:
            if result["verdict"] != "fail":
                continue
            cell = by_index[result["index"]]
            journaled = (journal.shrink_result(keys[cell.index])
                         if journal is not None else None)
            if journaled is not None:
                if corpus is not None and journaled.get("trace_path"):
                    # A resumed shrink can still reach the corpus as
                    # long as its golden trace survived on disk.
                    try:
                        from repro.replay import Trace
                        corpus.add(journaled, Trace.load(journaled["trace_path"]))
                    except (OSError, ValueError):
                        pass
                shrinks.append(journaled)
                continue
            outcome = shrink_cell(
                cell, out_dir=out_dir, checkpoint_every=checkpoint_every,
            )
            outcome_dict = outcome.to_dict()
            if corpus is not None and outcome.trace is not None:
                corpus.add(outcome_dict, outcome.trace)
            if journal is not None:
                journal.record_shrink(keys[cell.index], outcome_dict)
            shrinks.append(outcome_dict)
    return CampaignReport(
        cells=ordered,
        shrinks=shrinks,
        workers=workers,
        wall_seconds=wall,
        fleet=metrics.snapshot(),
    )


def run_grid(
    scenarios: Sequence[str],
    seeds: Sequence[int],
    plan_names: Sequence[str],
    workers: int = 1,
    shrink: bool = True,
    out_dir: Optional[str] = None,
    topologies: Sequence[str] = ("ring",),
    **fleet_kwargs,
) -> CampaignReport:
    """Convenience: build the grid from preset names and run it.

    ``fleet_kwargs`` pass straight through to :func:`run_campaign`
    (journal/resume/corpus/timeout/retry knobs).
    """
    from repro.campaign.scenarios import get_plan

    plans = [(name, get_plan(name)) for name in plan_names]
    cells = build_grid(scenarios, seeds, plans, topologies=topologies)
    return run_campaign(cells, workers=workers, shrink=shrink,
                        out_dir=out_dir, **fleet_kwargs)
