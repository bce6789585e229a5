"""``campaign_pooled`` — E17's 48-cell echo grid through the worker fleet.

Fork + pipe + pickle per cell on top of the full stack (cclu/cvm,
faults, ``EventStreamRecorder``, contracts).  The only workload where
fleet batching or warm workers can show, and the one that must not move
for kernel-only or trace-only changes beyond their per-cell share.
"""

from __future__ import annotations

import os
import pickle
import random

from benchmarks.ledger.harness import (
    Meter,
    Metric,
    Tracer,
    Workload,
    exact,
    interleave,
    sampled,
)
from repro.campaign import build_grid, get_plan, run_campaign, run_cell

PLAN_NAMES = ["calm", "crash", "partition", "jitter"]
GRID_SEEDS = 12
#: The load comes from one process with at most ``nproc`` workers.
WORKERS = min(2, os.cpu_count() or 1)


def grid(seed: int) -> list:
    """12 seeded cluster seeds × calm/crash/partition/jitter on ``echo``."""
    rng = random.Random(seed)
    seeds = sorted(rng.sample(range(10_000), GRID_SEEDS))
    plans = [(name, get_plan(name)) for name in PLAN_NAMES]
    return build_grid(["echo"], seeds, plans)


class CampaignPooled(Workload):
    """op = one cell; block = one pooled ``run_campaign`` over the grid."""

    name = "campaign_pooled"
    warmup_blocks = 6

    def prepare(self) -> None:
        self.cells = grid(self.seed)
        with self.tracer.span("campaign.run_campaign.inline"):
            inline = run_campaign(self.cells, workers=1, shrink=False)
        self.reference = inline.canonical_json()
        self.facts["fingerprints"] = tuple(
            cell["fingerprint"] for cell in inline.cells)
        self.report = inline

    def block(self) -> int:
        with self.tracer.span("campaign.run_campaign.pooled"):
            self.report = run_campaign(self.cells, workers=WORKERS,
                                       shrink=False)
        return len(self.cells)

    def verify(self) -> bool:
        report = self.report
        with self.tracer.span("campaign.canonical_json"):
            canonical = report.canonical_json()
        return (canonical == self.reference
                and not report.errored
                and report.fleet.get("fleet.worker_deaths", 0) == 0)


# ----------------------------------------------------------------------
# Per-layer probes
# ----------------------------------------------------------------------

def probes(seed: int, meter: Meter, tracer: Tracer,
           rounds: int = 5) -> dict[str, Metric]:
    """Inline vs pooled on the same grid, one cell alone, and the
    coordinator-side costs around them."""
    cells = grid(seed)
    reports: dict = {}

    def campaign(name: str, subset: list, workers: int) -> float:
        with tracer.span(f"campaign.run_campaign.{name}"):
            reports[name], timed = meter.time(
                lambda: run_campaign(subset, workers=workers, shrink=False))
        return timed.norm_s

    runs = interleave({
        "inline": lambda: campaign("inline", cells, 1),
        "pooled": lambda: campaign("pooled", cells, WORKERS),
        "spawn": lambda: campaign("spawn", cells[:2], 2),
    }, rounds, tracer)

    tracer.block = "probe-cells"
    cell_s, results = [], []
    for cell in cells:
        with tracer.span("campaign.run_cell"):
            result, timed = meter.time(run_cell, cell)
        cell_s.append(timed.norm_s)
        results.append(result)
    with tracer.span("campaign.canonical_json"):
        _, report_t = meter.time(reports["pooled"].canonical_json)

    n = len(cells)
    cell_p50 = sampled(cell_s, "ms", 1e3)
    overhead = [(pooled - inline / WORKERS) / n
                for pooled, inline in zip(runs["pooled"], runs["inline"])]
    pickled = [len(pickle.dumps(("done", r["index"], r))) for r in results]
    fleet = reports["pooled"].fleet
    return {
        "campaign.inline_cells_per_s": sampled(
            [n / s for s in runs["inline"]], "1/s"),
        "campaign.cell_p50_ms": cell_p50,
        "fleet.overhead_ms_per_cell": sampled(overhead, "ms", 1e3),
        "fleet.spawn_ms": sampled(
            [s * 1e3 - cell_p50.value for s in runs["spawn"]], "ms"),
        "fleet.result_pickle_bytes": exact(sum(pickled) / n, "bytes"),
        "campaign.report_ms": Metric(report_t.norm_s * 1e3, "ms"),
        "campaign.events_per_cell": exact(
            sum(r["events"] for r in results) / n, "count"),
        "fleet.retries": exact(fleet.get("fleet.retries", 0), "count"),
        "fleet.worker_deaths": exact(
            fleet.get("fleet.worker_deaths", 0), "count"),
    }
