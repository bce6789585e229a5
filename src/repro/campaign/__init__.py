"""Fault-tolerant parallel chaos campaigns with failure minimization.

One fault-injection run tells you a failure exists; a *campaign* tells
you where the failure boundary is.  This package feeds a grid of
(scenario x seed x fault plan) cells — each an isolated deterministic
:class:`~repro.sim.world.World` — to a work-stealing process fleet that
contains crashed, hung, and poison cells, checkpoints progress to a
resumable journal, aggregates the verdicts and obs metrics into a
canonical report, hands every failing cell to a delta-debugging
shrinker, and banks the shrunken reproducers in a persistent corpus
that replays as a regression suite.

The moving parts:

* :mod:`repro.campaign.scenarios` — the scenario / fault-plan presets a
  grid is built from (:data:`SCENARIOS`, :data:`PLANS`);
* :mod:`repro.campaign.runner` — :func:`build_grid`, :func:`run_cell`,
  :func:`run_campaign`, :func:`run_grid`: grid construction and the
  campaign loop (execute, journal, shrink, bank);
* :mod:`repro.campaign.fleet` — the coordinator/worker fleet:
  work-stealing dispatch, per-cell wall-clock timeouts, bounded
  retry-with-backoff, worker respawn, and poison-cell quarantine;
* :mod:`repro.campaign.journal` — content-addressed cell keys and the
  atomically-persisted checkpoint journal behind ``--resume``;
* :mod:`repro.campaign.corpus` — the persistent reproducer corpus
  (``corpus/`` + ``index.json``): replayable regression suite and grid
  seed;
* :mod:`repro.campaign.report` — :class:`CampaignReport`: the canonical
  (schedule-independent, byte-identical) JSON document and the human
  summary;
* :mod:`repro.campaign.shrink` — :func:`shrink_cell`: ddmin over fault
  actions, window narrowing, and checkpoint-driven horizon bisection
  down to a minimal reproducer;
* :mod:`repro.campaign.cli` —
  ``python -m repro.campaign run|repro|corpus|scenarios``.

Typical use::

    from repro.campaign import run_grid

    report = run_grid(["echo"], seeds=[0, 1],
                      plan_names=["calm", "storm"], workers=4,
                      journal_path="campaign.journal", corpus_dir="corpus")
    print(report.summary())
"""

from repro.campaign.corpus import Corpus, CorpusEntry, corpus_key
from repro.campaign.fleet import (
    Fleet,
    FleetOptions,
    error_result,
    execute_cell,
    run_fleet,
)
from repro.campaign.journal import CampaignJournal, cell_key, code_fingerprint
from repro.campaign.report import REPORT_VERSION, CampaignReport
from repro.campaign.runner import (
    CellSpec,
    build_grid,
    run_campaign,
    run_cell,
    run_grid,
)
from repro.campaign.scenarios import (
    PLANS,
    SCENARIOS,
    Scenario,
    get_plan,
    get_scenario,
)
from repro.campaign.shrink import ShrinkResult, shrink_cell

__all__ = [
    "REPORT_VERSION",
    "CampaignJournal",
    "CampaignReport",
    "CellSpec",
    "Corpus",
    "CorpusEntry",
    "Fleet",
    "FleetOptions",
    "build_grid",
    "cell_key",
    "code_fingerprint",
    "corpus_key",
    "error_result",
    "execute_cell",
    "run_cell",
    "run_campaign",
    "run_fleet",
    "run_grid",
    "Scenario",
    "SCENARIOS",
    "PLANS",
    "get_scenario",
    "get_plan",
    "ShrinkResult",
    "shrink_cell",
]
