"""Checkpointed campaign progress: the resume journal and cell keys.

A campaign interrupted at cell 900 of 1000 used to be a campaign lost;
the journal makes progress durable.  After every resolved cell (and
every finished shrink) the coordinator rewrites one JSON document via
write-temp-then-:func:`os.replace` (:mod:`repro.ioutil`), so the file on
disk is always a complete, parseable snapshot — a SIGKILLed coordinator
leaves at worst the previous snapshot, never a torn one.  A journal that
*is* unreadable (hand-edited, disk-corrupted, produced by a different
journal version) is detected on load and skipped: resume starts from
nothing rather than trusting garbage, and :attr:`CampaignJournal.recovered`
says so.

Entries are keyed by **content-addressed cell keys**, not indices: the
SHA-256 of everything that determines a cell's result — scenario name,
seed, serialized fault plan, topology, the scenario's own source
(builder + checker + names + horizon), and a fingerprint of the
``repro`` tree.  Resume therefore re-executes exactly the cells whose
inputs changed: re-ordering a grid moves results to new indices but
reuses them; editing one scenario's builder invalidates that scenario's
cells and no others; touching the simulator core invalidates everything
(any cell's behaviour could have changed).
"""

from __future__ import annotations

import hashlib
import inspect
import json
from pathlib import Path
from typing import Optional

from repro.ioutil import atomic_write_text, read_tables

JOURNAL_VERSION = 1

#: Modules excluded from the tree fingerprint because they are hashed at
#: finer granularity (scenarios: per-scenario source, so editing one
#: scenario invalidates only its own cells) or cannot affect a cell's
#: result (the campaign orchestration itself).
_FINGERPRINT_EXCLUDE = {
    ("campaign", "scenarios.py"),
    ("campaign", "cli.py"),
    ("campaign", "fleet.py"),
    ("campaign", "journal.py"),
    ("campaign", "corpus.py"),
    ("campaign", "report.py"),
}

_code_fingerprint_cache: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over the ``repro`` package sources (cached per process).

    Part of every cell key: a changed simulator is a changed experiment,
    so journal entries recorded under a different tree never satisfy a
    resume lookup.  Scenario definitions and the campaign orchestration
    modules are excluded (see :data:`_FINGERPRINT_EXCLUDE`) — scenarios
    are fingerprinted per cell instead.
    """
    global _code_fingerprint_cache
    if _code_fingerprint_cache is not None:
        return _code_fingerprint_cache
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).parts
        if len(relative) >= 2 and (relative[-2], relative[-1]) in _FINGERPRINT_EXCLUDE:
            continue
        digest.update("/".join(relative).encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    _code_fingerprint_cache = digest.hexdigest()
    return _code_fingerprint_cache


def scenario_fingerprint(name: str) -> str:
    """SHA-256 of one scenario's observable definition.

    Covers the node names, the run horizon, and the *source code* of the
    builder and checker functions — the three things that, together with
    the seed and plan, fully determine a cell's verdict.
    """
    from repro.campaign.scenarios import get_scenario

    scenario = get_scenario(name)
    digest = hashlib.sha256()
    digest.update(repr((scenario.name, tuple(scenario.names),
                        scenario.run_until)).encode("utf-8"))
    for function in (scenario.build, scenario.report):
        try:
            digest.update(inspect.getsource(function).encode("utf-8"))
        except (OSError, TypeError):
            # Source unavailable (REPL-defined scenario): fall back to
            # the qualified name so the key is still stable in-process.
            digest.update(getattr(function, "__qualname__",
                                  repr(function)).encode("utf-8"))
    return digest.hexdigest()


def cell_key(cell) -> str:
    """The content address of one grid cell.

    Two cells share a key exactly when nothing that could change their
    result differs: scenario identity *and* implementation, seed, fault
    plan, topology, and the simulator tree.
    """
    payload = json.dumps({
        "scenario": cell.scenario,
        "scenario_fp": scenario_fingerprint(cell.scenario),
        "seed": cell.seed,
        "plan": cell.plan.to_dict(),
        "topology": cell.topology,
        "code_fp": code_fingerprint(),
    }, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _cell_entry(key: str, entry) -> dict:
    if not (isinstance(entry, dict) and isinstance(entry.get("result"), dict)
            and isinstance(entry.get("index"), int)):
        raise ValueError(f"malformed cell entry {key!r}")
    return entry


def _shrink_entry(key: str, outcome) -> dict:
    if not isinstance(outcome, dict):
        raise ValueError(f"malformed shrink entry {key!r}")
    return outcome


class CampaignJournal:
    """Durable, atomically-rewritten record of campaign progress.

    ``cells`` maps cell key -> ``{"index", "result"}``; ``shrinks`` maps
    cell key -> the shrink outcome dict.  The coordinator calls
    :meth:`record_cell` / :meth:`record_shrink` as work completes; each
    call persists the whole document atomically (campaign cells are
    milliseconds of work, so one small JSON rewrite per cell is noise).
    """

    def __init__(self, path):
        self.path = Path(path)
        self.cells: dict[str, dict] = {}
        self.shrinks: dict[str, dict] = {}
        #: True when load found a file it could not trust (corrupt,
        #: truncated, or a different journal version) and started fresh.
        self.recovered = False

    # -- persistence ----------------------------------------------------

    @classmethod
    def load(cls, path) -> "CampaignJournal":
        """Read a journal back for ``--resume``; skip it if untrustworthy.

        Any parse failure, shape violation, or version mismatch yields
        an *empty* journal flagged ``recovered=True`` — a partially
        written or corrupted checkpoint must cost a re-run, never crash
        a resume or smuggle bad results into the report.
        """
        journal = cls(path)
        tables, journal.recovered = read_tables(
            path, JOURNAL_VERSION, cells=_cell_entry, shrinks=_shrink_entry)
        journal.cells, journal.shrinks = tables["cells"], tables["shrinks"]
        return journal

    def flush(self) -> None:
        """Atomically persist the current snapshot."""
        document = json.dumps({
            "version": JOURNAL_VERSION,
            "cells": self.cells,
            "shrinks": self.shrinks,
        }, sort_keys=True)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(self.path, document + "\n")

    # -- recording ------------------------------------------------------

    def record_cell(self, key: str, index: int, result: dict) -> None:
        """Checkpoint one resolved cell and persist immediately."""
        self.cells[key] = {"index": index, "result": result}
        self.flush()

    def record_shrink(self, key: str, outcome: dict) -> None:
        """Checkpoint one finished shrink and persist immediately."""
        self.shrinks[key] = outcome
        self.flush()

    # -- lookup ---------------------------------------------------------

    def cell_result(self, key: str) -> Optional[dict]:
        """The journaled result for ``key``, or ``None``."""
        entry = self.cells.get(key)
        return entry["result"] if entry is not None else None

    def shrink_result(self, key: str) -> Optional[dict]:
        """The journaled shrink outcome for ``key``, or ``None``."""
        return self.shrinks.get(key)

    def __len__(self) -> int:
        return len(self.cells)

    def __repr__(self) -> str:
        return (f"<CampaignJournal {self.path.name} cells={len(self.cells)} "
                f"shrinks={len(self.shrinks)}>")
