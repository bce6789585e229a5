"""The persistent reproducer corpus: every shrunken failure, kept.

A campaign that finds and shrinks a failure used to leave at most a
trace file in a scratch directory; the corpus makes the find permanent.
It is a directory with an atomically-rewritten ``index.json`` plus one
golden trace per entry:

.. code-block:: text

    corpus/
      index.json                      # version + entry table
      echo_s0_storm-3f9a2c1b.trace.bin

Each entry records the reproducer's identity (scenario, seed, *minimal*
fault plan, topology, horizon), the recorded violation list, the trace
file name, and the trace's normalized-stream fingerprint.  Entries are
content-addressed by the reproducer identity — adding the same shrunken
failure twice is idempotent — and deliberately exclude any code
fingerprint: a corpus is supposed to outlive tree changes, and
:meth:`Corpus.replay` is what decides whether an old reproducer still
reproduces.

The corpus closes two loops:

* **Regression suite** — ``python -m repro.campaign corpus replay``
  re-executes every entry's golden trace, verifies byte-identity
  against the recording, and re-checks that the scenario still yields
  the recorded violations (drspec's bug-driven-learning loop: every
  failure ever found becomes a permanent check).
* **Grid seeding** — :meth:`Corpus.cells` turns the entries back into
  :class:`~repro.campaign.runner.CellSpec` rows, so future campaigns
  start from every previously-distilled failure before exploring new
  ground.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.ioutil import atomic_write_text, read_tables

CORPUS_VERSION = 1

#: The index file inside a corpus directory.
INDEX_NAME = "index.json"


def corpus_key(scenario: str, seed: int, plan_dict: dict,
               topology: str, horizon: int) -> str:
    """Content address of one reproducer (code-independent)."""
    payload = json.dumps({
        "scenario": scenario,
        "seed": seed,
        "plan": plan_dict,
        "topology": topology,
        "horizon": horizon,
    }, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: The cells of an ``index.json`` record and the JSON types each admits
#: (``fingerprint`` may be absent).
_RECORD = {"scenario": str, "seed": int, "plan_name": str, "topology": str,
           "minimal_plan": dict, "violations": list, "horizon": (int, type(None)),
           "trace": str, "fingerprint": (str, type(None))}


@dataclass(frozen=True)
class CorpusEntry:
    """One shrunken reproducer in the corpus index."""

    key: str
    scenario: str
    seed: int
    plan_name: str
    topology: str
    minimal_plan: dict
    violations: list
    horizon: int
    trace: str
    fingerprint: Optional[str]

    def to_dict(self) -> dict:
        """The JSON form stored in ``index.json``."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "plan_name": self.plan_name,
            "topology": self.topology,
            "minimal_plan": self.minimal_plan,
            "violations": self.violations,
            "horizon": self.horizon,
            "trace": self.trace,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, key: str, data: dict) -> "CorpusEntry":
        """Rebuild an entry from its ``index.json`` record; ``TypeError``
        or ``KeyError`` when it is not one."""
        if not isinstance(data, dict):
            raise TypeError(f"corpus entry {key!r} is not an object")
        cells = {name: data[name] for name in _RECORD if name != "fingerprint"}
        cells["fingerprint"] = data.get("fingerprint")
        for name, kinds in _RECORD.items():
            if not isinstance(cells[name], kinds):
                raise TypeError(f"corpus entry {key!r} has a malformed {name!r}")
        return cls(key=key, **cells)

    def label(self) -> str:
        """Human identifier, mirroring ``CellSpec.label``."""
        base = f"{self.scenario}/s{self.seed}/{self.plan_name}"
        if self.topology != "ring":
            base += f"@{self.topology}"
        return base


class Corpus:
    """An on-disk reproducer corpus rooted at one directory."""

    def __init__(self, root):
        self.root = Path(root)
        self._entries: dict[str, CorpusEntry] = {}
        #: True when open() found an index it could not trust and
        #: started from an empty table (the trace files are left alone).
        self.recovered = False

    # -- persistence ----------------------------------------------------

    @classmethod
    def open(cls, root) -> "Corpus":
        """Load (or initialize) the corpus at ``root``.

        A missing index is an empty corpus; a corrupt or truncated one
        is *skipped* — flagged via :attr:`recovered` — rather than
        crashing the campaign that wanted to record into it.
        """
        corpus = cls(root)
        tables, corpus.recovered = read_tables(
            corpus.root / INDEX_NAME, CORPUS_VERSION, entries=CorpusEntry.from_dict)
        corpus._entries = tables["entries"]
        return corpus

    def flush(self) -> None:
        """Atomically rewrite ``index.json`` from the entry table."""
        self.root.mkdir(parents=True, exist_ok=True)
        document = json.dumps({
            "version": CORPUS_VERSION,
            "entries": {key: entry.to_dict()
                        for key, entry in sorted(self._entries.items())},
        }, sort_keys=True, indent=2)
        atomic_write_text(self.root / INDEX_NAME, document + "\n")

    # -- recording ------------------------------------------------------

    def add(self, shrink: dict, trace) -> CorpusEntry:
        """Store one shrink outcome (its dict form) plus its golden trace.

        ``shrink`` is a :meth:`~repro.campaign.shrink.ShrinkResult.to_dict`
        document; ``trace`` the recorded minimal :class:`~repro.replay.trace.Trace`.
        Adding an already-present reproducer refreshes its files in
        place (the content address makes that idempotent).
        """
        key = corpus_key(shrink["scenario"], shrink["seed"],
                         shrink["minimal_plan"], shrink["topology"],
                         shrink["horizon"])
        stem = f"{shrink['scenario']}_s{shrink['seed']}_{shrink['plan_name']}"
        if shrink["topology"] != "ring":
            stem += f"_{shrink['topology']}"
        trace_name = f"{stem}-{key[:8]}.trace.bin"
        self.root.mkdir(parents=True, exist_ok=True)
        trace.save(self.root / trace_name)
        entry = CorpusEntry(
            key=key,
            scenario=shrink["scenario"],
            seed=shrink["seed"],
            plan_name=shrink["plan_name"],
            topology=shrink["topology"],
            minimal_plan=shrink["minimal_plan"],
            violations=shrink["violations"],
            horizon=shrink["horizon"],
            trace=trace_name,
            fingerprint=shrink.get("trace_fingerprint"),
        )
        self._entries[key] = entry
        self.flush()
        return entry

    # -- reading --------------------------------------------------------

    def entries(self) -> list[CorpusEntry]:
        """All entries, in stable (key-sorted) order."""
        return [entry for _, entry in sorted(self._entries.items())]

    def __len__(self) -> int:
        return len(self._entries)

    # -- the regression loop --------------------------------------------

    def replay(self, entry: CorpusEntry) -> tuple[bool, str]:
        """Re-verify one reproducer: byte-identical replay + same verdict.

        Returns ``(ok, detail)``; never raises — a corpus entry whose
        trace is missing, corrupt, or no longer reproducing is a finding
        to report, not a crash.
        """
        from repro.campaign.scenarios import get_scenario
        from repro.replay import Trace

        path = self.root / entry.trace
        try:
            scenario = get_scenario(entry.scenario)
        except KeyError:
            return False, f"scenario {entry.scenario!r} no longer exists"
        try:
            verify, violations = scenario.reproduce(Trace.load(path))
        except FileNotFoundError:
            return False, f"trace file {entry.trace} is missing"
        except Exception as exc:  # corrupt trace, divergence, ...
            return False, f"{type(exc).__name__}: {exc}"
        if violations != entry.violations:
            return False, (f"verdict drifted: recorded {entry.violations!r}, "
                           f"replayed {violations!r}")
        return True, (f"{verify.events} events byte-identical, "
                      f"violations reproduced")

    def replay_all(self) -> list[tuple[CorpusEntry, bool, str]]:
        """Replay every entry; the corpus-as-regression-suite primitive."""
        return [(entry, *self.replay(entry)) for entry in self.entries()]

    def find(self, name_or_key: str) -> CorpusEntry:
        """Look an entry up by key, key prefix, or :meth:`~CorpusEntry.label`.

        Raises ``KeyError`` (with the available labels) when nothing
        matches, so callers can surface a useful message.
        """
        if name_or_key in self._entries:
            return self._entries[name_or_key]
        matches = [
            entry for key, entry in sorted(self._entries.items())
            if key.startswith(name_or_key) or entry.label() == name_or_key
        ]
        if len(matches) == 1:
            return matches[0]
        labels = ", ".join(e.label() for e in self.entries()) or "<empty>"
        kind = "ambiguous" if matches else "unknown"
        raise KeyError(f"{kind} corpus entry {name_or_key!r}; have: {labels}")

    def open_session(self, name_or_key: str):
        """Open a post-mortem debugger session on one reproducer.

        Returns a :class:`~repro.replay.session.TraceSession` over the
        entry's golden trace — the bridge the service daemon uses for
        ``kind="corpus"`` sessions: every shrunken failure in the corpus
        is debuggable by name, without re-running anything.
        """
        from repro.replay.session import TraceSession

        entry = self.find(name_or_key)
        return TraceSession(self.root / entry.trace, name=entry.label())

    # -- grid seeding ---------------------------------------------------

    def cells(self, start_index: int = 0) -> list:
        """Entries as :class:`~repro.campaign.runner.CellSpec` rows.

        Each cell runs the entry's *minimal* plan under the scenario's
        full horizon, named ``corpus:<plan_name>`` so report rows are
        attributable.  Indices start at ``start_index`` so callers can
        append corpus cells after a freshly built grid.
        """
        from repro.campaign.runner import CellSpec
        from repro.faults.plan import FaultPlan

        cells = []
        for offset, entry in enumerate(self.entries()):
            cells.append(CellSpec(
                index=start_index + offset,
                scenario=entry.scenario,
                seed=entry.seed,
                plan_name=f"corpus:{entry.plan_name}",
                plan=FaultPlan.from_dict(entry.minimal_plan),
                topology=entry.topology,
            ))
        return cells

    def __repr__(self) -> str:
        return f"<Corpus {self.root} entries={len(self._entries)}>"
