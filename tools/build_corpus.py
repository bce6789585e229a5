#!/usr/bin/env python
"""(Re)build the committed reproducer corpus under ``tests/corpus/``.

The committed corpus is the regression half of the campaign loop: a
small set of shrunken reproducers, found and minimized by a real
campaign over the shipped scenarios, that CI replays on every push
(``python -m repro.campaign corpus replay tests/corpus``).  Run this
from the repo root when a change *intentionally* alters the simulation
event stream (and say so in the commit message)::

    PYTHONPATH=src python tools/build_corpus.py

The campaign below is deterministic — fixed grid, fixed seeds, inline
execution — so rebuilding on an unchanged tree is a no-op apart from
file timestamps.

``--check`` (run after tier-1 on every CI hash-seed leg) rebuilds into
a scratch directory instead and exits 1 if any file differs from, is
missing from, or is extra in ``tests/corpus/``: a committed corpus
container is always what the current writer writes.
"""

import argparse
import filecmp
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: The grid distilled into the committed corpus: the two fault families
#: that fail the echo scenario with *distinct* minimal plans (the storm
#: preset shrinks to the same lone crash as the crash preset, so adding
#: it would only churn content-addressed duplicates), two seeds, both
#: shipped topologies.
SCENARIOS = ["echo"]
SEEDS = [0, 7]
PLAN_NAMES = ["crash", "crash_reboot"]
TOPOLOGIES = ["ring", "mesh"]

CORPUS_DIR = Path(__file__).resolve().parent.parent / "tests" / "corpus"


def build(corpus_dir: Path) -> int:
    """Run the fixed campaign and bank its reproducers from scratch
    into ``corpus_dir``; returns how many failed their own replay."""
    from repro.campaign import Corpus, build_grid, get_plan, run_campaign

    if corpus_dir.exists():
        shutil.rmtree(corpus_dir)
    plans = [(name, get_plan(name)) for name in PLAN_NAMES]
    cells = build_grid(SCENARIOS, SEEDS, plans, topologies=TOPOLOGIES)
    report = run_campaign(cells, workers=1, shrink=True,
                          corpus_dir=corpus_dir)
    corpus = Corpus.open(corpus_dir)
    print(f"campaign: {len(report.cells)} cells, "
          f"{len(report.failed)} failed, {len(corpus)} banked")
    failures = 0
    for entry, ok, detail in corpus.replay_all():
        status = "ok" if ok else "FAILED"
        print(f"  {entry.label():<28} {status}: {detail}")
        failures += 0 if ok else 1
    if failures:
        print(f"error: {failures} fresh reproducers failed replay",
              file=sys.stderr)
    return failures


def main(argv=None) -> int:
    """Rebuild ``tests/corpus/`` in place, or with ``--check`` into a
    scratch directory and compare byte for byte with what is committed."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="write nothing under tests/corpus/; exit 1 if the committed "
             "files are not what this tree builds")
    args = parser.parse_args(argv)
    if not args.check:
        if build(CORPUS_DIR):
            return 1
        print(f"corpus written to {CORPUS_DIR}")
        return 0
    with tempfile.TemporaryDirectory() as scratch:
        fresh = Path(scratch) / "corpus"
        failures = build(fresh)
        names = {path.name for directory in (fresh, CORPUS_DIR)
                 for path in directory.iterdir()}
        _, differ, one_sided = filecmp.cmpfiles(fresh, CORPUS_DIR, names,
                                                shallow=False)
        drifted = sorted(differ + one_sided)
    for name in drifted:
        print(f"error: tests/corpus/{name} differs from what this tree "
              "builds (rerun tools/build_corpus.py)", file=sys.stderr)
    return 1 if drifted or failures else 0


if __name__ == "__main__":
    sys.exit(main())
