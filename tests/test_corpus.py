"""Reproducer corpus: banking, replay-as-regression, seeding, CLI."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import Corpus, build_grid, get_plan, run_campaign
from repro.campaign.cli import main as campaign_main
from repro.campaign.corpus import INDEX_NAME
from tests.fuzz import corrupt

#: The in-repo corpus (rebuilt via tools/build_corpus.py).
COMMITTED = Path(__file__).parent / "corpus"


@pytest.fixture()
def banked(tmp_path):
    """A campaign with one failing cell, banked into a fresh corpus."""
    cells = build_grid(["echo"], [0], [("crash", get_plan("crash"))])
    corpus_dir = tmp_path / "corpus"
    report = run_campaign(cells, workers=1, shrink=True,
                          corpus_dir=corpus_dir)
    return corpus_dir, report


def test_campaign_banks_shrunken_reproducer(banked):
    corpus_dir, report = banked
    corpus = Corpus.open(corpus_dir)
    assert len(corpus) == 1
    entry = corpus.entries()[0]
    assert entry.label() == "echo/s0/crash"
    assert entry.violations == report.shrinks[0]["violations"]
    assert (corpus_dir / entry.trace).exists()
    assert (corpus_dir / INDEX_NAME).exists()


def test_corpus_replay_reproduces(banked):
    corpus_dir, _ = banked
    outcomes = Corpus.open(corpus_dir).replay_all()
    assert len(outcomes) == 1
    entry, ok, detail = outcomes[0]
    assert ok, detail
    assert "byte-identical" in detail


def test_corpus_add_is_idempotent(banked):
    corpus_dir, _ = banked
    cells = build_grid(["echo"], [0], [("crash", get_plan("crash"))])
    run_campaign(cells, workers=1, shrink=True, corpus_dir=corpus_dir)
    assert len(Corpus.open(corpus_dir)) == 1  # same reproducer, same key


def test_corpus_replay_detects_missing_trace(banked):
    corpus_dir, _ = banked
    corpus = Corpus.open(corpus_dir)
    (corpus_dir / corpus.entries()[0].trace).unlink()
    entry, ok, detail = corpus.replay_all()[0]
    assert not ok and "missing" in detail


def test_corpus_replay_detects_verdict_drift(banked):
    corpus_dir, _ = banked
    index = corpus_dir / INDEX_NAME
    data = json.loads(index.read_text())
    for record in data["entries"].values():
        record["violations"] = ["something that never happened"]
    index.write_text(json.dumps(data))
    entry, ok, detail = Corpus.open(corpus_dir).replay_all()[0]
    assert not ok and "drifted" in detail


def test_partially_written_index_is_skipped(banked):
    corpus_dir, _ = banked
    index = corpus_dir / INDEX_NAME
    text = index.read_text()
    index.write_text(text[:len(text) // 2])  # torn write
    corpus = Corpus.open(corpus_dir)
    assert corpus.recovered and len(corpus) == 0
    # The trace files are untouched; only the table was lost.
    assert list(corpus_dir.glob("*.trace.bin"))


def _committed_with(**cells):
    """The committed index with ``cells`` overwritten in its first entry."""
    data = json.loads((COMMITTED / INDEX_NAME).read_text())
    next(iter(data["entries"].values())).update(cells)
    return json.dumps(data)


@pytest.mark.parametrize("document", [
    "[]", '"x"', '{"version": 1, "entries": []}', _committed_with(seed="0"),
    _committed_with(minimal_plan=[]), "[" * 100_000,
], ids=["list", "string", "entries-list", "seed-string", "plan-list", "deep"])
def test_index_that_is_json_but_not_an_index_is_skipped(tmp_path, document):
    (tmp_path / INDEX_NAME).write_text(document)
    corpus = Corpus.open(tmp_path)
    assert corpus.recovered and len(corpus) == 0


@pytest.fixture(scope="module")
def index_blob(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    blob = (COMMITTED / INDEX_NAME).read_bytes()
    return root, blob


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_fuzzed_index_loads_or_is_skipped(index_blob, data):
    root, blob = index_blob
    (root / INDEX_NAME).write_bytes(corrupt(data, blob))
    corpus = Corpus.open(root)
    if corpus.recovered:
        assert len(corpus) == 0
    for entry in corpus.entries():
        assert isinstance(entry.seed, int) and isinstance(entry.minimal_plan, dict)
        entry.label()


def test_corpus_seeds_future_grids(banked):
    corpus_dir, _ = banked
    corpus = Corpus.open(corpus_dir)
    seeded = corpus.cells(start_index=5)
    assert [c.index for c in seeded] == [5]
    cell = seeded[0]
    assert cell.plan_name == "corpus:crash"
    # The minimal plan still reproduces under the full scenario horizon.
    report = run_campaign(seeded, workers=1, shrink=False)
    assert report.cells[0]["verdict"] == "fail"


def test_cli_corpus_list_and_replay(banked, capsys):
    corpus_dir, _ = banked
    assert campaign_main(["corpus", "list", str(corpus_dir)]) == 0
    out = capsys.readouterr().out
    assert "1 reproducer" in out and "echo/s0/crash" in out
    assert campaign_main(["corpus", "replay", str(corpus_dir)]) == 0
    out = capsys.readouterr().out
    assert "REPRODUCED" in out and "1/1 reproduced" in out


def test_cli_corpus_replay_fails_on_drift(banked, capsys):
    corpus_dir, _ = banked
    index = corpus_dir / INDEX_NAME
    data = json.loads(index.read_text())
    for record in data["entries"].values():
        record["violations"] = ["phantom"]
    index.write_text(json.dumps(data))
    assert campaign_main(["corpus", "replay", str(corpus_dir)]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_cli_run_from_corpus_appends_seeded_cells(banked, tmp_path, capsys):
    corpus_dir, _ = banked
    code = campaign_main([
        "run", "--seeds", "1", "--plans", "calm",
        "--from-corpus", str(corpus_dir), "--no-shrink",
    ])
    out = capsys.readouterr().out
    assert "corpus:crash" in out  # the banked reproducer rode along
    assert code == 1  # and it still fails, so the campaign reports it


def test_cli_resume_requires_checkpoint(capsys):
    assert campaign_main(["run", "--resume"]) == 2
    assert "--checkpoint" in capsys.readouterr().out


def test_committed_corpus_replays():
    # The in-repo corpus is a live regression suite: every banked
    # reproducer must still replay byte-identically and yield its
    # recorded violations.
    corpus = Corpus.open(COMMITTED)
    assert not corpus.recovered
    assert len(corpus) >= 4
    for entry, ok, detail in corpus.replay_all():
        assert ok, f"{entry.label()}: {detail}"
