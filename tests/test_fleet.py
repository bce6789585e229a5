"""Fleet containment, journal resume, and crash-recovery tests.

The scenarios registered here are deliberately hostile: ``boom`` raises
inside the cell, ``die`` SIGKILLs its own worker, ``die_once`` kills the
first worker that runs it and passes on retry, ``hang`` sleeps past any
reasonable deadline, ``nap`` sleeps a fixed fraction of one.  Worker
processes inherit them via fork, so the fleet tests exercise the real
multiprocess containment paths.
"""

import dataclasses
import functools
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.campaign import (
    CampaignJournal,
    CampaignReport,
    Fleet,
    FleetOptions,
    build_grid,
    cell_key,
    execute_cell,
    get_plan,
    run_campaign,
)
from repro.campaign.scenarios import SCENARIOS, Scenario
from repro.contracts.dsl import ContractSet, ProbeContract
from tests.fuzz import corrupt

# ----------------------------------------------------------------------
# Hostile test scenarios
# ----------------------------------------------------------------------

#: Environment variable naming the marker file ``die_once`` uses to kill
#: only the first worker that runs it (inherited by workers via fork).
_DIE_ONCE_MARKER = "REPRO_TEST_DIE_ONCE_MARKER"


def _boom_build(cluster):
    raise RuntimeError("kaboom: scenario build blew up")


def _die_build(cluster):
    os.kill(os.getpid(), signal.SIGKILL)


def _die_once_build(cluster):
    marker = os.environ[_DIE_ONCE_MARKER]
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("died")
        time.sleep(0.05)  # long enough for a second cell to be queued
        os.kill(os.getpid(), signal.SIGKILL)
    return {}


def _hang_build(cluster):
    time.sleep(300)


#: ``nap`` sleeps this long: more than half of, and less than, the
#: ``cell_timeout`` its test sets (see ``_NAP_TIMEOUT``).
_NAP_SECONDS = 0.3
_NAP_TIMEOUT = 0.5


def _nap_build(cluster):
    time.sleep(_NAP_SECONDS)
    return {}


def _unpicklable_check(facts):
    return object()  # a "violation message" that is not JSON-serializable


def _empty_build(cluster):
    return {}


_NO_CONTRACTS = ContractSet(name="none", contracts=())

_UNJSON_SET = ContractSet(
    name="unjson",
    contracts=(ProbeContract(name="unjson",
                             description="returns an unserializable message",
                             check=_unpicklable_check),),
)

_HOSTILE = {
    "boom": Scenario(name="boom", description="raises during build",
                     names=("a", "b"), run_until=1000,
                     build=_boom_build, contracts=_NO_CONTRACTS),
    "die": Scenario(name="die", description="SIGKILLs its worker",
                    names=("a", "b"), run_until=1000,
                    build=_die_build, contracts=_NO_CONTRACTS),
    "die_once": Scenario(name="die_once", description="kills one worker",
                         names=("a", "b"), run_until=1000,
                         build=_die_once_build, contracts=_NO_CONTRACTS),
    "hang": Scenario(name="hang", description="sleeps forever",
                     names=("a", "b"), run_until=1000,
                     build=_hang_build, contracts=_NO_CONTRACTS),
    "nap": Scenario(name="nap", description="sleeps most of a timeout",
                    names=("a", "b"), run_until=1000,
                    build=_nap_build, contracts=_NO_CONTRACTS),
    "unjson": Scenario(name="unjson", description="unserializable verdict",
                       names=("a", "b"), run_until=1000,
                       build=_empty_build, contracts=_UNJSON_SET),
}


@pytest.fixture(autouse=True)
def hostile_scenarios():
    """Register the hostile scenarios for each test, then restore."""
    SCENARIOS.update(_HOSTILE)
    try:
        yield
    finally:
        for name in _HOSTILE:
            SCENARIOS.pop(name, None)


def _grid(*scenarios, seeds=(0,), plans=("calm",)):
    return build_grid(list(scenarios), list(seeds),
                      [(name, get_plan(name)) for name in plans])


# Fast containment knobs: retries resolve in milliseconds, not seconds.
_FAST = dict(backoff=0.005, shrink=False)


# ----------------------------------------------------------------------
# Exception containment (the PR 4 shard-abort regression)
# ----------------------------------------------------------------------

def test_execute_cell_captures_exception_as_error_verdict():
    cell = _grid("boom")[0]
    result = execute_cell(cell)
    assert result["verdict"] == "error"
    assert result["error"]["kind"] == "exception"
    assert "kaboom" in result["error"]["detail"]
    assert "RuntimeError" in result["error"]["detail"]  # full traceback


def test_raising_cell_does_not_abort_siblings_inline():
    # Regression: under the PR 4 runner an exception in run_cell
    # propagated out of the shard loop and killed every sibling cell.
    report = run_campaign(_grid("boom", "echo"), workers=1, **_FAST)
    assert [c["verdict"] for c in report.cells] == ["error", "pass"]
    assert report.cells[1]["events"] > 0  # the sibling really ran


def test_raising_cell_does_not_abort_siblings_in_fleet():
    inline = run_campaign(_grid("boom", "echo"), workers=1, **_FAST)
    fleet = run_campaign(_grid("boom", "echo"), workers=2, **_FAST)
    assert [c["verdict"] for c in fleet.cells] == ["error", "pass"]
    assert fleet.canonical_json() == inline.canonical_json()


def test_unserializable_result_is_contained():
    report = run_campaign(_grid("unjson", "echo"), workers=2, **_FAST)
    assert report.cells[0]["verdict"] == "error"
    assert report.cells[0]["error"]["kind"] == "unserializable"
    assert report.cells[1]["verdict"] == "pass"


# ----------------------------------------------------------------------
# Worker death: retry, recovery, quarantine
# ----------------------------------------------------------------------

def test_chaos_kill_recovers_and_report_is_byte_identical():
    cells = _grid("echo", seeds=(0, 1), plans=("calm", "crash"))
    clean = run_campaign(cells, workers=2, **_FAST)
    chaotic = run_campaign(cells, workers=2, chaos_kill_cells=[1], **_FAST)
    assert chaotic.canonical_json() == clean.canonical_json()
    assert chaotic.fleet["fleet.worker_deaths"] == 1
    assert chaotic.fleet["fleet.retries"] == 1


def test_die_once_cell_passes_on_retry(tmp_path, monkeypatch):
    monkeypatch.setenv(_DIE_ONCE_MARKER, str(tmp_path / "died"))
    report = run_campaign(_grid("die_once", "echo"), workers=2, **_FAST)
    assert [c["verdict"] for c in report.cells] == ["pass", "pass"]
    assert report.fleet["fleet.worker_deaths"] == 1
    assert report.fleet["fleet.retries"] == 1


def test_poison_cell_is_quarantined():
    report = run_campaign(_grid("die", "echo"), workers=2, **_FAST)
    assert report.cells[0]["verdict"] == "error"
    assert report.cells[0]["error"]["kind"] == "quarantined"
    assert report.cells[1]["verdict"] == "pass"
    assert report.fleet["fleet.worker_deaths"] == 2
    assert report.fleet["fleet.quarantined"] == 1


def test_hanging_cell_times_out_with_retry():
    report = run_campaign(_grid("hang", "echo"), workers=2,
                          cell_timeout=0.3, retries=1, **_FAST)
    assert report.cells[0]["verdict"] == "error"
    assert report.cells[0]["error"]["kind"] == "timeout"
    assert report.cells[1]["verdict"] == "pass"
    assert report.fleet["fleet.timeouts"] == 2  # first attempt + retry


def test_error_verdicts_are_schedule_independent():
    # The same poison grid, run inline / fleet / wider fleet with a
    # different retry budget: one canonical document.
    cells = _grid("boom", "echo", seeds=(0, 1))
    inline = run_campaign(cells, workers=1, **_FAST)
    narrow = run_campaign(cells, workers=2, retries=0, **_FAST)
    wide = run_campaign(cells, workers=4, retries=3, **_FAST)
    assert inline.canonical_json() == narrow.canonical_json()
    assert inline.canonical_json() == wide.canonical_json()


# ----------------------------------------------------------------------
# The dispatch window: containment stays per cell with cells queued
# ----------------------------------------------------------------------

class _WatchedFleet(Fleet):
    """A Fleet that records what the window looked like at each send and
    at each worker loss (the hooks are the two places a cell enters or
    leaves a pipe unanswered)."""

    def __init__(self, cells, **options):
        options.setdefault("backoff", 0.005)
        super().__init__(cells, FleetOptions(**options))
        self.sends = []   # (cells the target held, cells each live worker held)
        self.losses = []  # indices in a lost worker's queue, head first

    def _send(self, worker):
        self.sends.append((len(worker.queue),
                           [len(w.queue) for w in self._workers.values()]))
        super()._send(worker)

    def _discard(self, worker):
        self.losses.append([cell.index for cell in worker.queue])
        return super()._discard(worker)

    def report(self):
        cells = [self.results[cell.index] for cell in self.cells]
        return CampaignReport(cells=cells, fleet=self.metrics.snapshot())


def _run_watched(cells, **options):
    fleet = _WatchedFleet(cells, **options)
    fleet.run()
    return fleet


def _inline_json(cells):
    return run_campaign(cells, workers=1, shrink=False).canonical_json()


def _renumber(cells):
    """Concatenated grids as one grid: indices 0..n-1 in list order."""
    return [dataclasses.replace(cell, index=i) for i, cell in enumerate(cells)]


def test_death_charges_the_head_and_hands_back_the_queued_cell(
        tmp_path, monkeypatch):
    monkeypatch.setenv(_DIE_ONCE_MARKER, str(tmp_path / "died"))
    cells = _renumber(_grid("die_once") + _grid("echo", seeds=(0, 1, 2)))
    fleet = _run_watched(cells, workers=1)
    # The worker died executing cell 0 with cell 1 queued behind it.
    assert fleet.losses == [[0, 1]]
    assert fleet._deaths == {0: 1}
    assert fleet._attempts == {0: 2, 1: 1, 2: 1, 3: 1}
    snapshot = fleet.metrics.snapshot()
    assert snapshot["fleet.cells_executed"] == 5  # four cells + one retry
    assert snapshot["fleet.worker_deaths"] == 1
    assert snapshot["fleet.retries"] == 1
    # The marker exists now, so the inline reference passes die_once too.
    assert fleet.report().canonical_json() == _inline_json(cells)


def test_a_queued_cells_clock_starts_when_it_reaches_the_head():
    # Two naps share one pipe.  Timed from its send, the second would
    # finish 2 x 0.3 s after it was written: past the 0.5 s budget.
    fleet = _run_watched(_grid("nap", seeds=(0, 1)), workers=1,
                         cell_timeout=_NAP_TIMEOUT)
    assert fleet.sends[:2] == [(0, [0]), (1, [1])]  # both in the pipe
    assert fleet.metrics.snapshot()["fleet.timeouts"] == 0
    assert [r["verdict"] for r in fleet.results.values()] == ["pass", "pass"]


def test_timeout_charges_the_head_and_hands_back_the_queued_cell():
    cells = _renumber(_grid("hang") + _grid("echo", seeds=(0, 1)))
    fleet = _run_watched(cells, workers=1, cell_timeout=0.3, retries=0)
    assert fleet.losses == [[0, 1]]
    assert fleet.results[0]["error"]["kind"] == "timeout"
    assert [fleet.results[i]["verdict"] for i in (1, 2)] == ["pass", "pass"]
    assert fleet._attempts == {0: 1, 1: 1, 2: 1}
    snapshot = fleet.metrics.snapshot()
    assert snapshot["fleet.timeouts"] == 1
    assert snapshot["fleet.cells_executed"] == 3
    assert snapshot["fleet.worker_deaths"] == 0


@pytest.mark.parametrize("victim", [0, 1, 5])
def test_chaos_kill_is_attributed_to_its_cell_wherever_it_was_queued(victim):
    # One worker, eight cells: cell 0 is a head from the start, cell 1 is
    # queued behind it, cell 5 arrives later as a top-up.
    cells = _grid("echo", seeds=(0, 1, 2, 3), plans=("calm", "crash"))
    fleet = _run_watched(cells, workers=1, chaos_kill_cells=frozenset({victim}))
    assert fleet._deaths == {victim: 1}
    assert fleet._attempts == {
        cell.index: 2 if cell.index == victim else 1 for cell in cells}
    assert fleet.losses[0][0] == victim
    assert fleet.report().canonical_json() == _inline_json(cells)


def test_poison_cells_are_quarantined_after_exactly_the_budget():
    cells = _grid("die", "echo", seeds=(0, 1))  # die, die, echo, echo
    fleet = _run_watched(cells, workers=2)
    assert fleet._deaths == {0: 2, 1: 2}
    assert all(loss[0] in (0, 1) for loss in fleet.losses)
    snapshot = fleet.metrics.snapshot()
    assert snapshot["fleet.worker_deaths"] == 4
    assert snapshot["fleet.quarantined"] == 2
    assert [fleet.results[i]["error"]["kind"] for i in (0, 1)] == [
        "quarantined", "quarantined"]
    assert [fleet._attempts[i] for i in (2, 3)] == [1, 1]


@pytest.mark.parametrize("workers, n_cells", [(64, 48), (3, 7)])
def test_no_worker_is_topped_up_while_another_holds_nothing(workers, n_cells):
    plans = ("calm", "crash", "partition", "jitter")
    cells = _grid("echo", seeds=range(12), plans=plans)[:n_cells]
    fleet = _run_watched(cells, workers=workers)
    for held, everyone in fleet.sends:
        assert held == 0 or min(everyone) >= 1, fleet.sends
    if workers > len(cells):  # a wide fleet: one cell each, no queueing
        assert all(held == 0 for held, _ in fleet.sends)
        assert len(fleet.sends) == len(cells)
    assert fleet.report().canonical_json() == _inline_json(cells)


def test_retry_promoted_after_the_fleet_went_idle_is_dispatched(
        tmp_path, monkeypatch):
    monkeypatch.setenv(_DIE_ONCE_MARKER, str(tmp_path / "died"))
    # One cell: after the death the respawned worker has nothing to do
    # until the backed-off retry is promoted, 0.2 s (ten polls) later.
    fleet = _run_watched(_grid("die_once"), workers=2, backoff=0.2)
    assert fleet.results[0]["verdict"] == "pass"
    assert fleet._attempts == {0: 2}
    assert fleet.metrics.snapshot()["fleet.retries"] == 1


_CHAOS_GRID = build_grid(["echo"], [0, 1, 2],
                         [(n, get_plan(n)) for n in
                          ("calm", "crash", "partition", "jitter")])


@functools.lru_cache(maxsize=None)
def _chaos_reference():
    return _inline_json(_CHAOS_GRID)


@settings(max_examples=15, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(workers=st.integers(1, 5),
       kills=st.frozensets(st.integers(0, len(_CHAOS_GRID) - 1)))
def test_generated_kill_schedules_never_move_the_report(workers, kills):
    fleet = _run_watched(_CHAOS_GRID, workers=workers, backoff=0.002,
                         chaos_kill_cells=kills)
    snapshot = fleet.metrics.snapshot()
    assert fleet.report().canonical_json() == _chaos_reference()
    assert snapshot["fleet.worker_deaths"] == len(kills)
    assert snapshot["fleet.worker_deaths"] == (
        snapshot["fleet.retries"] + snapshot["fleet.quarantined"])
    assert not fleet.report().errored


# ----------------------------------------------------------------------
# Fleet observability: messages and worker wait, outside the canon
# ----------------------------------------------------------------------

def test_messages_and_worker_wait_ride_beside_the_canonical_report():
    cells = _grid("echo", seeds=(0, 1, 2), plans=("calm", "crash"))
    pooled = run_campaign(cells, workers=2, **_FAST)
    inline = run_campaign(cells, workers=1, **_FAST)
    # One `run` and one `done` per cell, one `exit` per worker.
    assert pooled.fleet["fleet.messages"] == 2 * len(cells) + 2
    assert pooled.fleet["fleet.worker_wait_us"] > 0
    assert inline.fleet["fleet.messages"] == 0
    assert inline.fleet["fleet.worker_wait_us"] == 0
    assert pooled.canonical_json() == inline.canonical_json()
    stripped = CampaignReport(cells=pooled.cells, fleet={})
    assert stripped.canonical_json() == pooled.canonical_json()
    assert "messages 14" in pooled.summary()
    assert "worker wait us" in pooled.summary()


# ----------------------------------------------------------------------
# Journal: checkpoint, resume, invalidation
# ----------------------------------------------------------------------

def _journal_grid():
    return _grid("echo", seeds=(0, 1), plans=("calm", "crash"))


def test_resume_reuses_journaled_cells(tmp_path):
    journal = tmp_path / "campaign.journal"
    cells = _journal_grid()
    first = run_campaign(cells, workers=1, journal_path=journal, **_FAST)
    assert first.fleet["fleet.cells_executed"] == len(cells)
    again = run_campaign(cells, workers=1, journal_path=journal,
                         resume=True, **_FAST)
    assert again.fleet["fleet.cells_resumed"] == len(cells)
    assert again.fleet["fleet.cells_executed"] == 0
    assert again.canonical_json() == first.canonical_json()


def test_resume_across_worker_counts_is_byte_identical(tmp_path):
    journal = tmp_path / "campaign.journal"
    cells = _journal_grid()
    first = run_campaign(cells, workers=2, journal_path=journal, **_FAST)
    resumed = run_campaign(cells, workers=4, journal_path=journal,
                           resume=True, **_FAST)
    assert resumed.canonical_json() == first.canonical_json()


def test_fresh_run_truncates_stale_journal(tmp_path):
    journal = tmp_path / "campaign.journal"
    cells = _journal_grid()
    run_campaign(cells, workers=1, journal_path=journal, **_FAST)
    # A *fresh* (non-resume) run must not leave the old entries around
    # for a later --resume to trust.
    rerun = run_campaign(cells, workers=1, journal_path=journal, **_FAST)
    assert rerun.fleet["fleet.cells_executed"] == len(cells)
    loaded = CampaignJournal.load(journal)
    assert len(loaded) == len(cells)  # rewritten by the second run


def test_partially_written_journal_is_skipped_on_resume(tmp_path):
    journal = tmp_path / "campaign.journal"
    cells = _journal_grid()
    first = run_campaign(cells, workers=1, journal_path=journal, **_FAST)
    # Simulate a torn write from a pre-atomic-rename world: truncate the
    # document mid-JSON.  Resume must recover to a full re-run, not
    # crash or trust garbage.
    text = journal.read_text()
    journal.write_text(text[:len(text) // 2])
    loaded = CampaignJournal.load(journal)
    assert loaded.recovered and len(loaded) == 0
    resumed = run_campaign(cells, workers=1, journal_path=journal,
                           resume=True, **_FAST)
    assert resumed.fleet["fleet.cells_executed"] == len(cells)
    assert resumed.fleet["fleet.cells_resumed"] == 0
    assert resumed.canonical_json() == first.canonical_json()


def test_journal_version_mismatch_is_skipped(tmp_path):
    journal = tmp_path / "campaign.journal"
    journal.write_text(json.dumps(
        {"version": 999, "cells": {}, "shrinks": {}}))
    loaded = CampaignJournal.load(journal)
    assert loaded.recovered and len(loaded) == 0


@pytest.mark.parametrize("document", [
    "[]", '"x"', '{"version": 1, "cells": [], "shrinks": {}}',
    '{"version": 1, "cells": {}, "shrinks": {"k": 3}}',
    '{"version": true, "cells": {}, "shrinks": {}}', "[" * 100_000,
], ids=["list", "string", "cells-list", "shrink-int", "version-bool", "deep"])
def test_journal_that_is_json_but_not_a_journal_is_skipped(tmp_path, document):
    journal = tmp_path / "campaign.journal"
    journal.write_text(document)
    loaded = CampaignJournal.load(journal)
    assert loaded.recovered and len(loaded) == 0 and loaded.shrinks == {}


@pytest.fixture(scope="module")
def journal_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("journal") / "campaign.journal"
    run_campaign(_journal_grid(), workers=1, journal_path=path, **_FAST)
    return path, path.read_bytes()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_fuzzed_journal_loads_or_is_skipped(journal_blob, data):
    path, blob = journal_blob
    path.write_bytes(corrupt(data, blob))
    loaded = CampaignJournal.load(path)
    if loaded.recovered:
        assert len(loaded) == 0 and loaded.shrinks == {}
    for entry in loaded.cells.values():
        assert isinstance(entry["index"], int) and isinstance(entry["result"], dict)


def test_invalidated_key_reexecutes_exactly_that_cell(tmp_path):
    journal = tmp_path / "campaign.journal"
    cells = _journal_grid()
    first = run_campaign(cells, workers=1, journal_path=journal, **_FAST)
    # Drop one cell's entry — the on-disk equivalent of its content
    # address changing (scenario edit, plan change, tree change).
    data = json.loads(journal.read_text())
    victim = cell_key(cells[2])
    assert victim in data["cells"]
    del data["cells"][victim]
    journal.write_text(json.dumps(data))
    resumed = run_campaign(cells, workers=1, journal_path=journal,
                           resume=True, **_FAST)
    assert resumed.fleet["fleet.cells_resumed"] == len(cells) - 1
    assert resumed.fleet["fleet.cells_executed"] == 1
    assert resumed.canonical_json() == first.canonical_json()


def test_resume_survives_grid_reordering(tmp_path):
    # Content addressing means results follow the cell, not its index.
    journal = tmp_path / "campaign.journal"
    cells = _journal_grid()
    run_campaign(cells, workers=1, journal_path=journal, **_FAST)
    reordered = build_grid(["echo"], [1, 0],
                           [(n, get_plan(n)) for n in ("crash", "calm")])
    resumed = run_campaign(reordered, workers=1, journal_path=journal,
                           resume=True, **_FAST)
    assert resumed.fleet["fleet.cells_resumed"] == len(cells)
    assert resumed.fleet["fleet.cells_executed"] == 0
    assert [c["index"] for c in resumed.cells] == [0, 1, 2, 3]


def test_resume_reuses_journaled_shrinks(tmp_path, monkeypatch):
    journal = tmp_path / "campaign.journal"
    cells = _grid("echo", plans=("crash",))
    first = run_campaign(cells, workers=1, shrink=True,
                         journal_path=journal, out_dir=tmp_path / "traces")
    assert len(first.shrinks) == 1
    # The resumed run must serve the shrink from the journal, not re-run
    # the (expensive) minimizer.
    import repro.campaign.runner as runner_module

    def _fail(*args, **kwargs):
        raise AssertionError("shrink_cell re-invoked on resume")

    monkeypatch.setattr(runner_module, "shrink_cell", _fail)
    resumed = run_campaign(cells, workers=1, shrink=True,
                           journal_path=journal, resume=True,
                           out_dir=tmp_path / "traces")
    assert resumed.canonical_json() == first.canonical_json()


# ----------------------------------------------------------------------
# Coordinator crash: SIGKILL mid-campaign, then --resume
# ----------------------------------------------------------------------

_CRASH_SCRIPT = """
import sys
from repro.campaign import build_grid, get_plan, run_campaign

plans = [(n, get_plan(n)) for n in ("calm", "crash")]
cells = build_grid(["echo"], list(range(20)), plans)
run_campaign(cells, workers=2, shrink=False, journal_path=sys.argv[1])
"""


def _start_crash_script(tmp_path, journal):
    src_root = str(Path(repro.__file__).resolve().parents[1])
    return subprocess.Popen(
        [sys.executable, "-c", _CRASH_SCRIPT, str(journal)],
        env=dict(os.environ, PYTHONPATH=src_root), cwd=tmp_path,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _children(pid: int) -> list[int]:
    """Pids forked by process ``pid``'s main thread."""
    listing = Path(f"/proc/{pid}/task/{pid}/children").read_text()
    return [int(child) for child in listing.split()]


def _gone(pid: int) -> bool:
    """No such process — or a zombie only its new parent can reap."""
    try:
        os.kill(pid, 0)
        stat = Path("/proc", str(pid), "stat").read_text()
    except (ProcessLookupError, FileNotFoundError):
        return True
    return stat.rpartition(")")[2].split()[0] == "Z"


def test_workers_do_not_outlive_a_sigkilled_coordinator(tmp_path):
    # Regression: a forked worker kept its inherited copy of the
    # coordinator's end of its own pipe open, so the EOF its recv() was
    # waiting for could never arrive and the fleet lived forever.
    proc = _start_crash_script(tmp_path, tmp_path / "campaign.journal")
    try:
        deadline = time.monotonic() + 60.0
        workers: list[int] = []
        while len(workers) < 2 and time.monotonic() < deadline:
            assert proc.poll() is None, "campaign ended before the kill"
            workers = _children(proc.pid)
            time.sleep(0.002)
        assert len(workers) == 2
        proc.kill()
    finally:
        proc.kill()
        proc.wait()
    deadline = time.monotonic() + 5.0
    while not all(map(_gone, workers)) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert all(map(_gone, workers)), "fleet workers outlived their coordinator"


def test_sigkill_coordinator_then_resume_is_byte_identical(tmp_path):
    """The ISSUE acceptance scenario: kill the coordinator mid-campaign,
    resume, and get the byte-identical report without re-executing the
    journaled cells."""
    journal = tmp_path / "campaign.journal"
    proc = _start_crash_script(tmp_path, journal)
    try:
        # Wait until at least 3 cells are journaled, then SIGKILL the
        # coordinator mid-flight.  Every snapshot is atomically
        # replaced, so whatever we observe is a complete document.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            loaded = CampaignJournal.load(journal)
            if not loaded.recovered and len(loaded) >= 3:
                break
            if proc.poll() is not None:
                break  # tiny grid raced to completion; still resumable
            time.sleep(0.002)
        if proc.poll() is None:
            proc.kill()
    finally:
        proc.wait()

    plans = [(n, get_plan(n)) for n in ("calm", "crash")]
    cells = build_grid(["echo"], list(range(20)), plans)
    journaled = CampaignJournal.load(journal)
    assert not journaled.recovered and len(journaled) >= 3

    resumed = run_campaign(cells, workers=2, shrink=False,
                           journal_path=journal, resume=True)
    clean = run_campaign(cells, workers=1, shrink=False)
    assert resumed.canonical_json() == clean.canonical_json()
    # The resumed run really reused the crashed run's progress: every
    # cell was either restored from the journal or executed, never both.
    restored = resumed.fleet["fleet.cells_resumed"]
    executed = resumed.fleet["fleet.cells_executed"]
    assert restored == len(journaled)
    assert restored >= 3
    assert restored + executed == len(cells)
