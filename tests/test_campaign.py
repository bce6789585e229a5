"""Campaign runner, shrinker, report determinism, and CLI smoke tests."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.campaign import (
    CampaignReport,
    CellSpec,
    build_grid,
    get_plan,
    get_scenario,
    run_campaign,
    run_cell,
    shrink_cell,
)
from repro.campaign.cli import main as campaign_main
from repro.campaign.scenarios import ECHO_FULL_MASK
from repro.debugger.repl import help_text
from repro.faults.plan import FaultPlan
from repro.obs.metrics import merge_snapshots
from repro.replay import ReplayWorld, Trace
from repro.sim.units import MS, SEC
from repro.sim.world import SimulationError, World


# ----------------------------------------------------------------------
# FaultPlan split / merge / narrow (the shrinker's step primitives)
# ----------------------------------------------------------------------

def test_split_merge_round_trip():
    plan = (FaultPlan()
            .delay(at=50 * MS, duration=800 * MS, extra=4 * MS)
            .partition(at=80 * MS, groups=((0,), (1,)), duration=100 * MS)
            .crash(at=450 * MS, node="server"))
    units = plan.split()
    assert [len(unit) for unit in units] == [1, 1, 1]
    rebuilt = FaultPlan.merge(units)
    assert rebuilt.to_dict() == plan.to_dict()


def test_split_merge_empty_plan():
    assert FaultPlan().split() == []
    assert FaultPlan.merge([]).to_dict() == FaultPlan().to_dict()


def test_merge_sorts_by_time_stably():
    # Two windows overlapping at the same start time: merge must order by
    # `at` but keep the original relative order for ties (stable sort).
    early = FaultPlan().loss(at=10 * MS, duration=20 * MS)
    tie_a = FaultPlan().delay(at=5 * MS, duration=50 * MS, extra=1 * MS)
    tie_b = FaultPlan().duplicate(at=5 * MS, duration=50 * MS)
    merged = FaultPlan.merge([early, tie_a, tie_b])
    kinds = [action.kind for action in merged.actions]
    assert kinds == ["delay", "duplicate", "loss"]


def test_without_and_narrowed():
    plan = (FaultPlan()
            .delay(at=50 * MS, duration=800 * MS, extra=4 * MS)
            .crash(at=450 * MS, node="server"))
    only_crash = plan.without([0])
    assert [a.kind for a in only_crash.actions] == ["crash"]
    narrowed = plan.narrowed(0)
    assert narrowed.actions[0].duration == 400 * MS
    assert plan.actions[0].duration == 800 * MS  # original untouched
    with pytest.raises(ValueError):
        plan.narrowed(1)  # crash is a point action, not a window
    assert plan.window_count() == 2  # one window + the crash


# ----------------------------------------------------------------------
# Metrics merge
# ----------------------------------------------------------------------

def test_merge_snapshots_counters_and_histograms():
    a = {"rpc.calls_started": 3,
         "rpc.latency_us": {"count": 2, "mean": 100.0, "min": 50, "max": 150}}
    b = {"rpc.calls_started": 4,
         "rpc.latency_us": {"count": 1, "mean": 400.0, "min": 400, "max": 400}}
    merged = merge_snapshots([a, b])
    assert merged["rpc.calls_started"] == 7
    hist = merged["rpc.latency_us"]
    assert hist["count"] == 3
    assert hist["min"] == 50 and hist["max"] == 400
    assert hist["mean"] == pytest.approx(200.0)  # exact, not mean-of-means
    # Order independence.
    assert merge_snapshots([b, a]) == merged


# ----------------------------------------------------------------------
# World / Cluster teardown
# ----------------------------------------------------------------------

def test_world_close_cancels_pending():
    world = World(seed=0)
    world.schedule(1 * SEC, lambda: None)
    assert world.pending_count() > 0
    world.close()
    assert world.pending_count() == 0
    with pytest.raises(SimulationError):
        world.run(until=2 * SEC)


def test_closed_world_refuses_new_events():
    """A stale callback must not queue into a torn-down world: both
    schedule calls raise, nothing becomes pending, close() is still
    idempotent, and the past-time checks keep their own messages."""
    world = World(seed=0)
    world.schedule(1 * MS, lambda: None)
    world.run(until=2 * MS)
    world.close()
    with pytest.raises(SimulationError, match="world is closed"):
        world.schedule(1 * MS, lambda: None)
    with pytest.raises(SimulationError, match="world is closed"):
        world.schedule_at(world.now + 1 * SEC, lambda: None, node=3)
    assert world.pending_count() == 0
    world.close()
    assert world.pending_count() == 0
    with pytest.raises(SimulationError, match="world is closed"):
        world.schedule(0, lambda: None)
    with pytest.raises(SimulationError, match="into the past"):
        world.schedule(-1, lambda: None)
    with pytest.raises(SimulationError, match="before now"):
        world.schedule_at(world.now - 1, lambda: None)


def test_world_close_rejects_running_world():
    world = World(seed=0)

    def closer():
        with pytest.raises(SimulationError):
            world.close()

    world.schedule(1 * MS, closer)
    world.run(until=2 * MS)


# ----------------------------------------------------------------------
# Grid construction and sharding
# ----------------------------------------------------------------------

def test_build_grid_ordering_and_unknown_scenario():
    plans = [("calm", get_plan("calm")), ("crash", get_plan("crash"))]
    cells = build_grid(["echo"], [0, 1], plans)
    assert [cell.index for cell in cells] == [0, 1, 2, 3]
    assert [cell.label() for cell in cells] == [
        "echo/s0/calm", "echo/s0/crash", "echo/s1/calm", "echo/s1/crash",
    ]
    with pytest.raises(KeyError):
        build_grid(["nope"], [0], plans)


# ----------------------------------------------------------------------
# Campaign execution: verdicts and worker-count independence
# ----------------------------------------------------------------------

GRID_ARGS = (["echo"], [0, 1],
             [("calm", get_plan("calm")), ("crash", get_plan("crash"))])


def test_run_cell_verdicts():
    cells = build_grid(*GRID_ARGS)
    calm = run_cell(cells[0])
    assert calm["verdict"] == "pass" and calm["violations"] == []
    crash = run_cell(cells[1])
    assert crash["verdict"] == "fail"
    assert any("lost calls" in v for v in crash["violations"])
    # The success bitmask pins exactly which calls died with the server.
    assert f"{ECHO_FULL_MASK:#x}" in crash["violations"][0]


def test_run_cell_fingerprints_are_pinned():
    """Literal stream fingerprints for echo x seeds {0, 7} x {calm,
    crash}, computed when cells still recorded through the standalone
    line recorder: the cell's recorder can change, its report cannot.
    (The echo workload draws nothing from the RNG, so the two seeds
    agree.)"""
    calm = "86a109d65d5b773b2b0660be951b2d27085ebf36fa83404a62c4cbdf096f63d9"
    crash = "428862e503cea4141540d164b6881b9e6398b10ab02a5de14d9a7cde3fdabd84"
    cells = build_grid(["echo"], [0, 7], GRID_ARGS[2])
    assert [run_cell(cell)["fingerprint"] for cell in cells] == [
        calm, crash, calm, crash]


def test_report_byte_identical_across_worker_counts():
    cells = build_grid(*GRID_ARGS)
    inline = run_campaign(cells, workers=1, shrink=False)
    pooled = run_campaign(cells, workers=2, shrink=False)
    wide = run_campaign(cells, workers=4, shrink=False)
    assert inline.canonical_json() == pooled.canonical_json()
    assert inline.canonical_json() == wide.canonical_json()
    assert inline.workers == 1 and pooled.workers == 2  # run facts differ
    assert len(inline.failed) == 2 and len(inline.passed) == 2


def test_report_save_and_summary(tmp_path):
    cells = build_grid(*GRID_ARGS)
    report = run_campaign(cells, workers=1, shrink=False)
    path = tmp_path / "report.json"
    report.save(path)
    data = json.loads(path.read_text())
    assert data["totals"] == {"cells": 4, "passed": 2, "failed": 2,
                              "errored": 0,
                              "events": sum(c["events"] for c in report.cells)}
    assert data["metrics"]["rpc.calls_started"] == 48  # 12 calls x 4 cells
    text = report.summary()
    assert "echo/s0/crash" in text and "fail" in text
    assert "fleet metrics" in text


# ----------------------------------------------------------------------
# The shrinker
# ----------------------------------------------------------------------

def test_shrinker_converges_on_storm(tmp_path):
    storm = build_grid(["echo"], [0], [("storm", get_plan("storm"))])[0]
    assert len(storm.plan) == 5
    result = shrink_cell(storm, out_dir=str(tmp_path))
    # The storm's noise windows are stripped; only the fatal crash stays.
    assert len(result.minimal_plan) == 1
    assert result.minimal_plan.actions[0].kind == "crash"
    assert result.minimal_plan.window_count() <= 2
    # The horizon tightens to just past the last relevant event.
    assert result.horizon < get_scenario("echo").run_until
    assert result.reductions >= 3
    assert result.trials >= result.reductions
    # The golden trace replays byte-identically and re-fails identically.
    trace = Trace.load(result.trace_path)
    scenario = get_scenario("echo")
    probes = {}

    def build(cluster):
        probes.update(scenario.build(cluster))

    world = ReplayWorld(trace, build)
    verify = world.verify()
    assert verify.fingerprint == result.trace_fingerprint
    assert scenario.report(world.cluster, probes).messages() \
        == result.violations
    assert result.repro_command.endswith(str(trace_path := result.trace_path)) \
        and trace_path


def test_shrinker_rejects_passing_cell():
    calm = build_grid(["echo"], [0], [("calm", get_plan("calm"))])[0]
    with pytest.raises(ValueError):
        shrink_cell(calm)


def test_campaign_shrinks_failures(tmp_path):
    cells = build_grid(["echo"], [0],
                       [("calm", get_plan("calm")),
                        ("crash", get_plan("crash"))])
    report = run_campaign(cells, workers=1, shrink=True,
                          out_dir=str(tmp_path))
    assert len(report.shrinks) == 1
    shrink = report.shrinks[0]
    assert shrink["plan_name"] == "crash"
    assert shrink["minimal_windows"] <= 2
    assert (tmp_path / "echo_s0_crash.min.trace.bin").exists()
    assert "repro" in shrink["repro_command"]


def test_manual_cellspec_round_trips_through_shrinker():
    # A hand-built spec (not from a preset) shrinks too: two actions,
    # one irrelevant loss window, one fatal crash.
    plan = (FaultPlan()
            .loss(at=20 * MS, duration=30 * MS, probability=1.0)
            .crash(at=150 * MS, node="server"))
    cell = CellSpec(index=0, scenario="echo", seed=3,
                    plan_name="custom", plan=plan)
    result = shrink_cell(cell)
    assert [a.kind for a in result.minimal_plan.actions] == ["crash"]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_scenarios_lists_catalogue(capsys):
    assert campaign_main(["scenarios"]) == 0
    out = capsys.readouterr().out
    assert "echo" in out and "storm" in out


def test_summaries_survive_stripped_docstrings(capsys):
    """Under ``python -OO`` (no docstrings) the daemon and the REPL
    import, and the REPL's ``help`` and ``scenarios`` print what they
    print with docstrings: no summary is read from one."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}

    def stripped(*args):
        result = subprocess.run([sys.executable, "-OO", *args], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        return result.stdout

    assert stripped("-c", "import repro.service\nfrom repro.debugger.repl import help_text\n"
                          "print(help_text())") == help_text() + "\n"
    assert campaign_main(["scenarios"]) == 0
    assert stripped("-m", "repro.campaign", "scenarios") == capsys.readouterr().out


def test_cli_run_and_repro_round_trip(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    exit_code = campaign_main([
        "run", "--scenario", "echo", "--seeds", "0",
        "--plans", "calm,crash", "--workers", "1",
        "--report", str(report_path), "--traces-dir", str(tmp_path),
    ])
    assert exit_code == 1  # failing cells -> non-zero
    out = capsys.readouterr().out
    assert "2 cells, 1 passed, 1 failed" in out
    assert report_path.exists()

    trace_path = tmp_path / "echo_s0_crash.min.trace.bin"
    assert campaign_main(["repro", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "REPRODUCED" in out


def test_cli_run_all_green_exits_zero(capsys):
    assert campaign_main([
        "run", "--seeds", "0", "--plans", "calm", "--no-shrink",
    ]) == 0
    assert "1 passed, 0 failed" in capsys.readouterr().out


def test_cli_repro_rejects_foreign_trace(tmp_path, capsys):
    from repro.campaign.scenarios import _echo_build
    from repro.replay import record_run

    trace = record_run(_echo_build, ["client", "server"], seed=0,
                       run_until=1 * SEC)
    path = tmp_path / "plain.trace.bin"
    trace.save(path)
    assert campaign_main(["repro", str(path)]) == 2
    assert "not a campaign golden trace" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Verdict extraction / prefix replay used by the shrinker
# ----------------------------------------------------------------------

def test_extract_verdict_counts_failures():
    from repro.campaign.scenarios import _echo_build
    from repro.replay import extract_verdict, record_run

    plan = get_plan("crash")
    trace = record_run(_echo_build, ["client", "server"], seed=0, plan=plan,
                       checkpoint_every=250 * MS, run_until=2 * SEC)
    verdict = extract_verdict(trace)
    assert verdict["counts"]["rpc_failed"] > 0
    assert verdict["counts"]["faults_injected"] == 1
    assert verdict["failed_calls"]  # distinct failed call ids
    assert verdict["first_failure"]["type"] == "RpcCallFailed"


def test_bounded_replay_verifies_a_checkpoint_prefix():
    from repro.campaign.scenarios import _echo_build
    from repro.replay import ReplayWorld, record_run

    trace = record_run(_echo_build, ["client", "server"], seed=0,
                       checkpoint_every=100 * MS, run_until=1 * SEC)
    assert len(trace.checkpoints) >= 2
    checkpoint = trace.checkpoint(1)
    report = ReplayWorld(trace, _echo_build,
                         run_until=checkpoint.view.time + 1).verify()
    assert report.events >= checkpoint.index
    assert report.events == trace.prefix_before(checkpoint.view.time + 1)
    assert report.checkpoints_verified == 0


def test_trace_checkpoints_count_from_the_first():
    """Nothing wraps from the end: a negative index or one past the last
    checkpoint is an IndexError naming the range, not another checkpoint."""
    from repro.campaign.scenarios import _echo_build
    from repro.replay import record_run

    trace = record_run(_echo_build, ["client", "server"], seed=0,
                       checkpoint_every=100 * MS, run_until=300 * MS)
    last = trace.n_checkpoints - 1
    for index in (-1, -trace.n_checkpoints, last + 1):
        with pytest.raises(IndexError, match=f"checkpoint {index} out of range .*0..{last}"):
            trace.checkpoint(index)
