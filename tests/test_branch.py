"""Branching time travel: fork-and-perturb, branch trees, event diffs."""

import pytest

from repro import MS, SEC, Cluster, FaultPlan, Pilgrim, record_run
from repro.debugger.repl import PilgrimRepl
from repro.replay import (
    BranchError,
    BranchInfo,
    BranchTree,
    Perturbation,
    ReplayUnsupported,
    TraceSession,
    detect_races,
    diff_branches,
    fork_trace,
)
from repro.replay.branch import (
    branch_key,
    parse_perturbation,
    resolve_builder,
)
from repro.replay.races import _delivery_orders

ECHO_SERVER = "proc echo(x: int) returns int\n  return x\nend"

ONE_CALL = """
proc main()
  var r: int := remote svc.echo(7)
  print r
end
"""

NAMES = ["alice", "bob", "server", "debugger"]


def build_two_clients(cluster):
    """Two clients racing one echo server (the time-travel example)."""
    image = cluster.load_program(ECHO_SERVER, "server")
    cluster.rpc("server").export_vm("svc", image, {"echo": "echo"})
    for name in ("alice", "bob"):
        cluster.spawn_vm(name, cluster.load_program(ONE_CALL, name), "main")


def jitter_plan():
    return FaultPlan().delay(at=0, duration=1 * SEC, extra=2 * MS,
                             jitter=6 * MS)


def record_parent(seed=1):
    return record_run(build_two_clients, NAMES, seed=seed, plan=jitter_plan(),
                      run_until=2 * SEC, checkpoint_every=20 * MS)


@pytest.fixture(scope="module")
def parent():
    return record_parent(seed=1)


def crash_pert(at=300 * MS, node="server"):
    return Perturbation.from_plan(FaultPlan().crash(at=at, node=node),
                                  kind="crash")


# ----------------------------------------------------------------------
# Forking (the acceptance bar)
# ----------------------------------------------------------------------


def test_fork_never_touches_the_parent(parent):
    before_fp = parent.fingerprint()
    before_lines = list(parent.lines())
    tree = BranchTree(parent, build_two_clients)
    branch = tree.fork(crash_pert())
    assert parent.fingerprint() == before_fp
    assert parent.lines() == before_lines
    assert branch.trace is not parent
    assert branch.trace.header["meta"]["branch_of"] == before_fp
    assert branch.trace.fingerprint() != before_fp


def test_fork_prefix_is_byte_identical_before_the_delta(parent):
    tree = BranchTree(parent, build_two_clients)
    branch = tree.fork(crash_pert(at=300 * MS))
    child_lines = branch.trace.lines()
    parent_lines = parent.lines()
    boundary = 0
    running = 0
    for line, event in zip(parent_lines, parent.events):
        running = max(running, event.time)
        if running >= 300 * MS:
            break
        boundary += 1
    assert boundary > 0
    assert child_lines[:boundary] == parent_lines[:boundary]


def test_fork_determinism_same_spec_same_bytes(parent, tmp_path):
    """Two independent forks of the same spec agree byte for byte."""
    pert = crash_pert()
    a = BranchTree(parent, build_two_clients).fork(pert)
    b = BranchTree(parent, build_two_clients).fork(pert)
    assert a.id == b.id
    assert a.trace.fingerprint() == b.trace.fingerprint()
    assert a.trace.lines() == b.trace.lines()
    a.trace.save(tmp_path / "a.trace.bin")
    b.trace.save(tmp_path / "b.trace.bin")
    assert (tmp_path / "a.trace.bin").read_bytes() == \
        (tmp_path / "b.trace.bin").read_bytes()


def test_fork_dedupes_identical_specs(parent):
    tree = BranchTree(parent, build_two_clients)
    first = tree.fork(crash_pert())
    again = tree.fork(crash_pert())
    assert again is first
    assert len(tree) == 2  # root + one branch


def test_without_fork_both_pools_refuse_before_doing_anything(
        parent, monkeypatch, tmp_path):
    """Without fork(2) a pooled campaign refuses before touching its
    journal; a branch needs no process at all and still forks."""
    import multiprocessing

    from repro.campaign import build_grid, get_plan, run_campaign
    from repro.debugger.errors import ForkUnavailableError

    def no_process(self):
        raise AssertionError("a process was started on a forkless platform")

    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        no_process)
    journal = tmp_path / "campaign.journal"
    journal.write_text("an earlier campaign's progress")
    cells = build_grid(["echo"], [0, 1], [("calm", get_plan("calm"))])
    with pytest.raises(ForkUnavailableError, match="workers=1"):
        run_campaign(cells, workers=2, shrink=False, journal_path=journal)
    assert journal.read_text() == "an earlier campaign's progress"
    # The alternative the message names still works.
    assert run_campaign(cells, workers=1, shrink=False).passed
    tree = BranchTree(parent, build_two_clients)
    branch = tree.fork(crash_pert())
    assert len(tree) == 2
    assert branch.trace.fingerprint() == fork_trace(
        parent, build_two_clients, 0, crash_pert()).fingerprint()


def test_fork_from_branch_builds_a_lineage(parent):
    tree = BranchTree(parent, build_two_clients)
    child = tree.fork(crash_pert(at=300 * MS))
    grand = tree.fork(crash_pert(at=500 * MS, node="alice"),
                      parent=child.id)
    assert grand.parent == child.id
    lineage = tree.lineage(grand.id)
    assert [b.id for b in lineage] == [tree.root.id, child.id, grand.id]
    injected = [e for e in grand.trace.events if e.type == "FaultInjected"]
    # The grandchild carries the jitter window, the crash, and its own.
    assert len(injected) == 3


# ----------------------------------------------------------------------
# Perturbations
# ----------------------------------------------------------------------


def test_perturbation_roundtrips_through_dict():
    pert = crash_pert()
    again = Perturbation.from_dict(pert.to_dict())
    assert again == pert
    assert again.canonical() == pert.canonical()


def test_perturbation_before_fork_time_is_rejected(parent):
    tree = BranchTree(parent, build_two_clients)
    late_checkpoint = len(parent.checkpoints) - 1
    assert parent.checkpoints[late_checkpoint].time > 0
    with pytest.raises(BranchError, match="before the fork checkpoint"):
        tree.fork(crash_pert(at=0), checkpoint=late_checkpoint)


def test_fork_checkpoint_out_of_range(parent):
    tree = BranchTree(parent, build_two_clients)
    with pytest.raises(BranchError, match="out of range"):
        tree.fork(crash_pert(), checkpoint=99)


@pytest.mark.parametrize("where", ["minus_one", "minus_all", "one_past"])
def test_fork_checkpoint_counts_from_the_first(parent, where):
    """A checkpoint has one index: negative ones and the one past the end
    are refused before a branch is addressed, not aliased to another."""
    last = parent.n_checkpoints - 1
    index = {"minus_one": -1, "minus_all": -parent.n_checkpoints,
             "one_past": last + 1}[where]
    tree = BranchTree(parent, build_two_clients)
    with pytest.raises(BranchError, match=f"0..{last}"):
        tree.fork(Perturbation(kind="none"), checkpoint=index)
    assert len(tree) == 1
    with pytest.raises(BranchError, match="out of range"):
        fork_trace(parent, build_two_clients, index, Perturbation(kind="none"))


def test_parse_perturbation_builds_fault_actions():
    pert = parse_perturbation("crash", ["node=server", "at=300"])
    assert pert.kind == "crash"
    assert len(pert.actions) == 1
    action = pert.actions[0]
    assert action.kind == "crash" and action.at == 300
    with pytest.raises(BranchError):
        parse_perturbation("meteor", ["at=0"])


def test_branch_key_is_content_addressed(parent):
    pert = crash_pert()
    key = branch_key(parent.fingerprint(), 0, pert)
    assert key == branch_key(parent.fingerprint(), 0, crash_pert())
    assert key != branch_key(parent.fingerprint(), 1, pert)
    assert key != branch_key(parent.fingerprint(), 0, pert, run_until=1)


def test_resolve_builder_accepts_scenario_and_dotted_refs():
    assert callable(resolve_builder("scenario:echo"))
    ref = f"{__name__}:build_two_clients"
    assert resolve_builder(ref) is build_two_clients
    assert resolve_builder(build_two_clients) is build_two_clients
    with pytest.raises(BranchError):
        resolve_builder("scenario:no_such_scenario")


# ----------------------------------------------------------------------
# Race flipping
# ----------------------------------------------------------------------


def test_flip_race_inverts_the_delivery_order(parent):
    other = record_parent(seed=5)
    races = detect_races(parent, other)
    assert races, "seeds 1 and 5 must exhibit the known echo race"
    race = races[0]
    pert = Perturbation.flip_race(parent, race)
    tree = BranchTree(parent, build_two_clients)
    branch = tree.fork(pert)
    orders = _delivery_orders(branch.trace)[race.dst]
    assert orders.index(race.second) < orders.index(race.first)
    diff = tree.diff("root", branch.id)
    assert diff.first_divergence is not None
    assert "FaultInjected" in diff.first_divergence["b"]


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------


def test_diff_identical_traces(parent):
    diff = diff_branches(parent, parent)
    assert diff.identical
    assert diff.first_divergence is None
    assert diff.per_node == {}


def test_diff_reports_first_divergence_and_per_node_times(parent):
    tree = BranchTree(parent, build_two_clients)
    branch = tree.fork(crash_pert(at=300 * MS))
    diff = tree.diff("root", branch.id)
    assert not diff.identical
    assert diff.first_divergence["index"] >= 1
    assert diff.first_divergence["time_b"] is not None
    server = 2  # NAMES order: alice=0, bob=1, server=2
    assert any(int(node) == server for node in diff.per_node)


def test_diff_is_symmetric(parent):
    tree = BranchTree(parent, build_two_clients)
    branch = tree.fork(crash_pert())
    ab = tree.diff("root", branch.id)
    ba = tree.diff(branch.id, "root")
    assert ab.identical == ba.identical
    assert ab.first_divergence["index"] == ba.first_divergence["index"]
    assert ab.first_divergence["a"] == ba.first_divergence["b"]
    assert ab.events_a == ba.events_b and ab.events_b == ba.events_a
    assert ab.halted_a == ba.halted_b
    for counter, (in_a, in_b) in ab.count_delta.items():
        assert ba.count_delta[counter] == [in_b, in_a]


def test_branch_ref_prefix_resolution(parent):
    tree = BranchTree(parent, build_two_clients)
    branch = tree.fork(crash_pert())
    assert tree.get(branch.id[:8]) is branch
    assert tree.get("root") is tree.root
    assert tree.get(None) is tree.root
    with pytest.raises(BranchError, match="no branch"):
        tree.get("ffffffff")


# ----------------------------------------------------------------------
# Guard rails
# ----------------------------------------------------------------------


def record_manual_trace():
    """A Pilgrim-driven recording: it starts mid-run, so nothing re-executes it."""
    cluster = Cluster(names=["client", "server", "debugger"], seed=5)
    image = cluster.load_program(ECHO_SERVER, "server")
    cluster.rpc("server").export_vm("svc", image, {"echo": "echo"})
    cluster.spawn_vm("client", cluster.load_program(ONE_CALL, "client"),
                     "main")
    dbg = Pilgrim(cluster, home="debugger")
    dbg.connect("client", "server")
    dbg.start_recording()
    dbg.run_for(300 * MS)
    return dbg.stop_recording()


def test_manual_traces_are_not_forkable():
    tree = BranchTree(record_manual_trace(), build_two_clients)
    with pytest.raises(ReplayUnsupported):
        tree.fork(crash_pert(at=100 * MS))
    # run_until overrides how far the child runs, never forkability.
    with pytest.raises(ReplayUnsupported):
        tree.fork(crash_pert(at=100 * MS), run_until=SEC)


def test_manual_traces_refuse_every_re_execution():
    """One rule for every path that re-executes: a replay and a bounded
    replay refuse exactly as a fork does, with the typed error the wire
    carries as ``unsupported``."""
    from repro.debugger.errors import UnsupportedOperationError
    from repro.replay import ReplayWorld

    trace = record_manual_trace()
    assert issubclass(ReplayUnsupported, UnsupportedOperationError)
    assert ReplayUnsupported.code == "unsupported"
    with pytest.raises(ReplayUnsupported, match="manually driven"):
        ReplayWorld(trace, build_two_clients).verify()
    with pytest.raises(ReplayUnsupported, match="manually driven"):
        ReplayWorld(trace, build_two_clients, run_until=SEC).verify()


def test_fork_without_builder_is_a_typed_error(parent):
    tree = BranchTree(parent)
    with pytest.raises(BranchError, match="builder"):
        tree.fork(crash_pert())


# ----------------------------------------------------------------------
# Debugger surfaces
# ----------------------------------------------------------------------


def test_trace_session_fork_returns_wire_records(parent):
    session = TraceSession(parent, builder=build_two_clients)
    info = session.fork(crash_pert())
    assert isinstance(info, BranchInfo)
    assert info.events == info.events  # frozen record, wire-shaped
    listed = session.branches()
    assert [b.id for b in listed[1:]] == [info.id]
    diff = session.diff_branches("root", info.id[:8])
    assert not diff.identical
    child = session.branch_session(info.id[:8])
    assert child.at(0).time == 0


def test_repl_fork_branches_diff_commands(parent):
    session = TraceSession(parent, builder=build_two_clients)
    repl = PilgrimRepl(session)
    repl.run_script(["fork 0 crash node=server at=300ms", "branches"])
    assert any("forked branch" in line for line in repl.lines)
    info = session.branches()[1]
    repl.run_script([f"diff root {info.id[:8]}"])
    assert any("first divergence" in line for line in repl.lines)


# ----------------------------------------------------------------------
# Contracts: invariant-level diffs and the races -> contracts bridge
# ----------------------------------------------------------------------


def test_diff_carries_contract_verdicts(parent):
    from repro.contracts import UNIVERSAL_SET

    tree = BranchTree(parent, build_two_clients)
    branch = tree.fork(crash_pert())
    diff = tree.diff("root", branch.id)
    assert set(diff.contracts_a) == set(UNIVERSAL_SET.names())
    assert set(diff.contracts_b) == set(UNIVERSAL_SET.names())
    # A mid-run crash of the echo server breaks no safety contract, so
    # the invariant-level diff is empty even though the streams diverge.
    assert diff.first_contract_divergence is None


def test_diff_respects_a_custom_contract_set(parent):
    from repro.contracts import resolve_contracts

    tree = BranchTree(parent, build_two_clients,
                      contracts=resolve_contracts("clock_monotonicity"))
    branch = tree.fork(crash_pert())
    diff = tree.diff("root", branch.id)
    assert list(diff.contracts_a) == ["clock_monotonicity"]


def test_classify_races_tags_benign_inversions(parent):
    from repro.replay.branch import classify_races

    other = record_parent(seed=5)
    races = detect_races(parent, other)
    assert races and races[0].harmful is None
    tree = BranchTree(parent, build_two_clients)
    classified = classify_races(tree, races[:1])
    assert len(classified) == 1
    # Flipping the echo race reorders deliveries without breaking any
    # universal contract: the bridge judges it benign, not unclassified.
    assert classified[0].harmful is False
    assert "benign" in repr(classified[0])
    assert races[0].harmful is None  # input records are never mutated


def test_classify_races_leaves_unexecutable_flips_unclassified(parent):
    from repro.replay.branch import classify_races
    from repro.replay.races import MessageRace

    ghost = MessageRace(dst=0, first=(9, 9, "ghost", 0),
                        second=(9, 9, "ghost", 1), pos_a=(0, 1), pos_b=(1, 0))
    tree = BranchTree(parent, build_two_clients)
    classified = classify_races(tree, [ghost])
    assert classified[0].harmful is None
    assert "harmful" not in repr(classified[0])
    assert "benign" not in repr(classified[0])
