"""repro.contracts: DSL resolution, online/offline equivalence, goldens.

The online :class:`~repro.contracts.online.ContractMonitor` (over the
trace writer's stream, or over a bare bus its own) and the offline
:func:`~repro.contracts.offline.check_trace` run one fold, so their
canonical :class:`~repro.contracts.report.ContractReport` documents
are **byte-identical** by construction — still checked here over a
3 seeds x {no-fault, chaos} x {ring, mesh} grid of the golden echo
scenario plus the replicated-KV scenario, pinned against committed
goldens under ``tests/golden/``, and fenced by a fold count (no fold
while the run goes, one per checker at ``report()``).
"""

import dataclasses
import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MS, SEC, record_run
from repro.contracts import (
    CONTRACTS,
    UNIVERSAL_SET,
    ContractReport,
    ContractSet,
    ContractViolation,
    catalog,
    check_trace,
    contracts_for_trace,
    merge_reports,
    resolve_contracts,
)
from repro.contracts.dsl import (
    ALL_EVENTS,
    CLOCK_MONOTONICITY,
    EXACTLY_ONCE_DELIVERY,
    NO_LOST_CALLS,
    SINGLE_LEADER,
    BaseChecker,
    CheckerBank,
    ProbeContract,
    universal_contracts,
)
from repro.contracts.offline import first_violation, fold_prefix
from repro.replay.trace import EventColumns, Trace
from tests.golden_scenario import GOLDEN_BINARY_PATH, GOLDEN_NAMES, build, plan

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
ECHO_REPORT_GOLDEN = GOLDEN_DIR / "contracts_echo_chaos_seed7.report.json"
KV_REPORT_GOLDEN = GOLDEN_DIR / "contracts_kv_partition_seed0.report.json"

GRID_SEEDS = (1, 2, 3)
GRID_PLANS = ("calm", "chaos")
GRID_TOPOLOGIES = ("ring", "mesh")


def record_echo(seed, plan_name, topology, contracts=UNIVERSAL_SET):
    """One grid cell: the golden echo recipe under a plan/topology."""
    return record_run(
        build, GOLDEN_NAMES, seed=seed,
        plan=plan() if plan_name == "chaos" else None,
        run_until=4 * SEC, topology=topology, contracts=contracts,
    )


# ----------------------------------------------------------------------
# Online / offline equivalence (the tentpole guarantee)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", GRID_SEEDS)
@pytest.mark.parametrize("plan_name", GRID_PLANS)
@pytest.mark.parametrize("topology", GRID_TOPOLOGIES)
def test_online_offline_reports_are_byte_identical(seed, plan_name, topology):
    """A monitor riding the writer, a monitor over the bare bus (its own
    stream, no recording) and the offline fold give one report."""
    from repro.replay import Recipe, execute

    trace = record_echo(seed, plan_name, topology)
    riding = trace.contract_report
    _, _, bare, _ = execute(Recipe.of(trace), build, contracts=UNIVERSAL_SET,
                            record=False)
    offline = check_trace(trace, UNIVERSAL_SET)
    assert riding.canonical() == bare.report().canonical() == offline.canonical()


def test_equivalence_holds_for_the_kv_split_brain():
    from repro.campaign.scenarios import get_plan, get_scenario

    scenario = get_scenario("kv")
    trace = record_run(
        scenario.build, list(scenario.names), seed=0,
        run_until=scenario.run_until, plan=get_plan("leader_partition"),
        contracts=scenario.contracts,
    )
    online = trace.contract_report
    offline = check_trace(trace, scenario.contracts)
    assert online.canonical() == offline.canonical()
    assert online.verdicts["single_leader"] == "fail"
    assert not online.ok


def test_equivalence_survives_a_save_load_round_trip(tmp_path):
    from repro.replay import Trace

    trace = record_echo(7, "chaos", "ring")
    path = tmp_path / "echo.trace.bin"
    trace.save(path)
    reread = Trace.load(path)
    assert (check_trace(reread, UNIVERSAL_SET).canonical()
            == trace.contract_report.canonical())


# ----------------------------------------------------------------------
# Committed goldens: reports must not drift silently
# ----------------------------------------------------------------------


def test_echo_golden_report_matches_the_committed_file():
    from repro.replay import Trace

    trace = Trace.load(GOLDEN_BINARY_PATH)
    report = check_trace(trace, UNIVERSAL_SET)
    committed = json.loads(ECHO_REPORT_GOLDEN.read_text())
    assert json.loads(report.canonical()) == committed, (
        "contract report over the committed golden trace drifted; if the "
        "change is intentional, regenerate with tools/regen_goldens.py"
    )


def test_kv_golden_report_matches_the_committed_file():
    from repro.campaign.scenarios import get_plan, get_scenario

    scenario = get_scenario("kv")
    trace = record_run(
        scenario.build, list(scenario.names), seed=0,
        run_until=scenario.run_until, plan=get_plan("leader_partition"),
    )
    report = check_trace(trace, scenario.contracts)
    committed = json.loads(KV_REPORT_GOLDEN.read_text())
    assert json.loads(report.canonical()) == committed, (
        "KV contract report drifted; if the change is intentional, "
        "regenerate with tools/regen_goldens.py"
    )


# ----------------------------------------------------------------------
# DSL resolution and the report record
# ----------------------------------------------------------------------


def test_resolve_contracts_accepts_names_sets_and_none():
    assert resolve_contracts(None) is UNIVERSAL_SET
    assert resolve_contracts(UNIVERSAL_SET) is UNIVERSAL_SET
    single = resolve_contracts("single_leader")
    assert single.names() == ["single_leader"]
    pair = resolve_contracts(["single_leader", "clock_monotonicity"])
    assert pair.names() == ["single_leader", "clock_monotonicity"]
    assert resolve_contracts(SINGLE_LEADER).names() == ["single_leader"]
    with pytest.raises(KeyError):
        resolve_contracts("no_such_contract")


def test_catalog_lists_every_shipped_contract():
    rows = catalog()
    assert sorted(row["name"] for row in rows) == sorted(CONTRACTS)
    assert all(row["description"] for row in rows)


def test_contracts_for_trace_prefers_the_campaign_scenario_set():
    from repro.campaign.scenarios import get_scenario

    plain = record_echo(1, "calm", "ring", contracts=None)
    assert contracts_for_trace(plain) is UNIVERSAL_SET
    scenario = get_scenario("kv")
    tagged = record_run(
        scenario.build, list(scenario.names), seed=0, run_until=200 * MS,
        meta={"campaign": {"scenario": "kv"}},
    )
    assert contracts_for_trace(tagged) is scenario.contracts
    unknown = record_run(
        scenario.build, list(scenario.names), seed=0, run_until=200 * MS,
        meta={"campaign": {"scenario": "gone"}},
    )
    assert contracts_for_trace(unknown) is UNIVERSAL_SET


def test_probe_requires_chaining_skips_dependents():
    base = ProbeContract(
        name="base", description="always fails",
        check=lambda facts: "base broke",
    )
    dependent = ProbeContract(
        name="dependent", description="needs base",
        check=lambda facts: None, requires=("base",),
    )
    report = ContractSet(name="t", contracts=(base, dependent)) \
        .check_probes(cluster=None, probes={})
    assert report.verdicts == {"base": "fail", "dependent": "skipped"}
    assert report.messages() == ["base broke"]


def test_merge_reports_orders_verdicts_and_concatenates_violations():
    first = ContractReport(verdicts={"b": "pass"}, violations=(), events=0)
    second = ContractReport(
        verdicts={"a": "fail"},
        violations=(ContractViolation(contract="a", message="broke"),),
        events=42,
    )
    merged = merge_reports(first, second, order=["a", "b"])
    assert list(merged.verdicts) == ["a", "b"]
    assert merged.events == 42
    assert not merged.ok
    assert merged.first_violation().message == "broke"


def test_violation_evidence_cites_trace_lines():
    trace = record_echo(7, "chaos", "ring")
    report = check_trace(trace, UNIVERSAL_SET)
    lines = set(trace.lines())
    for violation in report.violations:
        for cited in violation.evidence:
            assert cited in lines


# ----------------------------------------------------------------------
# The monitor folds nothing while the run goes
# ----------------------------------------------------------------------


def test_contract_violated_stays_out_of_the_recorded_stream():
    """Judgments are not facts: no violation event type exists, so
    recorders never see one; verdicts live only in the report."""
    from repro.obs import events as ev

    assert "ContractViolated" not in ev.__all__
    assert not hasattr(ev, "ContractViolated")
    trace = record_echo(7, "chaos", "ring")
    assert all(event.type != "ContractViolated" for event in trace.events)


def test_monitor_does_not_perturb_the_event_stream():
    bare = record_echo(5, "chaos", "ring", contracts=None)
    watched = record_echo(5, "chaos", "ring")
    assert bare.fingerprint() == watched.fingerprint()


def test_monitor_over_a_bare_bus_reports_the_kv_split_brain():
    """A monitor built straight over a cluster's bus (no writer, no
    ``execute``) records its own stream and reports split brain at
    ``report()`` with the verdicts a recorded run gets."""
    from repro.campaign.scenarios import get_plan, get_scenario
    from repro.cluster import Cluster
    from repro.contracts.online import ContractMonitor
    from repro.faults.plan import Nemesis

    scenario = get_scenario("kv")
    cluster = Cluster(names=list(scenario.names), seed=0)
    monitor = ContractMonitor(cluster.world.bus, scenario.contracts)
    scenario.build(cluster)
    Nemesis(cluster, get_plan("leader_partition"))
    cluster.run(until=scenario.run_until)
    report = monitor.report()
    assert report.verdicts["single_leader"] == "fail"
    assert report.events > 0 and report is monitor.report()
    recorded = record_run(
        scenario.build, list(scenario.names), seed=0,
        run_until=scenario.run_until, plan=get_plan("leader_partition"),
        contracts=scenario.contracts,
    )
    assert report.verdicts == recorded.contract_report.verdicts


def test_monitor_folds_only_what_follows_its_attach():
    """A monitor attached mid-run examines the events recorded after it
    attached, not the run's earlier ones."""
    from repro.cluster import Cluster
    from repro.contracts.online import ContractMonitor

    cluster = Cluster(names=list(GOLDEN_NAMES), seed=7)
    whole = ContractMonitor(cluster.world.bus, UNIVERSAL_SET)
    build(cluster)
    cluster.run(until=100 * MS)
    late = ContractMonitor(cluster.world.bus, UNIVERSAL_SET)
    assert late.report().events == 0
    late = ContractMonitor(cluster.world.bus, UNIVERSAL_SET)
    cluster.run(until=4 * SEC)
    assert 0 < late.report().events < whole.report().events
    assert late.report().ok and whole.report().ok


def _counting(checker, folds: list):
    """``checker``'s class with each ``fold`` call logged in ``folds``
    as the checker that made it."""
    class Counting(checker):
        def fold(self, events, positions):
            folds.append(self)
            super().fold(events, positions)
    return Counting


def test_monitor_folds_each_checker_once_at_report():
    """Under ``record_run`` and ``execute(record=False)`` alike, no
    checker folds while the run goes, each folds once at ``report()``,
    and the report is ``check_trace``'s."""
    from repro.obs import events as ev
    from repro.replay import Recipe, execute

    folds, during = [], []
    # A stream-wide, a typed and a liveness checker, each counting folds.
    counted = ContractSet(name="counted", contracts=tuple(
        dataclasses.replace(contract, state=_counting(contract.state, folds))
        for contract in (CLOCK_MONOTONICITY, EXACTLY_ONCE_DELIVERY, NO_LOST_CALLS)))

    def sampled(cluster):
        cluster.world.bus.subscribe(ev.RpcCallCompleted,
                                    lambda _: during.append(len(folds)))
        return build(cluster)

    def folds_per_checker():
        return sorted(Counter(map(id, folds)).values())

    trace = record_run(sampled, GOLDEN_NAMES, seed=7, run_until=4 * SEC,
                       contracts=counted)
    assert during and set(during) == {0}
    assert folds_per_checker() == [1, 1, 1]
    offline = check_trace(trace, counted)
    assert trace.contract_report.canonical() == offline.canonical()

    during.clear()
    folds.clear()
    _, _, monitor, _ = execute(Recipe.of(trace), sampled, contracts=counted,
                               record=False)
    assert during and set(during) == {0} and folds == []
    assert monitor.report().canonical() == offline.canonical()
    assert monitor.report() is monitor.report()
    assert folds_per_checker() == [1, 1, 1]


# ----------------------------------------------------------------------
# The rule incremental folds stand on: reporting never mutates a fold
# ----------------------------------------------------------------------


def events_from_rows(rows):
    """Hand-built trace events from (type, time, node, fields) rows.  A
    type's field names are fixed for a whole trace, so every event gets
    all the fields its type is given anywhere in ``rows``, absent ones
    as ``None``."""
    from repro.replay.trace import TraceEvent

    names = {}
    for kind, _, _, fields in rows:
        names.setdefault(kind, {}).update(dict.fromkeys(fields))
    return [TraceEvent.of(index, kind, time, node, index,
                          {name: fields.get(name) for name in names[kind]})
            for index, (kind, time, node, fields) in enumerate(rows)]


def _violating_events():
    """A hand-built stream that breaks every universal contract."""
    return events_from_rows([
        ("RpcCallStarted", 10, 0, {"call_id": 1, "service": "s", "proc": "p"}),
        ("RpcCallCompleted", 20, 0, {"call_id": 1}),
        ("RpcCallCompleted", 21, 0, {"call_id": 1}),
        ("RpcStaleRejected", 30, 1, {"call_id": 2}),
        ("RpcCallCompleted", 31, 0, {"call_id": 2}),
        ("PacketSent", 25, 0, {}),
        ("TimerFrozen", 40, 1, {}),
        ("RpcCallRetried", 41, 1, {"call_id": 3}),
        ("RpcCallStarted", 42, 1, {"call_id": 3, "service": "s", "proc": "q"}),
        ("Observation", 50, 0, {"kind": "leader", "key": 1}),
        ("Observation", 51, 1, {"kind": "leader", "key": 1}),
        ("Observation", 52, 0, {"kind": "invoke", "pid": 1, "op": "get", "key": "k"}),
        ("Observation", 53, 0, {"kind": "return", "pid": 1, "value": 9}),
        ("NodeRebooted", 5, 1, {}),  # resets node 1's clock from 51
        ("PacketSent", 6, 1, {}),
        ("PacketSent", 4, 1, {}),  # backwards after the reset
    ])


#: The contracts the fold-rule fences run: every universal one plus the
#: liveness check, so each checker kind (stream-wide, typed, end-of-run)
#: is folded.
FOLD_CONTRACTS = (*universal_contracts(), NO_LOST_CALLS)


def _fold_rule_streams():
    from repro.campaign.scenarios import get_plan, get_scenario

    kv = get_scenario("kv")
    return {
        "calm": record_echo(1, "calm", "ring").events,
        "chaos": record_echo(7, "chaos", "ring").events,
        "kv-split-brain": record_run(
            kv.build, list(kv.names), seed=0, run_until=kv.run_until,
            plan=get_plan("leader_partition")).events,
        "hand-built": EventColumns(_violating_events()),
    }


@pytest.fixture(scope="module")
def fold_streams():
    return _fold_rule_streams()


def test_reporting_never_mutates_a_fold(fold_streams):
    """``report()`` twice answers the same, and a bank that was reported
    part-way answers at the end as one that never was."""
    failed = set()
    for label, events in fold_streams.items():
        indices = range(len(events))
        for contract in FOLD_CONTRACTS:
            fresh = CheckerBank((contract,))
            for index in indices:
                fresh.feed(events, index, index + 1)
            whole = fresh.report()
            assert fresh.report() == whole, (label, contract.name)
            if not whole.ok:
                failed.add(contract.name)
            for k in range(0, len(events) + 1, 10):
                bank = CheckerBank((contract,))
                for index in indices[:k]:
                    bank.feed(events, index, index + 1)
                assert bank.report() == bank.report(), (label, contract.name, k)
                for index in indices[k:]:
                    bank.feed(events, index, index + 1)
                assert bank.report() == whole, (label, contract.name, k)
    # The streams do exercise every contract's violating side.
    assert failed == {c.name for c in FOLD_CONTRACTS}


def test_fold_prefix_goes_on_where_the_bank_stopped():
    events = _violating_events()
    bank = CheckerBank(universal_contracts())
    for upto in (0, 2, 3, 3, 8, len(events), None):
        assert fold_prefix(bank, events, upto) == first_violation(
            events, universal_contracts(), upto_index=upto)
        assert bank.count == (len(events) if upto is None else upto)
    with pytest.raises(ValueError, match="past 4"):
        fold_prefix(bank, events, 4)


def test_a_checker_without_finish_records_at_the_event_it_folds(fold_streams):
    """The rule time travel answers prefixes by (``BaseChecker``): fed
    one event at a time, a checker without a ``finish()`` of its own
    records every violation at that event."""
    plain = [c for c in CONTRACTS.values() if c.state.finish is BaseChecker.finish]
    assert {c.name for c in plain} == {
        "exactly_once_delivery", "at_most_once_after_reboot", "clock_monotonicity",
        "halt_transparency", "single_leader"}
    streams = {**fold_streams, "golden": Trace.load(GOLDEN_BINARY_PATH).events}
    failed = set()
    for label, events in streams.items():
        for contract in plain:
            checker = contract.state()
            every = range(len(events)) if contract.events == ALL_EVENTS else None
            for index in every or events.indices(contract.events):
                before = len(checker.violations)
                checker.fold(events, range(index, index + 1))
                assert all(v.index == index for v in checker.violations[before:]), (
                    label, contract.name, index)
            if checker.violations:
                failed.add(contract.name)
    assert failed == {c.name for c in plain}


def test_a_renamed_contract_s_violations_carry_its_name():
    events = EventColumns(_violating_events())
    renamed = ContractSet("s", (CLOCK_MONOTONICITY.named("my_clock"),
                                NO_LOST_CALLS.named("my_calls")))
    report = check_trace(Trace({}, events, [], {}), renamed)
    assert report.verdicts == {"my_clock": "fail", "my_calls": "fail"}
    assert {v.contract for v in report.violations} == {"my_clock", "my_calls"}
    assert first_violation(events, renamed.contracts).contract == "my_clock"


def test_the_first_violation_is_the_earliest_anchor_none_last_ties_in_order():
    def violation(contract, index):
        return ContractViolation(contract=contract, message=contract, index=index)

    report = ContractReport(violations=(
        violation("late", 9), violation("probe", None), violation("early", 3),
        violation("tie", 3)))
    assert report.first_violation().contract == "early"
    assert ContractReport(violations=(
        violation("probe", None), violation("other", None))).first_violation().contract == "probe"
    assert ContractReport().first_violation() is None
    # A set whose later contract breaks first answers that one, as the
    # prefix fold does.
    events = EventColumns(_violating_events())
    ordered = (NO_LOST_CALLS, EXACTLY_ONCE_DELIVERY)
    report = check_trace(Trace({}, events, [], {}), ordered)
    assert report.violations[0].contract == "no_lost_calls"
    assert report.first_violation() == first_violation(events, ordered)
    assert report.first_violation().contract == "exactly_once_delivery"


# ----------------------------------------------------------------------
# Runs of events: one fold call per checker answers as one per event
# ----------------------------------------------------------------------


def _assert_runs_agree(events, cuts):
    """Feeding ``events`` in the runs ``cuts`` bound reports as feeding it
    one event at a time, and as ``check_trace``; a bank kept across the
    cuts answers ``fold_prefix`` as a fresh ``first_violation`` does."""
    bounds = [0, *cuts, len(events)]
    split, single = CheckerBank(FOLD_CONTRACTS), CheckerBank(FOLD_CONTRACTS)
    for start, stop in zip(bounds, bounds[1:]):
        split.feed(events, start, stop)
    for index in range(len(events)):
        single.feed(events, index, index + 1)
    assert split.count == single.count == len(events)
    assert split.report() == single.report()
    assert split.report().canonical() == check_trace(
        Trace({}, events, [], {}), FOLD_CONTRACTS).canonical()
    kept = CheckerBank(FOLD_CONTRACTS)
    for cut in cuts:
        assert fold_prefix(kept, events, cut) == first_violation(
            events, FOLD_CONTRACTS, upto_index=cut)
        assert kept.count == cut


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_any_split_into_runs_folds_as_one_event_at_a_time(fold_streams, data):
    events = fold_streams[data.draw(st.sampled_from(sorted(fold_streams)))]
    cuts = data.draw(st.lists(st.integers(0, len(events)), max_size=6).map(sorted))
    _assert_runs_agree(events, cuts)


def test_run_edges_of_the_clock_fold(fold_streams):
    """A backwards clock inside a run and at a run's first event (its
    previous time in the run before), a ``NodeRebooted`` reset starting
    and ending a run, and a backwards clock right after the reset."""
    events = fold_streams["hand-built"]
    backwards = [v.index for v in check_trace(Trace({}, events, [], {}), FOLD_CONTRACTS)
                 .violations if v.contract == "clock_monotonicity"]
    reboot = events.kinds.index(events.ids["NodeRebooted"])
    assert backwards == [5, reboot + 2]
    for cuts in ([], [5], [6], [reboot], [reboot + 1], [reboot + 2], [5, reboot + 2]):
        _assert_runs_agree(events, cuts)


# ----------------------------------------------------------------------
# Checkers read columns: a Fact is built only to anchor a violation
# ----------------------------------------------------------------------


def test_a_clean_fold_builds_no_fact(monkeypatch):
    """A violation-free echo run through the universal set builds no
    ``Fact``: not online (the monitor riding the writer), not offline
    (``check_trace``, ``why_halted``'s prefix fold)."""
    from repro.contracts import dsl
    from repro.replay import TimeTravel

    built = []
    init = dsl.Fact.__init__

    def counted(self, events, index):
        built.append(index)
        init(self, events, index)

    monkeypatch.setattr(dsl.Fact, "__init__", counted)
    trace = record_echo(1, "calm", "ring")
    assert trace.contract_report.ok
    assert trace.contract_report.events == len(trace.events) > 0
    assert check_trace(trace, UNIVERSAL_SET).ok
    travel = TimeTravel(trace)
    for t in range(0, trace.final_time + 1, trace.final_time // 4):
        travel.at(t)
        assert travel.why_halted()["contract"] is None
    assert built == []
    # The probe does count: a violation builds its anchor and evidence.
    check_trace(Trace({}, EventColumns(_violating_events()), [], {}), UNIVERSAL_SET)
    assert built
