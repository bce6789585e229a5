"""Time-travel queries: the same answers as the naive folds, for work
that is bounded by what a query looks at.

Two kinds of test.  *Equivalence by generation*: ``hypothesis`` drives
op sequences over three traces and after every op the session must
agree with oracles that share nothing with it — ``fold_view`` from
index 0, a one-shot ``first_violation``, a backwards walk for the halt
episode — while every ``Moment`` handed out earlier keeps the view it
was returned with, and one first read after later ops reads its own
instant.  *Complexity fences*: ``TimeTravel.stats()`` counts
work exactly, so the bounds below are asserted on counts, never on wall
time.
"""

import bisect
import copy
import functools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.ledger.workloads.trace_postmortem import record as record_postmortem
from repro import Cluster, Pilgrim, record_run
from repro.contracts import offline
from repro.contracts.dsl import (
    CLOCK_MONOTONICITY,
    NO_LOST_CALLS,
    SINGLE_LEADER,
    UNIVERSAL_SET,
    universal_contracts,
)
from repro.contracts.offline import check_trace, first_violation
from repro.replay import TimeTravel, Trace, TraceSession, fold_view
from repro.replay.checkpoint import _TABLE_FOLDS, apply_event, empty_view
from repro.replay.timetravel import _CAUSE_TYPES
from tests.golden_scenario import GOLDEN_BINARY_PATH
from tests.test_contracts import _violating_events, events_from_rows
from tests.test_replay import _chaos_trace

# ----------------------------------------------------------------------
# The traces
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def chaos_trace():
    return _chaos_trace()


@functools.lru_cache(maxsize=None)
def breakpoint_trace():
    """The ``test_why_halted_points_at_breakpoint`` recipe: a recording
    that ends inside a real breakpoint halt."""
    cluster = Cluster(names=["app", "debugger"], seed=0)
    image = cluster.load_program(
        "proc main()\n  var i: int := 0\n  while true do\n"
        "    i := i + 1\n    sleep(1000)\n  end\nend",
        "app",
    )
    cluster.spawn_vm("app", image, "main")
    dbg = Pilgrim(cluster, home="debugger")
    dbg.connect("app")
    dbg.start_recording()
    dbg.set_breakpoint("app", "app", line=4)
    dbg.wait_for_breakpoint()
    return dbg.stop_recording()


@functools.lru_cache(maxsize=None)
def handbuilt_trace():
    """No checkpoints, every table event type, two halt episodes (one by
    failure, one by breakpoint), a reboot, and clocks that disagree
    across nodes."""
    events = events_from_rows([
        ("ProcessCreated", 10, 0, {"pid": 1, "name": "a", "priority": 2}),
        ("ProcessCreated", 12, 1, {"pid": 1, "name": "b", "priority": 1}),
        ("RpcCallStarted", 20, 0, {"call_id": 7}),
        ("PacketSent", 21, 0, {"packet": {"pkt": 1}}),
        ("PacketDelivered", 19, 1, {"packet": {"pkt": 1}}),
        ("ProcessFailed", 30, 1, {"pid": 1}),
        ("ProcessHalted", 31, 1, {"pid": 1}),
        ("ProcessHalted", 33, 0, {"pid": 1}),
        ("PacketDropped", 32, 0, {"packet": {"pkt": 2}}),
        ("ProcessResumed", 40, 0, {"pid": 1}),
        ("ProcessResumed", 41, 1, {"pid": 1}),
        ("RpcCallRetried", 45, 0, {"call_id": 7}),
        ("RpcCallCompleted", 50, 0, {"call_id": 7}),
        ("RpcCallStarted", 55, 0, {"call_id": 8}),
        ("NodeRebooted", 60, 0, {"epoch": 1}),
        ("ProcessCreated", 61, 0, {"pid": 2, "name": "c", "priority": 3}),
        ("BreakpointHit", 70, 0, {"pid": 2}),
        ("ProcessHalted", 71, 0, {"pid": 2}),
        ("RpcCallFailed", 72, 1, {"call_id": 9}),
        ("ProcessDeleted", 80, 1, {"pid": 1}),
        ("PacketSent", 75, 1, {"packet": {"pkt": 3}}),
    ])
    return Trace({"names": ["x", "y"]}, events, [], {"final_time": 80})


@functools.lru_cache(maxsize=None)
def postmortem_trace(seed):
    """The ledger's ``trace_postmortem`` recording (~36 k events)."""
    return record_postmortem(seed)


# ----------------------------------------------------------------------
# Oracles (nothing below shares code with ``TimeTravel``)
# ----------------------------------------------------------------------


def base_view(trace):
    if trace.checkpoints:
        return trace.base_view()
    return empty_view(range(len(trace.header["names"])))


def naive_why(events, cursor, view, node):
    """The halt episode by walking the prefix backwards."""
    contract = first_violation(events, universal_contracts(), upto_index=cursor)
    halted = {key: pids for key, pids in view.halted.items()
              if pids and (node is None or key == str(node))}
    if not halted:
        return {"halted": False, "contract": contract}
    first_halt = cause = None
    for index in range(cursor - 1, -1, -1):
        if events[index].type == "ProcessResumed":
            break
        if events[index].type == "ProcessHalted":
            first_halt = events[index]
    if first_halt is not None:
        cause = next((events[index]
                      for index in range(first_halt.index, -1, -1)
                      if events[index].type in _CAUSE_TYPES), None)
    return {"halted": True, "nodes": halted,
            "since": None if first_halt is None else first_halt.time,
            "halt_event": first_halt, "cause": cause, "contract": contract}


def naive_predecessors(events):
    """Predecessor lists: program order + packet delivery."""
    preds = [[] for _ in events]
    last_on_node, sent_at = {}, {}
    for index, event in enumerate(events):
        if event.node in last_on_node:
            preds[index].append(last_on_node[event.node])
        last_on_node[event.node] = index
        packet = event.fields.get("packet")
        if isinstance(packet, dict):
            if event.type == "PacketSent":
                sent_at[packet.get("pkt")] = index
            elif event.type == "PacketDelivered" and packet.get("pkt") in sent_at:
                preds[index].append(sent_at[packet.get("pkt")])
    return preds


# ----------------------------------------------------------------------
# Equivalence by generation
# ----------------------------------------------------------------------

OPS = st.one_of(
    st.tuples(st.just("at"), st.floats(-0.05, 1.05)),
    st.tuples(st.just("seek"), st.floats(-0.05, 1.05)),
    st.tuples(st.just("step"), st.integers(1, 6)),
    st.tuples(st.just("reverse_step"), st.integers(1, 40)),
    st.tuples(st.just("current"), st.none()),
    st.tuples(st.just("why_halted"), st.sampled_from([None, 0, 1])),
)


def check_sequence(trace, ops):
    events = trace.events
    base = base_view(trace)
    travel = TimeTravel(trace)
    handed_out, unread = [], []

    def check(moment):
        assert moment.index == travel.cursor
        if len(unread) < len(handed_out) // 2:
            unread.append(moment)
            return
        oracle = fold_view(events, moment.index, base)
        assert moment.view.to_dict() == oracle.to_dict()
        assert moment.time == oracle.time
        assert moment.event == (events[moment.index - 1] if moment.index else None)
        handed_out.append((moment, copy.deepcopy(moment.view.to_dict())))

    for name, arg in ops:
        if name == "at":
            moment = travel.at(int(arg * trace.final_time))
            assert all(e.time <= int(arg * trace.final_time)
                       for e in events[:moment.index])
            check(moment)
        elif name == "seek":
            check(travel.seek(int(arg * len(events))))
        elif name in ("step", "reverse_step"):
            for _ in range(arg):
                check(getattr(travel, name)())
        elif name == "current":
            check(travel.current())
        else:
            view = fold_view(events, travel.cursor, base)
            assert travel.why_halted(arg) == naive_why(
                events, travel.cursor, view, arg)
    # The aliasing fence: shared leaves and snapshots never reach a
    # Moment that was already returned.
    for moment, frozen in handed_out:
        assert moment.view.to_dict() == frozen
    # The late-read fence: a Moment first read after the cursor moved on
    # folds at its own index.
    for moment in unread:
        oracle = fold_view(events, moment.index, base)
        assert moment.view.to_dict() == oracle.to_dict()
        assert moment.event == (events[moment.index - 1] if moment.index else None)


@pytest.mark.parametrize("make_trace",
                         [chaos_trace, breakpoint_trace, handbuilt_trace])
def test_generated_query_sequences_equal_the_naive_folds(make_trace):
    trace = make_trace()

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(ops=st.lists(OPS, min_size=1, max_size=16))
    def run(ops):
        check_sequence(trace, ops)

    run()


def test_the_generated_sequences_can_meet_a_halted_cursor():
    trace = breakpoint_trace()
    verdict = TimeTravel(trace).why_halted()
    assert verdict["halted"] and verdict["cause"].type == "BreakpointHit"
    built = TimeTravel(handbuilt_trace())
    assert built.seek(9).view.halted == {"0": [1], "1": [1]}
    assert built.why_halted()["cause"].type == "ProcessFailed"
    assert built.why_halted()["halt_event"].index == 6


@pytest.mark.parametrize("make_trace, seed", [
    (chaos_trace, None), (postmortem_trace, 14), (postmortem_trace, 15),
])
def test_a_checkpoint_seeded_seek_equals_the_from_zero_fold_clock_included(
        make_trace, seed):
    """A checkpoint's view is what the fold reads at its index — its
    ``time`` the running maximum of the event times before it, which the
    capturing event's own time (``Checkpoint.time``) can lie below."""
    trace = make_trace() if seed is None else make_trace(seed)
    travel = TimeTravel(trace)
    folded, done, below = trace.base_view().copy(), 0, 0
    for checkpoint in trace.checkpoints:
        for event in trace.events[done:checkpoint.index]:
            apply_event(folded, event)
        done = checkpoint.index
        assert checkpoint.view.to_dict() == folded.to_dict()
        assert travel.seek(done).view.to_dict() == folded.to_dict()
        assert checkpoint.time <= checkpoint.view.time
        below += checkpoint.time < checkpoint.view.time
    # The recipe does stamp checkpoints below the running maximum.
    assert seed is None or below > 20


# ----------------------------------------------------------------------
# Causality: two columns built once
# ----------------------------------------------------------------------


@pytest.mark.parametrize("make_trace, seed", [
    (chaos_trace, None), (postmortem_trace, 14),
    (postmortem_trace, 15), (postmortem_trace, 16),
])
def test_causality_equals_the_naive_graph(make_trace, seed):
    trace = make_trace() if seed is None else make_trace(seed)
    events = trace.events
    preds = naive_predecessors(events)
    travel = TimeTravel(trace)
    rng = random.Random(seed)
    for index in [0, len(events) - 1,
                  *(rng.randrange(len(events)) for _ in range(6))]:
        seen, stack = set(), list(preds[index])
        while stack:
            current = stack.pop()
            if current not in seen:
                seen.add(current)
                stack.extend(preds[current])
        assert travel.causal_predecessors(index) == [events[i] for i in sorted(seen)]
    # One graph build per session, however many queries.
    assert travel.stats()["edge_builds"] == 1


# ----------------------------------------------------------------------
# The first violation: the trace's one fold, a prefix fold where needed
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def golden_trace():
    return Trace.load(GOLDEN_BINARY_PATH)


@functools.lru_cache(maxsize=None)
def kv_split_brain_trace():
    from repro.campaign.scenarios import get_plan, get_scenario

    kv = get_scenario("kv")
    return record_run(kv.build, list(kv.names), seed=0, run_until=kv.run_until,
                      plan=get_plan("leader_partition"))


@functools.lru_cache(maxsize=None)
def violating_trace():
    """``test_contracts``' hand-built stream that breaks every contract."""
    return Trace({"names": ["a", "b"]}, _violating_events(), [], {"final_time": 53})


#: The universal set plus the liveness check: two contracts with
#: end-of-run verdicts, whose first violation needs a prefix fold.
LOSSY = (*universal_contracts(), NO_LOST_CALLS)


#: The sets drawn: the universal one, one with both end-of-run contracts,
#: and renamed contracts of both kinds.
CONTRACT_SETS = {
    "universal": universal_contracts(),
    "lossy": LOSSY,
    "renamed": (CLOCK_MONOTONICITY.named("my_clock"), SINGLE_LEADER,
                NO_LOST_CALLS.named("my_calls")),
}


@pytest.mark.parametrize("make_trace", [golden_trace, kv_split_brain_trace,
                                        chaos_trace, violating_trace])
def test_first_contract_violation_equals_a_fresh_prefix_fold(make_trace):
    """At every checkpoint index and every drawn cursor, in any order and
    under any set, one session answers as a fresh fold of the prefix."""
    trace = make_trace()
    events = trace.events
    travel = TimeTravel(trace)
    found = set()

    def agrees(cursor, name):
        contracts = CONTRACT_SETS[name]
        travel.seek(cursor)
        answer = travel.first_contract_violation(contracts)
        assert answer == first_violation(events, contracts, upto_index=cursor)
        if answer is not None:
            found.add((name, answer.contract))

    for name in CONTRACT_SETS:
        for checkpoint in [*trace.checkpoints, None]:
            agrees(len(events) if checkpoint is None else checkpoint.index, name)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(draws=st.lists(st.tuples(st.integers(0, len(events)),
                                    st.sampled_from(sorted(CONTRACT_SETS))),
                          min_size=1, max_size=8))
    def run(draws):
        for cursor, name in draws:
            agrees(cursor, name)

    run()
    # Every trace meets an end-of-run violation, under its new name too.
    assert {("lossy", "no_lost_calls"), ("renamed", "my_calls")} <= found


def test_check_trace_then_whys_run_one_full_fold(monkeypatch):
    """The ledger's session: ``check_trace``, then four whys at sorted
    times, fold each contract over the whole trace once, together."""
    full = []

    class Counted(offline.CheckerBank):
        def __init__(self, contracts):
            full.append(tuple(contracts))
            super().__init__(contracts)

    monkeypatch.setattr(offline, "CheckerBank", Counted)
    trace = Trace.load(GOLDEN_BINARY_PATH)
    report = check_trace(trace, UNIVERSAL_SET)
    travel = TimeTravel(trace)
    rng = random.Random(14)
    for t in sorted(rng.randrange(trace.final_time) for _ in range(4)):
        travel.at(t)
        travel.why_halted()
    assert check_trace(trace, UNIVERSAL_SET) == report
    assert full == [universal_contracts()]
    assert set(trace.folded) == set(universal_contracts())


# ----------------------------------------------------------------------
# Complexity fences, on counts
# ----------------------------------------------------------------------


def test_repr_folds_nothing():
    trace = chaos_trace()
    travel = TimeTravel(trace)
    idle = travel.stats()
    size, latest = len(trace.events), max(e.time for e in trace.events)
    assert repr(travel) == f"<TimeTravel cursor={size}/{size} t={latest}>"
    assert travel.stats() == idle == dict.fromkeys(idle, 0)


def read_cost(trace):
    """The table events a first read at cursor ``index`` folds: those
    from the latest checkpoint at or before it up to ``index``."""
    table_before = [0]
    for event in trace.events:
        table_before.append(table_before[-1] + (event.type in _TABLE_FOLDS))
    starts = [checkpoint.index for checkpoint in trace.checkpoints]

    def cost(index):
        return table_before[index] - table_before[starts[bisect.bisect_right(starts, index) - 1]]
    return cost


def test_reverse_steps_fold_from_their_checkpoint():
    """A view read after a step, either way, is folded as any other read:
    from its checkpoint, once."""
    trace = postmortem_trace(14)
    cost = read_cost(trace)
    travel, reference = TimeTravel(trace), TimeTravel(trace)
    travel.at(trace.final_time // 2)
    before = travel.stats()
    expected = 0
    for _ in range(750):
        moment = travel.reverse_step()
        assert moment.view == reference.seek(moment.index).view
        expected += cost(moment.index)
    for _ in range(100):
        for moment in (travel.step(), travel.reverse_step()):
            assert moment.view is not None
            expected += cost(moment.index)
    after = travel.stats()
    assert after["folds"] - before["folds"] == 950
    assert after["table_events_folded"] - before["table_events_folded"] == expected


def read_before(trace, cursor, kinds):
    """How many of the events before ``cursor`` are of a type in ``kinds``."""
    names = trace.events.names
    return sum(names[kind] in kinds for kind in trace.events.kinds[:cursor])


def calls_before(trace, cursor):
    """The events ``LOSSY``'s prefix fold reads before ``cursor``: the
    liveness check's starts and completions (the echo trace records no
    ``Observation``, which ``register_linearizability`` reads)."""
    return read_before(trace, cursor, {"RpcCallStarted", "RpcCallCompleted"})


def test_ascending_whys_feed_each_event_once():
    """A why folds no prefix for a contract without an end-of-run
    verdict, and over ascending cursors the prefix fold of those with one
    reads each event of their types once."""
    trace = postmortem_trace(14)
    rng = random.Random(14)
    times = sorted(rng.randrange(trace.final_time) for _ in range(4))
    travel = TimeTravel(trace)
    for t in times:
        travel.at(t)
        travel.why_halted()
    stats = travel.stats()
    assert read_before(trace, travel.cursor, {"Observation"}) == 0
    assert stats["prefix_events_fed"] == 0
    assert stats["prefix_restarts"] == 0
    lossy = TimeTravel(trace)
    for t in times:
        lossy.at(t)
        lossy.first_contract_violation(LOSSY)
    stats = lossy.stats()
    assert stats["prefix_events_fed"] == calls_before(trace, lossy.cursor) > 0
    assert stats["prefix_restarts"] == 0
    # The same cursor again feeds nothing; other contracts start over.
    lossy.first_contract_violation(LOSSY)
    assert lossy.stats()["prefix_events_fed"] == calls_before(trace, lossy.cursor)
    lossy.why_halted()
    assert lossy.stats()["prefix_restarts"] == 1
    assert lossy.stats()["prefix_events_fed"] == calls_before(trace, lossy.cursor)


def test_a_descending_why_restarts_the_fold_once():
    trace = postmortem_trace(14)
    travel = TimeTravel(trace)
    high = travel.at(trace.final_time // 2).index
    travel.first_contract_violation(LOSSY)
    low = travel.at(trace.final_time // 4).index
    answer = travel.first_contract_violation(LOSSY)
    stats = travel.stats()
    assert stats["prefix_restarts"] == 1
    assert stats["prefix_events_fed"] == calls_before(trace, high) + calls_before(trace, low)
    assert answer == first_violation(trace.events, LOSSY, upto_index=low)
    assert answer is not None
    assert travel.why_halted()["contract"] == first_violation(
        trace.events, universal_contracts(), upto_index=low)


def test_seeks_fold_no_count_only_event():
    trace = postmortem_trace(14)
    table_before = [0]
    for event in trace.events:
        table_before.append(table_before[-1] + (event.type in _TABLE_FOLDS))
    starts = [checkpoint.index for checkpoint in trace.checkpoints]
    rng = random.Random(14)
    travel = TimeTravel(trace)
    looked_at = table_events = 0
    for _ in range(1500):
        moment = travel.at(rng.randrange(trace.final_time))
        index = moment.index
        assert moment.view is not None
        start = starts[bisect.bisect_right(starts, index) - 1]
        looked_at += index - start
        table_events += table_before[index] - table_before[start]
    stats = travel.stats()
    assert stats["folds"] == 1500
    assert stats["table_events_folded"] == table_events < looked_at


def test_a_cursor_move_folds_nothing_until_its_view_is_read():
    trace = postmortem_trace(14)
    session = TraceSession(trace)
    rng = random.Random(14)
    for _ in range(1500):
        session.at(rng.randrange(trace.final_time))
    session.at(trace.final_time // 2)
    for _ in range(750):
        session.reverse_step()
    for _ in range(750):
        moment = session.forward_step()
    assert session.status()["folds"] == 0
    assert moment.view == TimeTravel(trace).seek(moment.index).view
    assert session.status()["folds"] == 1


def test_moments_read_late_fold_from_their_checkpoint():
    """Moments handed out unread and read after the cursor moved on fold
    at their own index, from their own checkpoint, as any read does; a
    step after a read hands out an unread moment too."""
    trace = postmortem_trace(14)
    cost = read_cost(trace)
    travel, reference = TimeTravel(trace), TimeTravel(trace)
    travel.at(trace.final_time // 2)
    backs = [travel.reverse_step() for _ in range(750)]
    forths = [travel.step() for _ in range(750)]
    travel.seek(0)
    for moments in (backs, forths):
        before = travel.stats()
        for moment in moments:
            assert moment.view == reference.seek(moment.index).view
        after = travel.stats()
        assert after["folds"] - before["folds"] == 750
        assert (after["table_events_folded"] - before["table_events_folded"]
                == sum(cost(moment.index) for moment in moments))
    high = travel.at(trace.final_time // 2)
    assert high.view is not None
    folds = travel.stats()["folds"]
    forths = [travel.step() for _ in range(750)]
    assert all(moment._travel is travel for moment in forths)
    assert forths[-1].view == reference.seek(high.index + 750).view
    assert travel.stats()["folds"] == folds + 1


def test_an_unread_moment_copies_and_pickles_its_four_fields_only():
    trace = postmortem_trace(14)
    travel = TimeTravel(trace)
    for make in (copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))):
        moment = travel.at(trace.final_time // 3)
        travel.seek(0)
        clone = make(moment)
        assert clone._travel is None
        assert clone == moment == travel.seek(moment.index)
        assert moment._travel is None
    data = pickle.dumps(travel.at(trace.final_time // 2))
    assert len(data) < 16 * 1024
    assert b"TimeTravel" not in data and b"EventColumns" not in data
