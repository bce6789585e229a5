"""Property-based tests (hypothesis) for core data structures and
invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cvm.values import CluArray, CluRecord
from repro.debugger.timelog import BreakpointLog
from repro.mayflower import Node
from repro.mayflower.clock import NodeClock
from repro.rpc.debug import RecentCallBuffer
from repro.rpc.marshal import marshal, unmarshal, wire_size
from repro.sim import World

# ----------------------------------------------------------------------
# Event kernel
# ----------------------------------------------------------------------


@given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=60))
def test_world_fires_events_in_time_then_fifo_order(delays):
    world = World()
    fired = []
    for index, delay in enumerate(delays):
        world.schedule(delay, fired.append, (delay, index))
    world.run()
    # Sorted by (time, insertion order) — the determinism contract.
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=40),
    st.data(),
)
def test_world_cancellation_drops_exactly_the_cancelled(delays, data):
    world = World()
    handles = []
    fired = []
    for index, delay in enumerate(delays):
        handles.append(world.schedule(delay, fired.append, index))
    to_cancel = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(delays) - 1))
    )
    for index in to_cancel:
        handles[index].cancel()
    world.run()
    assert sorted(fired) == sorted(set(range(len(delays))) - to_cancel)


@given(st.lists(st.integers(min_value=1, max_value=1000), max_size=30))
def test_world_clock_is_monotonic(delays):
    world = World()
    observed = []

    def note():
        observed.append(world.now)

    cursor = 0
    for delay in delays:
        cursor += delay
        world.schedule_at(cursor, note)
    world.run()
    assert observed == sorted(observed)


# ----------------------------------------------------------------------
# Clock delta arithmetic (paper §5.2)
# ----------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=10_000),  # run duration
            st.integers(min_value=1, max_value=10_000),  # halt duration
        ),
        max_size=20,
    )
)
def test_clock_delta_equals_total_halt_time(segments):
    time = {"now": 0}
    clock = NodeClock(lambda: time["now"])
    total_halted = 0
    for run, halt in segments:
        time["now"] += run
        clock.begin_halt()
        time["now"] += halt
        total_halted += halt
        clock.end_halt()
    assert clock.delta == total_halted
    assert clock.logical_now() == clock.real_now() - total_halted


@given(
    st.integers(min_value=0, max_value=100_000),
    st.integers(min_value=0, max_value=100_000),
)
def test_clock_frozen_during_halt(run_before, halt_len):
    time = {"now": 0}
    clock = NodeClock(lambda: time["now"])
    time["now"] = run_before
    clock.begin_halt()
    frozen = clock.logical_now()
    time["now"] += halt_len
    assert clock.logical_now() == frozen
    clock.end_halt()
    assert clock.logical_now() == frozen


# ----------------------------------------------------------------------
# Breakpoint log / convert_debuggee_time (paper §6.1)
# ----------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=5_000),
            st.integers(min_value=1, max_value=5_000),
        ),
        max_size=15,
    ),
    st.integers(min_value=0, max_value=200_000),
)
def test_breakpoint_log_convert_matches_delta_simulation(segments, probe_offset):
    """The log's convert() must agree with a replayed NodeClock."""
    time = {"now": 0}
    clock = NodeClock(lambda: time["now"])
    log = BreakpointLog()
    marks = []
    for run, halt in segments:
        time["now"] += run
        marks.append(time["now"])
        log.begin(time["now"])
        clock.begin_halt()
        time["now"] += halt
        log.end(time["now"])
        clock.end_halt()
    now = time["now"] + probe_offset
    time["now"] = now
    # Converting 'now' gives the node's current logical time.
    assert log.convert(now, now) == clock.logical_now()
    # Conversion is monotone over probe dates.
    converted = [log.convert(m, now) for m in marks]
    assert converted == sorted(converted)
    # Dates before any halt convert to themselves.
    assert log.convert(0, now) == 0


@given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=20))
def test_breakpoint_log_total_never_negative(starts):
    log = BreakpointLog()
    cursor = 0
    for gap in starts:
        cursor += gap
        log.begin(cursor)
        cursor += gap // 2
        log.end(cursor)
    assert log.total_interruption(cursor) >= 0
    assert log.total_interruption(cursor) <= cursor


# ----------------------------------------------------------------------
# Recent-call cyclic buffer (paper §4.3)
# ----------------------------------------------------------------------


@given(
    st.integers(min_value=1, max_value=20),
    st.lists(st.tuples(st.integers(), st.booleans()), max_size=100),
)
def test_recent_buffer_keeps_last_n(slots, events):
    buffer = RecentCallBuffer(slots)
    for call_id, ok in events:
        buffer.record(call_id, ok)
    assert buffer.entries() == events[-slots:]
    assert len(buffer) <= slots


@given(st.lists(st.tuples(st.integers(0, 30), st.booleans()), max_size=60))
def test_recent_buffer_lookup_returns_most_recent(events):
    buffer = RecentCallBuffer(10)
    for call_id, ok in events:
        buffer.record(call_id, ok)
    window = events[-10:]
    for call_id, _ok in window:
        latest = [ok for cid, ok in window if cid == call_id][-1]
        assert buffer.lookup(call_id) == latest


# ----------------------------------------------------------------------
# Marshalling round trips (paper §2 type-checked RPC)
# ----------------------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.text(max_size=20),
)


def clu_values(depth=2):
    if depth == 0:
        return scalars
    inner = clu_values(depth - 1)
    return st.one_of(
        scalars,
        st.builds(lambda items: CluArray(items), st.lists(inner, max_size=4)),
        st.builds(
            lambda fields: CluRecord("rec", dict(fields)),
            st.lists(
                st.tuples(st.text(min_size=1, max_size=5), inner),
                min_size=1,
                max_size=4,
            ),
        ),
    )


@given(clu_values())
@settings(max_examples=200)
def test_marshal_roundtrip_preserves_value(value):
    wire = marshal(value)
    rebuilt = unmarshal(wire)
    assert rebuilt == value
    assert wire_size(wire) >= 0


@given(clu_values(depth=1))
def test_marshal_produces_fresh_objects(value):
    if isinstance(value, (CluArray, CluRecord)):
        rebuilt = unmarshal(marshal(value))
        assert rebuilt is not value


# ----------------------------------------------------------------------
# Freezable timers
# ----------------------------------------------------------------------


def _timer_set():
    world = World()
    return world, Node(0, "n", world).supervisor.timers


@given(
    st.lists(st.integers(min_value=1, max_value=1_000), min_size=1, max_size=20),
    st.integers(min_value=0, max_value=2_000),
    st.integers(min_value=1, max_value=1_000),
)
def test_timerset_freeze_shifts_all_fires_by_frozen_time(delays, frozen_for, late):
    """Frozen at 0 for ``frozen_for``: each timer fires at ``delay +
    frozen_for``, and one started while frozen ``late`` after the thaw."""
    world, timers = _timer_set()
    fired = {}

    def record_time(index):
        fired[index] = world.now

    for index, delay in enumerate(delays):
        timers.start(delay, record_time, index)
    timers.freeze()
    timers.start(late, record_time, "late")
    world.run_for(frozen_for)
    timers.thaw()
    world.run()
    expected = {index: delay + frozen_for for index, delay in enumerate(delays)}
    assert fired == {**expected, "late": frozen_for + late}


def test_a_thaw_rearms_timers_in_start_order():
    """Timers due at one instant fire in start order after a freeze and a
    thaw, wherever they were allocated: a thaw that walked its timers in
    hash (address) order fired them in several orders over these runs."""
    for shift in range(64):
        world, timers = _timer_set()
        fired, padding = [], []
        for index in range(6):
            padding.append([object() for _ in range(shift * (index + 3) % 17)])
            timers.start(100, fired.append, index)
        timers.freeze()
        timers.thaw()
        world.run()
        assert fired == list(range(6)), f"allocation shift {shift}"


@given(st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=10))
def test_timerset_cancel_prevents_fire(delays):
    world, timers = _timer_set()
    fired = []
    handles = [timers.start(d, fired.append, i) for i, d in enumerate(delays)]
    handles[0].cancel()
    world.run()
    assert 0 not in fired
    assert sorted(fired) == list(range(1, len(delays)))
