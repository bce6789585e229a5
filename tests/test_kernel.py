"""Unit tests for ``repro.kernel``: the event core as a queue (order,
ties, overflow, the cursor), where a cancel removes and where it stays
lazy, the core's behavioral identity with the reference heap engine
(``tests/heap_core.py``) — seeded and generated — and the
tombstone-compaction bounds."""

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.kernel import EventCore, make_core
from repro.kernel.core import COMPACT_SLACK, SimulationError, _nothing
from repro.sim.units import FOREVER, MS
from repro.sim.world import World
from tests.heap_core import HeapEventCore


def _noop():
    pass


def _key(handle):
    return None if handle is None else (handle.time, handle.seq, handle.node)


def _drain(core) -> list:
    """Pop until drained; the ``(time, seq)`` keys in pop order."""
    keys = []
    while (handle := core.pop_next()) is not None:
        keys.append((handle.time, handle.seq))
    return keys


def _stored_bound_holds(core) -> bool:
    return core.stored_count() <= 2 * core.live + COMPACT_SLACK


def _walk(core: EventCore, expected_live=None) -> dict:
    """The invariant walk (test-side only; nothing in ``src/`` runs it).

    Every entry sits in the container ``rel = (time >> bits) - cursor``
    names, both heaps are heaps, only they hold tombstones and the
    counter counts them, a slot holds a dict iff its occupancy bit is
    set (and never an empty one), and the tallies match what is stored.
    Returns ``{seq: container}`` for the live entries.
    """
    bits, slots, mask, cursor = (
        core._bits, core._slots, core._mask, core._cursor)
    where = {}
    dead = 0
    for name, heap in (("cursor", core._heap), ("overflow", core._overflow)):
        for i, entry in enumerate(heap):
            assert i == 0 or heap[(i - 1) >> 1] < entry, f"{name} is no heap"
            time, seq, handle = entry
            rel = (time >> bits) - cursor
            assert rel <= 0 if name == "cursor" else rel >= slots, (name, rel)
            if handle.owner is None:
                dead += 1
            else:
                assert handle.owner is core and not handle.cancelled
                where[seq] = name
    occupied = 0
    for slot, bucket in enumerate(core._buckets):
        if bucket is None:
            continue
        assert bucket, f"slot {slot} kept an empty dict"
        for seq, (time, entry_seq, handle) in bucket.items():
            rel = (time >> bits) - cursor
            assert 0 < rel < slots and (time >> bits) & mask == slot
            assert seq == entry_seq == handle.seq
            assert handle.owner is core and not handle.cancelled
            where[seq] = slot
            occupied |= 1 << rel
    assert core._occupied == occupied
    assert core._tombstones == dead
    assert core.live == len(where)
    assert core.stored_count() == core.live + dead
    assert _stored_bound_holds(core)
    if expected_live is not None:
        assert len(expected_live) == core.live
        for handle in expected_live:
            bucket_no = handle.time >> bits
            rel = bucket_no - cursor
            want = ("cursor" if rel <= 0 else
                    "overflow" if rel >= slots else bucket_no & mask)
            assert where.get(handle.seq) == want, handle
    return where


# ----------------------------------------------------------------------
# The core as a queue (what the timing wheel's own unit tests held)
# ----------------------------------------------------------------------

class TestTimingWheel:
    def test_pops_in_key_order_across_buckets(self):
        core = EventCore(bucket_bits=4, slot_bits=6)  # 16 us x 64
        rng = random.Random(1)
        handles = [core.schedule_at(rng.randrange(0, 10_000), _noop)
                   for _ in range(500)]
        assert core.live == core.stored_count() == 500
        _walk(core, handles)
        assert _drain(core) == sorted((h.time, h.seq) for h in handles)
        assert core.pop_next() is None and core.live == 0

    def test_ties_break_by_seq(self):
        core = EventCore()
        handles = [core.schedule_at(777, _noop) for _ in range(3)]
        assert [core.pop_next() for _ in range(3)] == handles

    def test_overflow_migrates_in_order(self):
        core = EventCore(bucket_bits=4, slot_bits=4)  # 256 us horizon
        horizon = 16 << 4
        far = [core.schedule_at(horizon * k + 3, _noop) for k in (1, 2, 5)]
        near = [core.schedule_at(t, _noop) for t in (5, 80, 200)]
        assert len(core._overflow) == len(far)
        order = []
        while (handle := core.pop_next()) is not None:
            order.append(handle)
            _walk(core)  # migration keeps every entry where rel says
        assert order == sorted(near + far)

    def test_push_behind_cursor_is_not_lost(self):
        core = EventCore(bucket_bits=4, slot_bits=6)
        core.schedule_at(9_000, _noop)
        assert core.pop_next().time == 9_000  # cursor is far ahead now
        late = core.schedule_at(5, _noop)  # legal: earliest *pending* moved back
        later = core.schedule_at(9_100, _noop)
        _walk(core, [late, later])
        assert [core.pop_next(), core.pop_next()] == [late, later]

    def test_peek_does_not_remove(self):
        core = EventCore()
        handle = core.schedule_at(42, _noop)
        assert core.peek_next_time() == 42
        assert core.peek_next_time() == 42
        assert core.peek_next_time(boundary=40) == 40
        assert core.live == core.stored_count() == 1
        assert core.pop_next() is handle
        assert core.peek_next_time() == FOREVER
        assert core.peek_next_time(boundary=40) == 40

    def test_rebuild_and_clear(self):
        core = EventCore()
        handles = [core.schedule_at(k * 700, _noop) for k in range(20)]
        for handle in handles[1::2]:
            handle.cancel()
        survivors = handles[0::2]
        assert core.live == len(survivors)
        assert sorted(h for h in core.iter_handles() if not h.cancelled) \
            == survivors
        _walk(core, survivors)
        core.clear()
        assert core.live == core.stored_count() == 0
        assert core.pop_next() is None
        assert all(h.cancelled and h.fn is _nothing for h in handles)
        assert not any(core._buckets) and not core._occupied
        again = core.schedule_at(10_000, _noop)  # still usable after clear
        assert core.pop_next() is again


# ----------------------------------------------------------------------
# A cancel removes — and where it cannot, it is lazy and bounded
# ----------------------------------------------------------------------

def test_cancelled_timers_leave_no_trace_in_the_wheel(monkeypatch):
    """The timeout-cancel pattern: timers 200 ms out, every one
    cancelled.  Nothing is stored afterwards, no slot keeps a container,
    and no sweep was needed to get there."""
    def no_sweep(self):
        raise AssertionError("a wheel-bucket cancel needs no sweep")

    monkeypatch.setattr(EventCore, "_sweep", no_sweep)
    core = EventCore()
    handles = [core.schedule_at(200 * MS + k, _noop, (), node=k % 16)
               for k in range(5000)]
    assert any(core._buckets) and core._occupied
    for handle in handles:
        handle.cancel()
    assert core.stored_count() == core.live == 0
    assert not any(core._buckets) and not core._occupied
    assert core._tombstones == 0
    assert core.peek_next_time() == FOREVER and core.pop_next() is None


def test_cursor_bucket_and_overflow_cancels_stay_lazy_and_bounded():
    core = EventCore()
    horizon = core._slots << core._bits
    near = [core.schedule_at(k, _noop) for k in range(200)]  # cursor bucket
    far = [core.schedule_at(horizon + k, _noop) for k in range(200)]
    middle = core.schedule_at(100 * MS, _noop)
    for handle in near[:50] + far[:50]:
        handle.cancel()
    # Tombstones: still stored, counted, and never seen from outside.
    assert core.live == 301 and core.stored_count() == 401
    _walk(core, near[50:] + [middle] + far[50:])
    assert core.peek_next_time() == 50
    assert core.pop_next() is near[50]
    assert core.stored_count() == core.live + 50  # the near ones were shed
    # Keep cancelling: the same bound as ever, by sweeping the two heaps.
    for handle in near[51:] + far[50:]:
        handle.cancel()
        assert _stored_bound_holds(core)
    assert core.live == 1
    assert core.stored_count() <= COMPACT_SLACK + 2
    _walk(core, [middle])
    assert core.peek_next_time() == 100 * MS
    assert core.pop_next() is middle and core.pop_next() is None


def test_repeated_and_consumed_cancels_touch_no_accounting():
    core = EventCore()
    near = core.schedule_at(100, _noop, (), node=0)      # cursor bucket
    wheel = core.schedule_at(5_000, _noop, (), node=0)   # a bucket dict
    far = core.schedule_at(10_000_000, _noop, (), node=1)  # overflow
    first = core.schedule_at(50, _noop, (), node=1)
    core.schedule_at(7_000, _noop, (), node=1)

    def state():
        # Answers first: a peek may shed a tombstone it meets.
        return (core.peek_next_time(), core.window_for(0, 3500),
                core.window_for(1, 3500), core._window_cache[0][0],
                core._window_cache[1][0], core.live, core.stored_count(),
                core._tombstones, dict(core._node_stale))

    for handle in (near, wheel, far):
        handle.cancel()
    before = state()
    marker = object()
    for handle in (near, wheel, far):
        handle.fn = marker  # a repeat returns before it stores anything
        handle.cancel()
        assert handle.cancelled and handle.fn is marker
    assert state() == before
    _walk(core)
    # A handle the run loop already popped (what the ledger's bare-core
    # loop and a process holding its timeout_event do).
    assert core.pop_next() is first
    before = state()
    first.cancel()
    assert first.cancelled and first.fn is _nothing and first.args == ()
    first.cancel()
    assert state() == before
    _walk(core)


def test_crash_reaches_all_three_containers_and_spares_survivors():
    """One node with cancellable and surviving events in the cursor
    heap, in wheel buckets and beyond the horizon."""
    cores = (EventCore(bucket_bits=4, slot_bits=4), HeapEventCore())
    times = (3, 9, 40, 130, 250, 300, 4_000, 70_000)  # 16 us x 16 slots
    for core in cores:
        for time in times:
            core.schedule_at(time, _noop, (), node=1)
            core.schedule_at(time + 1, _noop, (), node=1, survives_crash=True)
            core.schedule_at(time + 2, _noop, (), node=2)
    wheel = cores[0]
    containers = set(_walk(wheel).values())
    assert {"cursor", "overflow"} < containers and len(containers) > 3
    counts = [core.cancel_node_events(1) for core in cores]
    assert counts == [len(times)] * 2
    assert wheel.live == 2 * len(times)
    _walk(wheel)
    assert all(h.survives_crash for h in wheel.node_handles(1))
    assert [core.cancel_node_events(1) for core in cores] == [0, 0]
    assert (wheel.window_for(1, 100), wheel.window_for(2, 100)) == (4, 5)
    order = [_drain(core) for core in cores]
    assert order[0] == order[1]
    assert [time for time, _ in order[0]] == sorted(
        [t + 1 for t in times] + [t + 2 for t in times])


# ----------------------------------------------------------------------
# Behavioral identity: EventCore vs HeapEventCore
# ----------------------------------------------------------------------

def test_cores_pop_identically_under_random_churn():
    """Both engines implement the same total order on (time, seq); a
    mirrored random op sequence must produce identical pops, peeks,
    and windows.  Times never go backwards past a popped event — the
    World facade guarantees that invariant (schedule validation)."""
    rng = random.Random(20260808)
    cores = (EventCore(), HeapEventCore())
    mirrored = [[], []]  # live handles, same index on both sides
    floor = 0  # last popped time: no schedules before this
    for _ in range(6000):
        roll = rng.random()
        if roll < 0.55 or not mirrored[0]:
            # Times span buckets, ties, and the overflow horizon.
            delay = rng.choice((0, 1, rng.randrange(1, 3000),
                                rng.randrange(1, 4_000_000)))
            node = rng.choice((None, 0, 1, 2, 3, 4))
            for side, core in enumerate(cores):
                mirrored[side].append(core.schedule_at(
                    floor + delay, _noop, (), node=node))
        elif roll < 0.70:
            victim = rng.randrange(len(mirrored[0]))
            for side in (0, 1):
                mirrored[side].pop(victim).cancel()
        elif roll < 0.85:
            popped = [core.pop_next() for core in cores]
            keys = [(h.time, h.seq, h.node) if h else None for h in popped]
            assert keys[0] == keys[1]
            if popped[0] is not None:
                floor = popped[0].time
                for side, handle in enumerate(popped):
                    if handle in mirrored[side]:
                        mirrored[side].remove(handle)
                    handle.cancel()
        elif roll < 0.93:
            boundary = rng.choice((None, floor + rng.randrange(0, 10_000)))
            assert (cores[0].peek_next_time(boundary)
                    == cores[1].peek_next_time(boundary))
        else:
            node = rng.randrange(5)
            lookahead = rng.choice((100, 3500))
            assert (cores[0].window_for(node, lookahead)
                    == cores[1].window_for(node, lookahead))
    while True:
        popped = [core.pop_next() for core in cores]
        keys = [(h.time, h.seq, h.node) if h else None for h in popped]
        assert keys[0] == keys[1]
        if popped[0] is None:
            break
    assert cores[0].peek_next_time() == cores[1].peek_next_time() == FOREVER


def test_cores_agree_on_mass_cancel_and_survivors():
    cores = (EventCore(), HeapEventCore())
    for core in cores:
        for k in range(40):
            core.schedule_at(100 + k, _noop, (), node=k % 3)
        core.schedule_at(50, _noop, (), node=1, survives_crash=True)
    counts = [core.cancel_node_events(1) for core in cores]
    assert counts[0] == counts[1] == 13
    order = [[], []]
    for side, core in enumerate(cores):
        while True:
            handle = core.pop_next()
            if handle is None:
                break
            order[side].append((handle.time, handle.seq))
            handle.cancel()
    assert order[0] == order[1]
    assert order[0][0] == (50, 41)  # the survivor still fires first


# ----------------------------------------------------------------------
# The differential oracle, by generation
# ----------------------------------------------------------------------

class KernelMachine(RuleBasedStateMachine):
    """Mirror :class:`EventCore` and :class:`HeapEventCore` through
    generated operation sequences.  Every answer must agree, and after
    every rule the container walk and the stored-entry bound must hold.
    Times never precede the last pop (``World`` validates that)."""

    BUCKET_BITS, SLOT_BITS = 9, 12

    def __init__(self):
        super().__init__()
        self.core = EventCore(self.BUCKET_BITS, self.SLOT_BITS)
        self.oracle = HeapEventCore()
        self.width = 1 << self.BUCKET_BITS
        self.horizon = self.width << self.SLOT_BITS
        #: Every (core handle, oracle handle) ever scheduled: cancel
        #: draws from live, cancelled and consumed ones alike.
        self.pairs = []
        #: seq -> core handle, for what the model holds live.
        self.live = {}
        self.floor = 0

    def _delay(self, kind: int, raw: int) -> int:
        if kind < 2:
            return kind  # 0: a tie with now; 1: the next microsecond
        if kind == 2:
            return raw % self.width  # the same bucket or the next
        if kind == 3:
            return self.width + raw % (self.horizon - self.width)
        return self.horizon + raw % (3 * self.horizon)  # past the horizon

    def _boundary(self, offset):
        return None if offset is None else self.floor + offset % (
            2 * self.horizon)

    @rule(batch=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 1 << 40),
                  st.sampled_from((None, 0, 1, 2, 3, 4)), st.booleans()),
        min_size=1, max_size=6))
    def schedule(self, batch):
        for kind, raw, node, survives in batch:
            time = self.floor + self._delay(kind, raw)
            pair = tuple(engine.schedule_at(time, _noop, (), node, survives)
                         for engine in (self.core, self.oracle))
            assert pair[0].seq == pair[1].seq
            self.pairs.append(pair)
            self.live[pair[0].seq] = pair[0]

    @precondition(lambda self: self.pairs)
    @rule(pick=st.integers(0, 1 << 20))
    def cancel(self, pick):
        pair = self.pairs[pick % len(self.pairs)]
        was_live = self.live.pop(pair[0].seq, None) is not None
        before = (self.core.live, self.core.stored_count())
        for handle in pair:
            handle.cancel()
            assert handle.cancelled
        if not was_live:  # repeated, or consumed: accounting-free
            assert (self.core.live, self.core.stored_count()) == before

    @rule(release=st.booleans())
    def pop(self, release):
        popped = (self.core.pop_next(), self.oracle.pop_next())
        assert _key(popped[0]) == _key(popped[1])
        if popped[0] is None:
            assert not self.live
            return
        assert self.live.pop(popped[0].seq) is popped[0]
        self.floor = popped[0].time
        if release:  # else it stays consumed for a later cancel to find
            for handle in popped:
                handle.cancel()

    @rule(offset=st.one_of(st.none(), st.integers(0, 1 << 40)))
    def peek(self, offset):
        boundary = self._boundary(offset)
        assert (self.core.peek_next_time(boundary)
                == self.oracle.peek_next_time(boundary))

    @rule(node=st.integers(0, 4), lookahead=st.sampled_from((1, 100, 3500)),
          offset=st.one_of(st.none(), st.integers(0, 1 << 40)))
    def window(self, node, lookahead, offset):
        boundary = self._boundary(offset)
        expected = self.oracle.window_for(node, lookahead, boundary)
        assert self.core.window_for(node, lookahead, boundary) == expected
        assert self.core.window_for(node, lookahead, boundary) == expected

    @rule(node=st.integers(0, 4))
    def crash(self, node):
        doomed = [seq for seq, handle in self.live.items()
                  if handle.node == node and not handle.survives_crash]
        assert (self.core.cancel_node_events(node)
                == self.oracle.cancel_node_events(node) == len(doomed))
        for seq in doomed:
            assert self.live.pop(seq).cancelled

    @precondition(lambda self: len(self.pairs) > 30)
    @rule()
    def clear(self):
        self.core.clear()
        self.oracle.clear()
        assert all(handle.cancelled for handle in self.live.values())
        self.live.clear()
        self.pairs.clear()

    @invariant()
    def containers_and_tallies_hold(self):
        assert self.core.live == self.oracle.live
        _walk(self.core, self.live.values())

    def teardown(self):
        assert _drain(self.core) == _drain(self.oracle)
        assert self.core.peek_next_time() == FOREVER
        _walk(self.core, ())


class SmallWheelMachine(KernelMachine):
    """16 us x 16 slots: cursor clamping, overflow migration and the
    empty-wheel jump fire every few steps."""

    BUCKET_BITS, SLOT_BITS = 4, 4


_GENERATED = settings(max_examples=60, stateful_step_count=60, deadline=None)
TestKernelMachine = KernelMachine.TestCase
TestKernelMachine.settings = _GENERATED
TestSmallWheelMachine = SmallWheelMachine.TestCase
TestSmallWheelMachine.settings = _GENERATED


# ----------------------------------------------------------------------
# Tombstone-compaction bounds (the mass-crash regression)
# ----------------------------------------------------------------------

def test_mass_crash_never_leaves_queue_dominated_by_tombstones():
    """After a mass crash the main queue must not hold more than twice
    the live entries (plus slack): the sweep has to fire on the bulk
    path, not only on accumulated single cancels."""
    core = EventCore()
    for node in range(8):
        for k in range(2000):
            core.schedule_at(1000 + k, _noop, (), node=node)
    assert core.stored_count() == 16_000
    for node in range(7):  # crash all but one node
        core.cancel_node_events(node)
        assert _stored_bound_holds(core), (
            f"after crashing node {node}: stored={core.stored_count()} "
            f"live={core.live}"
        )
    assert core.live == 2000


def test_repeated_single_cancels_trigger_compaction():
    """The satellite fix: a node that churns timers one cancel at a
    time (schedule + cancel per RPC) must compact too — the threshold
    cannot be reachable only from the bulk-crash path."""
    core = EventCore()
    handles = [core.schedule_at(10_000 + k, _noop, (), node=0)
               for k in range(5000)]
    keepers = core.schedule_at(20_000, _noop, (), node=0)
    for handle in handles:
        handle.cancel()
        assert _stored_bound_holds(core)
    # The node index compacted down with the churn instead of dragging
    # five thousand dead entries.
    assert len(core.node_handles(0)) <= 2 * core.live + COMPACT_SLACK
    assert not keepers.cancelled and core.live == 1


def test_interleaved_schedule_cancel_churn_stays_bounded():
    core = EventCore()
    rng = random.Random(7)
    live = []
    for k in range(20_000):
        live.append(core.schedule_at(1000 + k, _noop, (),
                                     node=k % 4))
        if len(live) > 32:
            live.pop(rng.randrange(len(live))).cancel()
        assert _stored_bound_holds(core)


# ----------------------------------------------------------------------
# Facade plumbing
# ----------------------------------------------------------------------

def test_make_core_registry():
    assert isinstance(make_core("wheel"), EventCore)
    with pytest.raises(SimulationError):
        make_core("heap")


def test_world_kernel_selection():
    assert isinstance(World(seed=0).kernel, EventCore)
    assert isinstance(World(seed=0, kernel="wheel").kernel, EventCore)
    oracle = HeapEventCore()
    assert World(seed=0, kernel=oracle).kernel is oracle


def test_world_runs_identically_on_both_kernels():
    def drive(kernel):
        world = World(seed=3, kernel=kernel)
        seen = []

        def hop(depth):
            seen.append((world.now, depth))
            if depth < 40:
                world.schedule(137 * (depth % 5) + 1, hop, depth + 1,
                               node=depth % 3)

        world.schedule_at(10, hop, 0, node=0)
        world.run(until=100_000)
        world.close()
        return seen

    assert drive(EventCore()) == drive(HeapEventCore())


def test_world_run_loop_matches_oracle_through_cancels_crash_and_boundaries():
    """The inlined run loop on :class:`EventCore` and on the injected
    oracle: timeout-cancel churn, a mid-run ``cancel_node_events``, and
    each way a run ends — ``max_events``, an exclusive ``until``,
    ``stop()``, and a drained queue."""
    def drive(kernel):
        world = World(seed=5, kernel=kernel)
        seen, timers, counts = [], [], []

        def note(payload):
            seen.append((world.now, payload))

        def work(tag, depth):
            note((tag, depth))
            if depth % 3 and timers:
                timers.pop(0).cancel()  # most timeouts never fire
            timers.append(world.schedule(
                20 * MS + depth, note, ("timeout", tag, depth), node=tag))
            if (tag, depth) == (1, 25):
                note(("crashed", world.cancel_node_events(2)))
            if (tag, depth) == (0, 40):
                world.stop()
            if depth < 60:
                world.schedule(97 * (tag + 1) + depth % 7, work, tag,
                               depth + 1, node=tag)

        for tag in range(3):
            world.schedule_at(10 + tag, work, tag, 0, node=tag)
        world.schedule_at(2_000, note, "on the boundary")
        world.schedule_at(4_000, note, "wired to node 2", node=2,
                          survives_crash=True)
        world.schedule_at(3_000_000, note, "past the horizon")
        counts.append(world.run(max_events=17))
        counts.append(world.run(until=2_000))
        assert world.now == 2_000 and "on the boundary" not in dict(seen).values()
        counts.append(world.run())  # returns at stop()
        assert seen[-1][1] == (0, 40) and world.pending_count() > 0
        counts.append(world.run(until=10 * MS))
        counts.append(world.run())  # drains
        assert world.pending_count() == 0 and world.now == 3_000_000
        assert counts[0] == 17 and sum(counts) == world.events_processed
        world.close()
        return seen, counts

    wheel, oracle = drive(EventCore()), drive(HeapEventCore())
    assert wheel == oracle
    payloads = [payload for _, payload in wheel[0]]
    assert ("crashed", 0) not in payloads  # the crash found live events
    assert "wired to node 2" in payloads  # and spared the wire's
    assert (0, 60) in payloads and (1, 60) in payloads
    assert (2, 60) not in payloads  # node 2's chain died in the crash
    assert any(p[0] == "timeout" for p in payloads if isinstance(p, tuple))
