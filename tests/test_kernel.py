"""Unit tests for ``repro.kernel``: the timing wheel, the event core's
behavioral identity with the reference heap engine
(``tests/heap_core.py``), and the tombstone-compaction bounds."""

import random

import pytest

from repro.kernel import EventCore, TimingWheel, make_core
from repro.kernel.core import COMPACT_SLACK, SimulationError
from repro.sim.units import FOREVER
from repro.sim.world import World
from tests.heap_core import HeapEventCore


def _noop():
    pass


# ----------------------------------------------------------------------
# TimingWheel
# ----------------------------------------------------------------------

def _entry(time, seq):
    return (time, seq, None)


class TestTimingWheel:
    def test_pops_in_key_order_across_buckets(self):
        wheel = TimingWheel(bucket_bits=4, slot_bits=6)  # 16 us x 64
        rng = random.Random(1)
        entries = [_entry(rng.randrange(0, 10_000), seq)
                   for seq in range(500)]
        for entry in entries:
            wheel.push(entry)
        assert len(wheel) == 500
        popped = [wheel.pop() for _ in range(500)]
        assert popped == sorted(entries)
        assert wheel.pop() is None

    def test_ties_break_by_seq(self):
        wheel = TimingWheel()
        for seq in (3, 1, 2):
            wheel.push(_entry(777, seq))
        assert [wheel.pop()[1] for _ in range(3)] == [1, 2, 3]

    def test_overflow_migrates_in_order(self):
        wheel = TimingWheel(bucket_bits=4, slot_bits=4)  # 256 us horizon
        horizon = 16 << 4
        near = [_entry(t, 100 + t) for t in (5, 80, 200)]
        far = [_entry(horizon * k + 3, k) for k in (1, 2, 5)]
        for entry in far + near:
            wheel.push(entry)
        assert len(wheel.overflow) == len(far)
        popped = [wheel.pop() for _ in range(len(near) + len(far))]
        assert popped == sorted(near + far)

    def test_push_behind_cursor_is_not_lost(self):
        wheel = TimingWheel(bucket_bits=4, slot_bits=6)
        wheel.push(_entry(9_000, 1))
        assert wheel.pop() == _entry(9_000, 1)  # cursor is far ahead now
        wheel.push(_entry(5, 2))  # legal: earliest *pending* moved back
        assert wheel.pop() == _entry(5, 2)

    def test_peek_does_not_remove(self):
        wheel = TimingWheel()
        wheel.push(_entry(42, 1))
        assert wheel.peek() == _entry(42, 1)
        assert wheel.peek() == _entry(42, 1)
        assert len(wheel) == 1
        assert wheel.pop() == _entry(42, 1)
        assert wheel.peek() is None

    def test_rebuild_and_clear(self):
        wheel = TimingWheel()
        for seq in range(20):
            wheel.push(_entry(seq * 700, seq))
        survivors = [entry for entry in wheel if entry[1] % 2 == 0]
        wheel.rebuild(survivors)
        assert len(wheel) == len(survivors)
        assert sorted(wheel) == sorted(survivors)
        wheel.clear()
        assert len(wheel) == 0 and wheel.pop() is None


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
# Tombstone-compaction bounds (the mass-crash regression)
# ----------------------------------------------------------------------

def _stored_bound_holds(core) -> bool:
    return core.stored_count() <= 2 * core.live + COMPACT_SLACK


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
