"""Deeper scheduler tests: quanta, priorities, parallel node timing, and
the supervisor's debugging primitives."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mayflower import Node, ProcessState
from repro.mayflower.syscalls import Cpu, Now, Sleep, Wait
from repro.obs import events as ev
from repro.params import Params
from repro.sim import MS, SEC, World


def test_round_robin_within_priority():
    world = World()
    node = Node(0, "n", world, Params(quantum=1 * MS, context_switch_cost=0))
    order = []

    def body(tag):
        for _ in range(3):
            yield Cpu(1 * MS)  # exactly one quantum per turn
            order.append(tag)

    node.spawn(body("a"))
    node.spawn(body("b"))
    node.spawn(body("c"))
    world.run()
    assert order[:6] == ["a", "b", "c", "a", "b", "c"]


def test_high_priority_runs_to_completion_first():
    world = World()
    node = Node(0, "n", world, Params(quantum=1 * MS))
    order = []

    def body(tag, steps):
        for _ in range(steps):
            yield Cpu(500)
        order.append(tag)

    node.spawn(body("low", 4), priority=0)
    node.spawn(body("high", 4), priority=10)
    world.run()
    assert order == ["high", "low"]


def test_two_nodes_consume_cpu_in_parallel():
    """The parallel-DES property: two busy nodes finish a 50 ms burn in
    ~50 ms of virtual time, not 100 ms."""
    world = World()
    params = Params()
    node_a = Node(0, "a", world, params)
    node_b = Node(1, "b", world, params)
    done = {}

    def burner(tag, node):
        yield Cpu(50 * MS)
        done[tag] = node.supervisor.current_time()

    node_a.spawn(burner("a", node_a))
    node_b.spawn(burner("b", node_b))
    world.run()
    assert abs(done["a"] - 50 * MS) < 2 * MS
    assert abs(done["b"] - 50 * MS) < 2 * MS
    assert world.now < 80 * MS  # parallel, not serialized


def test_single_node_timeshares_two_burners():
    """Two 25 ms burns on ONE CPU take ~50 ms together."""
    world = World()
    node = Node(0, "n", world, Params(context_switch_cost=0))
    finish = []

    def burner():
        yield Cpu(25 * MS)
        finish.append((yield Now()))

    node.spawn(burner())
    node.spawn(burner())
    world.run()
    assert max(finish) >= 50 * MS - 1 * MS


def test_cpu_accounting():
    world = World()
    node = Node(0, "n", world, Params())

    def body():
        yield Cpu(10 * MS)

    node.spawn(body())
    world.run()
    assert node.supervisor.cpu_consumed >= 10 * MS


def test_waiting_process_timer_fires_at_local_time():
    """A process that burns CPU then sleeps wakes at burn + sleep."""
    world = World()
    node = Node(0, "n", world, Params())
    woke = []

    def body():
        yield Cpu(7 * MS)
        yield Sleep(5 * MS)
        woke.append((yield Now()))

    node.spawn(body())
    world.run()
    assert 12 * MS <= woke[0] < 13 * MS


def test_unhalt_single_process():
    world = World()
    node = Node(0, "n", world, Params(quantum=1 * MS))
    progress = {"a": 0, "b": 0}

    def body(tag):
        while True:
            yield Cpu(100)
            progress[tag] += 1

    proc_a = node.spawn(body("a"), name="a")
    proc_b = node.spawn(body("b"), name="b")
    world.run(until=5 * MS)
    node.supervisor.halt_all()
    # Release only process a.
    node.supervisor.unhalt_process(proc_a)
    snap_b = progress["b"]
    world.run(until=15 * MS)
    assert progress["a"] > 0
    assert progress["b"] == snap_b  # b still halted
    node.supervisor.resume_all()
    world.run(until=30 * MS)
    assert progress["b"] > snap_b


def test_debugger_wake_routes_through_wait_object():
    """§5.4: transferring a process out of a semaphore wait must leave the
    semaphore's queues consistent."""
    world = World()
    node = Node(0, "n", world, Params())
    sem = node.semaphore(name="s")
    results = []

    def waiter(tag):
        got = yield Wait(sem, timeout=10 * SEC)
        results.append((tag, got))

    proc_1 = node.spawn(waiter(1))
    proc_2 = node.spawn(waiter(2))
    world.run(until=5 * MS)
    assert node.supervisor.debugger_wake(proc_1)
    world.run(until=10 * MS)
    assert results == [(1, False)]  # woken 'as if timed out'
    # The semaphore still works for the remaining waiter.
    sem.signal()
    world.run(until=15 * MS)
    assert results == [(1, False), (2, True)]
    assert sem.waiters == type(sem.waiters)()  # empty deque


def test_exception_in_one_process_does_not_stop_others():
    world = World()
    node = Node(0, "n", world, Params())
    progress = []

    def bad():
        yield Cpu(100)
        raise RuntimeError("oops")

    def good():
        for _ in range(5):
            yield Cpu(100)
            progress.append(1)

    failed = node.spawn(bad(), name="bad")
    node.spawn(good(), name="good")
    world.run()
    assert failed.state == ProcessState.FAILED
    assert len(progress) == 5


def test_on_exit_callbacks_run_for_failure_too():
    world = World()
    node = Node(0, "n", world, Params())
    exits = []

    def bad():
        yield Cpu(10)
        raise ValueError("x")

    process = node.spawn(bad())
    process.on_exit.append(lambda p: exits.append(p.state))
    world.run()
    assert exits == [ProcessState.FAILED]


def test_terminate_live_process():
    world = World()
    node = Node(0, "n", world, Params())

    def body():
        yield Sleep(10 * SEC)

    process = node.spawn(body())
    world.run(until=5 * MS)
    node.supervisor.terminate(process)
    assert not process.is_live()
    world.run()  # the stale timer fires harmlessly
    assert world.pending_count() == 0


def test_quantum_overrun_for_indivisible_action():
    """A single action larger than the quantum still executes (fresh-slice
    overrun) instead of starving."""
    world = World()
    node = Node(0, "n", world, Params(quantum=1 * MS, syscall_cost=3 * MS))
    done = []

    def body():
        yield Sleep(1000)  # syscall cost 3ms > quantum
        done.append(1)

    node.spawn(body())
    world.run()
    assert done == [1]


# ----------------------------------------------------------------------
# The live-process index (what halting and checkpoint capture walk)
# ----------------------------------------------------------------------


def _lifecycle_body(kind, steps):
    for _ in range(steps):
        yield Cpu(200)
    if kind == "fail":
        raise RuntimeError("generated failure")
    if kind == "sleep":
        yield Sleep(10 * SEC)


_LIFECYCLE_OPS = st.one_of(
    st.tuples(st.just("spawn"), st.sampled_from(["exit", "fail", "sleep"]),
              st.integers(0, 4), st.booleans()),
    st.tuples(st.just("run"), st.integers(0, 3 * MS)),
    st.tuples(st.just("terminate"), st.integers(0, 40)),
    st.tuples(st.sampled_from(["halt_all", "resume_all", "crash", "reboot"])),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_LIFECYCLE_OPS, max_size=40))
def test_live_index_is_the_is_live_filter_of_the_process_table(ops):
    """``live_processes()`` / ``halted_processes()`` answer from the
    live index; after every step of a generated lifecycle they must be
    what filtering the complete table gives, in pid order — and
    ``halt_all`` / ``resume_all`` must still emit in that order."""
    world = World()
    node = Node(0, "n", world, Params(quantum=1 * MS))
    emitted = []
    for event_type in (ev.ProcessHalted, ev.ProcessResumed):
        world.bus.subscribe(
            event_type, lambda e: emitted.append((type(e).__name__, e.pid)))

    def check():
        supervisor = node.supervisor
        table = list(supervisor.processes.values())
        assert [p.pid for p in table] == sorted(p.pid for p in table)
        assert supervisor.live_processes() == [p for p in table if p.is_live()]
        assert supervisor.halted_processes() == [
            p for p in table if p.state == ProcessState.HALTED]

    for op, *args in ops:
        supervisor = node.supervisor
        table = list(supervisor.processes.values())
        if op == "spawn":
            kind, steps, exempt = args
            if not node.crashed:
                node.spawn(_lifecycle_body(kind, steps), name=kind,
                           halt_exempt=exempt)
        elif op == "run":
            world.run(until=world.now + args[0])
        elif op == "terminate":
            if table:
                supervisor.terminate(table[args[0] % len(table)])
        elif op == "halt_all":
            # The parent's walk: the whole table in pid order, halting
            # what is live, non-exempt and parked (READY or WAITING).
            expected = [("ProcessHalted", p.pid) for p in table
                        if p.is_live() and not p.halt_exempt
                        and p.state in (ProcessState.READY,
                                        ProcessState.WAITING)]
            del emitted[:]
            assert supervisor.halt_all() == len(expected)
            assert emitted == expected
        elif op == "resume_all":
            expected = [("ProcessResumed", p.pid) for p in table
                        if p.state == ProcessState.HALTED]
            del emitted[:]
            assert supervisor.resume_all() == len(expected)
            assert emitted == expected
        elif op == "crash":
            node.crash()
            assert node.supervisor.live_processes() == []
        elif op == "reboot":
            node.reboot()
            assert node.supervisor.processes == {}
        check()
