"""``world_churn`` — E16b's tick / timeout-cancel / cross-send program.

``sim.World`` and ``repro.kernel`` do all the work; obs, replay,
contracts, rpc and net do none.  It is the bypass for every recorder or
checker change and the exerciser for a ``World`` → ``EventCore``
collapse.
"""

from __future__ import annotations

import random

from benchmarks.ledger.harness import (
    Meter,
    Metric,
    Tracer,
    Workload,
    deltas,
    exact,
    interleave,
    sampled,
)
from repro import MS
from repro.kernel import make_core
from repro.sim.world import World

NODES = 256
TICK = 1 * MS
#: RPC-style timeouts scheduled per tick, cancelled KEEP ticks later.
TIMEOUT, PER_TICK, KEEP = 200 * MS, 3, 8
#: Minimum cross-node latency: the cross-send delay and the lookahead.
LOOKAHEAD = 3500
#: Virtual time run in set-up: past the timeout horizon, so cancelled
#: timers have begun reaching their time and the wheel is in steady state.
RUN_UP = 300 * MS
#: Virtual time per block: NODES × 50 ticks × (tick + cross-send) events.
BLOCK = 50 * MS
EVENTS_PER_BLOCK = NODES * (BLOCK // TICK) * 2


def _noop() -> None:
    pass


def tick_offsets(seed: int, nodes: int = NODES) -> list[int]:
    """The seeded input: each node's first-tick time within the first ms."""
    rng = random.Random(seed)
    return [rng.randrange(TICK) for _ in range(nodes)]


def start_churn(world: World, offsets: list[int]) -> None:
    """Install the program on a ``World``: per node per tick, PER_TICK
    timeouts scheduled TIMEOUT out, the PER_TICK from KEEP ticks ago
    cancelled, one cross-node send, one execution-window query."""
    nodes = len(offsets)
    schedule = world.schedule
    window_for = world.window_for

    def tick(n: int, ring: list) -> None:
        if len(ring) >= KEEP:
            for handle in ring.pop(0):
                handle.cancel()
        ring.append([schedule(TIMEOUT + k, _noop, node=n)
                     for k in range(PER_TICK)])
        schedule(LOOKAHEAD, _noop, node=(n * 7 + 1) % nodes)
        window_for(n, LOOKAHEAD)
        schedule(TICK, tick, n, ring, node=n)

    for n, offset in enumerate(offsets):
        world.schedule_at(offset, tick, n, [], node=n)


class WorldChurn(Workload):
    """op = one executed event; block = ``world.run`` over 50 ms virtual."""

    name = "world_churn"
    warmup_blocks = 2

    def prepare(self) -> None:
        self.world = World(seed=self.seed, kernel="wheel")
        start_churn(self.world, tick_offsets(self.seed))
        with self.tracer.span("sim.World.run"):
            self.world.run(until=RUN_UP)
        self.until = RUN_UP
        self.executed = 0
        self.stored: list[int] = []

    def block(self) -> int:
        self.until += BLOCK
        with self.tracer.span("sim.World.run"):
            self.executed = self.world.run(until=self.until)
        return EVENTS_PER_BLOCK

    def verify(self) -> bool:
        world = self.world
        self.stored.append(world.kernel.stored_count())
        # The first blocks' stored-entry counts: identical for one seed,
        # and the wheel's compaction cycle makes them differ for another.
        self.facts["stored"] = tuple(self.stored[:4])
        pending = self.facts.setdefault("pending", world.pending_count())
        return (self.executed == EVENTS_PER_BLOCK
                and world.now == self.until
                and world.pending_count() == pending)

    def close(self) -> None:
        self.world.close()


# ----------------------------------------------------------------------
# Per-layer probes
# ----------------------------------------------------------------------

class _BareCore:
    """The same program on a bare ``EventCore``: ``World.run``'s loop
    without the facade (no bus, metrics, rng, boundary bookkeeping, or
    the schedule → schedule_at → kernel call chain)."""

    def __init__(self, offsets: list[int]):
        self.core = core = make_core("wheel")
        self.now = 0
        self.boundary = None
        self.cancels = 0
        nodes = len(offsets)
        schedule_at = core.schedule_at

        def tick(n: int, ring: list) -> None:
            now = self.now
            if len(ring) >= KEEP:
                for handle in ring.pop(0):
                    handle.cancel()
                    self.cancels += 1
            ring.append([schedule_at(now + TIMEOUT + k, _noop, (), node=n)
                         for k in range(PER_TICK)])
            schedule_at(now + LOOKAHEAD, _noop, (), node=(n * 7 + 1) % nodes)
            core.window_for(n, LOOKAHEAD, self.boundary)
            schedule_at(now + TICK, tick, (n, ring), node=n)

        for n, offset in enumerate(offsets):
            schedule_at(offset, tick, (n, []), node=n)

    def run(self, until: int) -> int:
        core = self.core
        self.boundary = until
        executed = 0
        while core.peek_next_time(until) < until:
            handle = core.pop_next()
            self.now = handle.time
            fn, args = handle.fn, handle.args
            handle.cancel()
            executed += 1
            fn(*args)
        self.now = until
        self.boundary = None
        return executed


#: Virtual time per probe slice (a fifth of a block).
SLICE = 10 * MS
EVENTS_PER_SLICE = EVENTS_PER_BLOCK * SLICE // BLOCK
#: schedule+cancel (and window_for) calls per micro-probe sample.
MICRO_CALLS = 2000


def probes(seed: int, meter: Meter, tracer: Tracer,
           rounds: int = 12) -> dict[str, Metric]:
    """World vs bare core on the same program, plus kernel micro-costs."""
    offsets = tick_offsets(seed)
    world = World(seed=seed, kernel="wheel")
    start_churn(world, offsets)
    bare = _BareCore(offsets)
    with tracer.span("sim.World.run"):
        world.run(until=RUN_UP)
    with tracer.span("kernel.EventCore.run"):
        bare.run(RUN_UP)
    bare.cancels = 0
    cursor = {"world": RUN_UP, "core": RUN_UP}

    def run_slice(name: str, span: str, run) -> float:
        cursor[name] += SLICE
        with tracer.span(span):
            executed, timed = meter.time(run, cursor[name])
        if executed != EVENTS_PER_SLICE:
            raise RuntimeError(f"{name} slice ran {executed} events, "
                               f"expected {EVENTS_PER_SLICE}")
        return timed.norm_s

    def schedule_cancel() -> None:
        schedule = world.schedule
        for i in range(MICRO_CALLS):
            schedule(TIMEOUT + i, _noop, node=i % NODES).cancel()

    def schedule_cancel_window() -> None:
        schedule, window_for = world.schedule, world.window_for
        for i in range(MICRO_CALLS):
            schedule(TIMEOUT + i, _noop, node=i % NODES).cancel()
            window_for(i % NODES, LOOKAHEAD)

    def micro(fn) -> float:
        with tracer.span(f"kernel.{fn.__name__}"):
            _, timed = meter.time(fn)
        return timed.norm_s

    runs = interleave({
        "world": lambda: run_slice("world", "sim.World.run", world.run),
        "core": lambda: run_slice("core", "kernel.EventCore.run", bare.run),
    }, rounds, tracer)
    stored = world.kernel.stored_count()
    # After the slices, so the tombstones these leave in the world's
    # wheel cannot tilt the World-vs-core comparison.
    runs |= interleave({
        "pair": lambda: micro(schedule_cancel),
        "pair_window": lambda: micro(schedule_cancel_window),
    }, rounds, tracer)
    world.close()
    slices = (cursor["core"] - RUN_UP) // SLICE
    blocks_run = slices * SLICE / BLOCK
    per_event = 1e6 / EVENTS_PER_SLICE
    per_call = 1e6 / MICRO_CALLS
    return {
        "kernel.core_us_per_event": sampled(runs["core"], "us", per_event),
        "sim.facade_us_per_event": sampled(
            deltas(runs["world"], runs["core"]), "us", per_event),
        "sim.window_for_us": sampled(
            deltas(runs["pair_window"], runs["pair"]), "us", per_call),
        "kernel.schedule_cancel_us": sampled(runs["pair"], "us", per_call),
        "kernel.events_per_block": exact(EVENTS_PER_SLICE * BLOCK // SLICE,
                                         "count"),
        "kernel.cancels_per_block": exact(bare.cancels / blocks_run, "count"),
        "kernel.stored_entries": exact(stored, "count"),
    }
