"""E11 — host-side cost of the instrumentation bus.

The paper's budget for always-on debugging support is §4.3's figure: the
shipped RPC instrumentation costs 400 µs, a 2.5% slow-down on a null
RPC.  The reproduction's unified bus must honour the same discipline in
*host* time: an ``emit`` for an event type nobody subscribed to (the
dormant path — one dict lookup, no event object) has to be a rounding
error next to the host cost of simulating a single null RPC.

Measured here, per operation:

* dormant emit — no subscribers for the type;
* one-subscriber emit — event materialized (a header-first tuple built
  from the positional cells), one no-op callback;
* metrics emit — ``RpcCallCompleted`` on a world bus with the default
  metrics attached (labeled counter + in-flight gauge + histogram);
* a null in-sim RPC — the denominator, host seconds per simulated call.

Acceptance: dormant emit <= 5% of the null-RPC host cost.
"""

from __future__ import annotations

import time

from benchmarks.common import print_table
from repro import Cluster
from repro.obs import Bus, events as ev
from repro.rpc.runtime import remote_call
from repro.sim import World

EMIT_ITERS = 50_000
RPC_CALLS = 200


def time_emit(bus: Bus, event_type, *cells, iters: int = EMIT_ITERS) -> float:
    """Host seconds per positional ``bus.emit(event_type, *cells)`` call."""
    emit = bus.emit
    start = time.perf_counter()
    for _ in range(iters):
        emit(event_type, *cells)
    return (time.perf_counter() - start) / iters


def host_cost_null_rpc(calls: int = RPC_CALLS) -> float:
    """Host seconds to simulate one null RPC (setup excluded)."""
    cluster = Cluster(names=["client", "server"])
    cluster.rpc("server").export_native("svc", {"op": lambda ctx: None})

    def caller(node):
        for _ in range(calls):
            yield from remote_call(node.rpc, "svc", "op")

    node = cluster.node("client")
    node.spawn(caller(node), name="caller")
    start = time.perf_counter()
    cluster.run()
    return (time.perf_counter() - start) / calls


def run_experiment() -> dict:
    # Dormant: a world bus has no subscribers for debug-session events.
    # Every emit passes the type's full payload, as the emit sites do.
    world = World(seed=0)
    hit = (0, 0, 3, "app", "main", 2, 4)
    dormant = time_emit(world.bus, ev.BreakpointHit, *hit)

    plain_bus = Bus()
    plain_bus.subscribe(ev.BreakpointHit, lambda e: None)
    one_sub = time_emit(plain_bus, ev.BreakpointHit, *hit)

    # Default metrics: counter + gauge + histogram all fire.
    metrics = time_emit(world.bus, ev.RpcCallCompleted, 0, 0, 1, "svc", "op", "once", 100)

    null_rpc = host_cost_null_rpc()
    return {
        "dormant": dormant,
        "one_sub": one_sub,
        "metrics": metrics,
        "null_rpc": null_rpc,
    }


def test_e11_obs_overhead(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    null_rpc = result["null_rpc"]

    def row(label: str, cost: float) -> list:
        return [label, f"{cost * 1e6:.3f}", f"{100.0 * cost / null_rpc:.3f}%"]

    rows = [
        row("dormant emit (no subscribers)", result["dormant"]),
        row("emit, one no-op subscriber", result["one_sub"]),
        row("emit, default metrics attached", result["metrics"]),
        ["null in-sim RPC (host cost)", f"{null_rpc * 1e6:.1f}", "100%"],
        ["paper budget: shipped RPC instrumentation", "(400us virtual)", "2.5%"],
    ]
    print_table(
        "E11: bus emit cost vs one simulated null RPC",
        ["operation", "us/op", "% of null RPC"],
        rows,
    )
    # Acceptance: dormant instrumentation must be a rounding error.
    assert result["dormant"] <= 0.05 * null_rpc
    # Sanity on the shape: dormant < subscribed < metrics fan-out.
    assert result["dormant"] < result["one_sub"] < result["metrics"]
