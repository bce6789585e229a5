"""Shared helpers for the experiment benchmarks.

Each benchmark regenerates one quantitative claim or worked figure from
the paper's evaluation (see DESIGN.md §4 for the index).  The interesting
measurements are *virtual-time* quantities (latencies on the simulated
testbed); pytest-benchmark additionally records the host-side cost of
running each experiment.  Every benchmark prints the paper-vs-measured
rows it is responsible for.
"""

from __future__ import annotations

from typing import Optional

from repro import Cluster
from repro.obs.report import render_report
from repro.rpc.runtime import remote_call


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Render a small aligned table to stdout (shown with pytest -s and
    collected into bench_output.txt)."""
    widths = [len(h) for h in headers]
    rendered = [[str(cell) for cell in row] for row in rows]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(f"\n== {title} ==")
    print(line)
    print("  ".join("-" * w for w in widths))
    for row in rendered:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def print_obs_report(world, title: str = "instrumentation summary") -> None:
    """Print the world's :mod:`repro.obs` summary table — the supported
    way for benchmarks to look inside a run (no private attributes)."""
    print()
    print(render_report(world, title=title))


def measure_null_rpc(
    debug_support: bool = True,
    monitor: bool = False,
    payload: Optional[str] = None,
    seed: int = 0,
    report_title: Optional[str] = None,
) -> int:
    """Round-trip virtual latency of one RPC between two nodes."""
    cluster = Cluster(names=["client", "server"], seed=seed)
    cluster.rpc("client").debug_support = debug_support
    cluster.rpc("server").debug_support = debug_support
    if payload is None:
        cluster.rpc("server").export_native("svc", {"op": lambda ctx: None})
        args = []
    else:
        cluster.rpc("server").export_native("svc", {"op": lambda ctx, s: s})
        args = [payload]
    if monitor:
        from repro.rpc.monitor import PacketMonitor

        PacketMonitor(cluster.net, cluster.rpc("client"))
        PacketMonitor(cluster.net, cluster.rpc("server"))
    out = {}

    def caller(node):
        start = node.clock.real_now()
        yield from remote_call(node.rpc, "svc", "op", args)
        out["latency"] = node.clock.real_now() - start

    node = cluster.node("client")
    node.spawn(caller(node), name="caller")
    cluster.run()
    if report_title is not None:
        print_obs_report(cluster.world, report_title)
    return out["latency"]
