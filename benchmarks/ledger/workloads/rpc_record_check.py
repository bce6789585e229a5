"""``rpc_record_check`` — the recorded, contract-checked null-RPC loop.

The path ROADMAP names first: kernel → net → rpc → obs emit →
``TraceWriter`` (+ ``finish``) → ``ContractMonitor`` are all hot.  It is
the trace *write* side and the contracts *online* side; the same two
layers run the other way in ``trace_postmortem``.
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
from repro import MS, Cluster, record_run
from repro.contracts import UNIVERSAL_SET
from repro.contracts.offline import check_trace
from repro.contracts.online import ContractMonitor
from repro.mayflower.syscalls import Sleep
from repro.obs import events as obs_events
from repro.replay import TraceWriter
from repro.rpc.runtime import remote_call

NAMES = ["client", "server"]
#: Null RPCs per block (one block ≈ 0.25 s on the pinned host).
CALLS = 1000
CHECKPOINT_EVERY = 100 * MS
#: Obs events one call materialises (2 packets sent + 2 delivered, the
#: server process created + deleted, call started + completed) ...
EVENTS_PER_CALL = 8
#: ... and one run adds on top (caller created + deleted, agent created).
EVENTS_PER_RUN = 3


def null_rpc_build(calls: int, start_offset: int):
    """Scenario: one client process making ``calls`` sequential null
    RPCs after sleeping ``start_offset`` µs (the seeded input: it shifts
    every event time, and so the fingerprint, but not the work)."""
    def build(cluster: Cluster) -> None:
        cluster.rpc("server").export_native("svc", {"op": lambda ctx: None})

        def caller(node):
            yield Sleep(start_offset)
            for _ in range(calls):
                yield from remote_call(node.rpc, "svc", "op")

        node = cluster.node("client")
        node.spawn(caller(node), name="caller")
    return build


def start_offset(seed: int) -> int:
    """The seeded start offset, in virtual µs."""
    return 1 + random.Random(seed).randrange(10 * MS)


class RpcRecordCheck(Workload):
    """op = one null RPC; block = one ``record_run`` of ``CALLS`` calls
    with checkpoints every 100 ms and the universal contract set online."""

    name = "rpc_record_check"
    warmup_blocks = 6

    def prepare(self) -> None:
        self.build = null_rpc_build(CALLS, start_offset(self.seed))
        self.trace = None

    def block(self) -> int:
        with self.tracer.span("replay.record_run"):
            self.trace = record_run(
                self.build, NAMES, seed=self.seed,
                checkpoint_every=CHECKPOINT_EVERY, contracts=UNIVERSAL_SET)
        return CALLS

    def verify(self) -> bool:
        trace = self.trace
        with self.tracer.span("contracts.check_trace"):
            offline = check_trace(trace, UNIVERSAL_SET)
        fingerprint = trace.fingerprint()
        first = self.facts.setdefault("fingerprint", fingerprint)
        return (
            len(trace.events) == EVENTS_PER_CALL * CALLS + EVENTS_PER_RUN
            and fingerprint == first
            and trace.contract_report.ok
            and trace.contract_report.canonical() == offline.canonical()
        )


# ----------------------------------------------------------------------
# Per-layer probes: the differential rungs of one null-RPC run
# ----------------------------------------------------------------------

def _noop_subscriber(event) -> None:
    pass


def _all_event_types() -> list:
    return [getattr(obs_events, name) for name in obs_events.__all__
            if name != "Event"]


def _rung(meter: Meter, tracer: Tracer, seed: int, *, debug: bool = True,
          tap: bool = False, writer: bool = False,
          monitor: bool = False) -> dict:
    """One run of the block's program with some layers attached.

    Mirrors ``record_run`` step for step so each phase can be timed on
    its own; returns normalised seconds per phase plus the exact counts.
    """
    out: dict = {}
    with tracer.span("cluster.build"):
        cluster, timed = meter.time(lambda: Cluster(names=NAMES, seed=seed))
    out["build_s"] = timed.norm_s
    for name in NAMES:
        cluster.rpc(name).debug_support = debug
    bus = cluster.world.bus
    if tap:
        for event_type in _all_event_types():
            bus.subscribe(event_type, _noop_subscriber)
    trace_writer = (TraceWriter(cluster, checkpoint_every=CHECKPOINT_EVERY)
                    if writer else None)
    checker = ContractMonitor(bus, UNIVERSAL_SET) if monitor else None
    null_rpc_build(CALLS, start_offset(seed))(cluster)
    with tracer.span("cluster.run"):
        _, timed = meter.time(cluster.run)
    out["run_s"] = timed.norm_s
    out["kernel_events"] = cluster.world.events_processed
    out["packets"] = cluster.net.total_sent
    if trace_writer is not None:
        with tracer.span("replay.finish"):
            trace, timed = meter.time(trace_writer.finish, {"mode": "drain"})
        out["finish_s"] = timed.norm_s
        out["obs_events"] = len(trace.events)
        out["checkpoints"] = len(trace.checkpoints)
    if checker is not None:
        with tracer.span("contracts.report"):
            _, timed = meter.time(checker.report)
        out["report_s"] = timed.norm_s
    cluster.close()
    return out


def _virtual_latency(seed: int) -> int:
    """Virtual µs of one null RPC with ``debug_support`` on (§4.3)."""
    cluster = Cluster(names=NAMES, seed=seed)
    cluster.rpc("server").export_native("svc", {"op": lambda ctx: None})
    out = {}

    def caller(node):
        start = node.clock.real_now()
        yield from remote_call(node.rpc, "svc", "op")
        out["latency"] = node.clock.real_now() - start

    node = cluster.node("client")
    node.spawn(caller(node), name="caller")
    cluster.run()
    cluster.close()
    return out["latency"]


def probes(seed: int, meter: Meter, tracer: Tracer,
           rounds: int = 5) -> dict[str, Metric]:
    """The rpc/obs/replay/contracts rungs, interleaved ``rounds`` times."""
    def rung(**layers):
        return lambda: _rung(meter, tracer, seed, **layers)

    runs = interleave({
        "nodebug": rung(debug=False),
        "bare": rung(),
        "tap": rung(tap=True),
        "record": rung(writer=True),
        "check": rung(writer=True, monitor=True),
    }, rounds, tracer)

    def run_s(name: str) -> list[float]:
        return [r["run_s"] for r in runs[name]]

    check = runs["check"][0]
    events = check["obs_events"]
    per_call = 1e6 / CALLS
    per_event = 1e6 / events
    builds = [r["build_s"] for rs in runs.values() for r in rs]
    return {
        "cluster.build_ms": sampled(builds, "ms", 1e3),
        "rpc.bare_us_per_call": sampled(run_s("bare"), "us", per_call),
        "rpc.debug_support_us_per_call": sampled(
            deltas(run_s("bare"), run_s("nodebug")), "us", per_call),
        "obs.tap_us_per_event": sampled(
            deltas(run_s("tap"), run_s("bare")), "us", per_event),
        "replay.record_us_per_event": sampled(
            deltas(run_s("record"), run_s("tap")), "us", per_event),
        "replay.finish_us_per_event": sampled(
            [r["finish_s"] for r in runs["check"]], "us", per_event),
        "contracts.online_us_per_event": sampled(
            deltas(run_s("check"), run_s("record")), "us", per_event),
        "contracts.report_ms": sampled(
            [r["report_s"] for r in runs["check"]], "ms", 1e3),
        "kernel.events_per_call": exact(check["kernel_events"] / CALLS, "count"),
        "obs.events_per_call": exact(
            (events - EVENTS_PER_RUN) / CALLS, "count"),
        "net.packets_per_call": exact(check["packets"] / CALLS, "count"),
        "rpc.virtual_latency_us": exact(_virtual_latency(seed), "us"),
        "replay.checkpoints": exact(check["checkpoints"], "count"),
    }
