"""``trace_postmortem`` — load a large binary trace and interrogate it.

The trace *read* side and the contracts *offline* side: the same two
layers ``rpc_record_check`` uses the other way.  Set-up records and
saves the trace, so the container's *write* cost lands in this
workload's ``setup_s`` — a lazy or indexed container that speeds
``load`` but slows ``at()`` or ``save`` shows here, possibly in
opposite directions.
"""

from __future__ import annotations

import hashlib
import os
import random
import threading
import time
from pathlib import Path

from benchmarks.ledger.harness import (
    OUT_DIR,
    Meter,
    Metric,
    Tracer,
    Workload,
    deltas,
    exact,
    percentile,
    sampled,
)
from repro import MS, FaultPlan, record_run
from repro.contracts import UNIVERSAL_SET
from repro.contracts.offline import check_trace
from repro.replay import ReplayWorld, TimeTravel, Trace, TraceSession
from repro.service import ServiceClient, serve
from repro.service.daemon import PilgrimService

CLIENTS = ["c0", "c1", "c2"]
NAMES = [*CLIENTS, "server"]
#: Echo calls per client (≈ 36 k events, a ≈ 2 MB PILTRACE).
CALLS = 1500
CHECKPOINT_EVERY = 100 * MS
#: Queries of one session.
AT_QUERIES, STEPS, WHY_QUERIES = 1500, 750, 4

ECHO_SERVER = "proc echo(x: int) returns int\n  return x\nend"
ECHO_CLIENT = f"""
proc main()
  var total: int := 0
  for i := 1 to {CALLS} do
    var r: int := remote svc.echo(i)
    if failed(r) then
      total := total - 100
    else
      total := total + r
    end
  end
  print total
end
"""


def build(cluster) -> None:
    """Three CLU clients looping echo calls against one CLU server."""
    image = cluster.load_program(ECHO_SERVER, "server")
    cluster.rpc("server").export_vm("svc", image, {"echo": "echo"})
    for name in CLIENTS:
        cluster.spawn_vm(name, cluster.load_program(ECHO_CLIENT, name), "main")


def fault_plan(seed: int) -> FaultPlan:
    """Crash + reboot + delay window, each placed by the seed."""
    rng = random.Random(seed)
    crash = rng.randrange(40 * MS, 80 * MS)
    return (FaultPlan()
            .crash(at=crash, node="server")
            .reboot(at=crash + rng.randrange(100 * MS, 180 * MS), node="server")
            .delay(at=rng.randrange(340 * MS, 400 * MS), duration=400 * MS,
                   extra=5 * MS, jitter=2 * MS))


def record(seed: int) -> Trace:
    """The recording every session of this seed reads back."""
    return record_run(build, NAMES, seed=seed, plan=fault_plan(seed),
                      checkpoint_every=CHECKPOINT_EVERY,
                      contracts=UNIVERSAL_SET)


def trace_path(tag: str) -> Path:
    """A per-process scratch file under the ledger's own ``out/``."""
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR / f"{tag}-{os.getpid()}.trace.bin"


class TracePostmortem(Workload):
    """op = one session: ``Trace.load`` → ``check_trace`` → ``TimeTravel``
    → 1500 seeded ``at(t)`` → 750 ``reverse_step`` + 750 ``step`` →
    4 × (``at`` + ``why_halted``)."""

    name = "trace_postmortem"
    warmup_blocks = 1

    def prepare(self) -> None:
        self.path = trace_path("postmortem")
        with self.tracer.span("replay.record_run"):
            trace = record(self.seed)
        with self.tracer.span("replay.save"):
            trace.save(self.path)
        self.facts["fingerprint"] = trace.fingerprint()
        self.online = trace.contract_report.canonical()
        rng = random.Random(self.seed)
        self.at_times = [rng.randrange(trace.final_time)
                         for _ in range(AT_QUERIES)]
        self.step_from = rng.randrange(trace.final_time // 4,
                                       trace.final_time)
        self.why_times = sorted(rng.randrange(trace.final_time)
                                for _ in range(WHY_QUERIES))
        self.session: dict = {}

    def block(self) -> int:
        span = self.tracer.span
        with span("replay.load"):
            trace = Trace.load(self.path)
        with span("contracts.check_trace"):
            report = check_trace(trace, UNIVERSAL_SET)
        with span("timetravel.build"):
            travel = TimeTravel(trace)
        digest = hashlib.sha256()
        for t in self.at_times:
            with span("timetravel.at"):
                moment = travel.at(t)
            digest.update(b"%d," % moment.index)
        start = travel.at(self.step_from).index
        for _ in range(STEPS):
            with span("timetravel.reverse_step"):
                moment = travel.reverse_step()
        digest.update(b"|%d|" % moment.index)
        for _ in range(STEPS):
            with span("timetravel.step"):
                moment = travel.step()
        for t in self.why_times:
            travel.at(t)
            with span("timetravel.why_halted"):
                answer = travel.why_halted()
            digest.update(repr(sorted(answer)).encode())
        self.session = {"trace": trace, "report": report, "start": start,
                        "end": moment.index, "digest": digest.hexdigest()}
        return 1

    def verify(self) -> bool:
        session = self.session
        digest = self.facts.setdefault("query_digest", session["digest"])
        return (session["trace"].fingerprint() == self.facts["fingerprint"]
                and session["report"].canonical() == self.online
                and session["digest"] == digest
                and session["end"] == session["start"])

    def close(self) -> None:
        self.path.unlink(missing_ok=True)


# ----------------------------------------------------------------------
# Per-layer probes
# ----------------------------------------------------------------------

#: Repeats of the load → check → build chain.
LOADS = 3
#: Timed individual queries.
PROBE_QUERIES = 300
#: at/status pairs through the daemon and through a local session.
ROUNDTRIPS = 150


def _each(meter: Meter, calls: list) -> list[float]:
    """Normalised seconds of each call in ``calls``, timed one by one
    inside a single bracketed region (the calls are microseconds long)."""
    raw: list[float] = []

    def loop() -> None:
        clock = time.perf_counter
        for call in calls:
            start = clock()
            call()
            raw.append(clock() - start)

    _, timed = meter.time(loop)
    return [seconds * timed.index for seconds in raw]


def _session_mix(session, times: list[int]) -> list:
    """The at/status command mix as zero-argument calls."""
    calls = []
    for t in times:
        calls.append(lambda t=t: session.at(t))
        calls.append(session.status)
    return calls


def _roundtrips(meter: Meter, tracer: Tracer, path: Path,
                times: list[int]) -> tuple[list[float], list[float]]:
    """Per-command normalised seconds: (through the daemon, local)."""
    local = TraceSession(str(path))
    local.connect()
    with tracer.span("replay.TraceSession"):
        local_s = _each(meter, _session_mix(local, times))
    # A relative path keeps the AF_UNIX address inside its 108 bytes
    # however deep the checkout is.
    socket_path = os.path.relpath(OUT_DIR / f"ledger-{os.getpid()}.sock")
    ready = threading.Event()
    thread = threading.Thread(
        target=serve, args=(socket_path, ready, PilgrimService()), daemon=True)
    thread.start()
    if not ready.wait(10):
        raise RuntimeError("session daemon did not come up")
    client = ServiceClient(socket_path, timeout=60)
    try:
        client.open("postmortem", "trace", path=str(path))
        remote = client.session("postmortem")
        remote.connect()
        with tracer.span("service.RemoteSession"):
            remote_s = _each(meter, _session_mix(remote, times))
    finally:
        client.shutdown()
        client.close()
        thread.join(10)
    if thread.is_alive():
        raise RuntimeError("session daemon did not shut down")
    return remote_s, local_s


def probes(seed: int, meter: Meter, tracer: Tracer,
           rounds: int = LOADS) -> dict[str, Metric]:
    """Each stage of the post-mortem path timed on its own."""
    span = tracer.span
    tracer.block = "probe-postmortem"
    path = trace_path("probe")
    try:
        with span("replay.record_run"):
            recorded, record_t = meter.time(record, seed)
        with span("replay.save"):
            _, save_t = meter.time(recorded.save, path)
        trace_bytes = path.stat().st_size
        del recorded

        loads, checks, builds = [], [], []
        for _ in range(rounds):
            with span("replay.load"):
                trace, timed = meter.time(Trace.load, path)
            loads.append(timed.norm_s)
            with span("contracts.check_trace"):
                _, timed = meter.time(check_trace, trace, UNIVERSAL_SET)
            checks.append(timed.norm_s)
            with span("timetravel.build"):
                travel, timed = meter.time(TimeTravel, trace)
            builds.append(timed.norm_s)

        rng = random.Random(seed)
        final = trace.final_time
        times = [rng.randrange(final) for _ in range(PROBE_QUERIES)]
        with span("timetravel.at"):
            at_s = _each(meter, [lambda t=t: travel.at(t) for t in times])
        travel.at(final // 2)
        with span("timetravel.step"):
            step_s = _each(meter, [
                lambda: (travel.reverse_step(), travel.step())] * 100)

        def why(t: int) -> None:
            travel.at(t)
            travel.why_halted()

        with span("timetravel.why_halted"):
            why_s = _each(meter, [lambda t=t: why(t) for t in times[:8]])
        indices = [rng.randrange(len(trace.events)) for _ in range(8)]
        with span("timetravel.causal_predecessors"):
            causes_s = _each(meter, [
                lambda i=i: travel.causal_predecessors(i) for i in indices])

        with span("replay.verify"):
            report, verify_t = meter.time(
                lambda: ReplayWorld(trace, build).verify())
        if not report.identical:
            raise RuntimeError("replay of the probe trace diverged")

        remote_s, local_s = _roundtrips(meter, tracer, path,
                                        times[:ROUNDTRIPS])
        events = len(trace.events)
    finally:
        path.unlink(missing_ok=True)
    return {
        "replay.record_ms": Metric(record_t.norm_s * 1e3, "ms"),
        "replay.save_ms": Metric(save_t.norm_s * 1e3, "ms"),
        "replay.load_ms": sampled(loads, "ms", 1e3),
        "contracts.check_trace_ms": sampled(checks, "ms", 1e3),
        "timetravel.build_ms": sampled(builds, "ms", 1e3),
        "timetravel.at_p50_us": sampled(at_s, "us", 1e6),
        "timetravel.at_p90_us": Metric(percentile(at_s, 0.9) * 1e6, "us",
                                       n=len(at_s)),
        "timetravel.step_p50_us": sampled(step_s, "us", 1e6),
        "timetravel.why_halted_ms": sampled(why_s, "ms", 1e3),
        "timetravel.causes_ms": sampled(causes_s, "ms", 1e3),
        "replay.verify_ms": Metric(verify_t.norm_s * 1e3, "ms"),
        "service.roundtrip_p50_us": sampled(
            deltas(remote_s, local_s), "us", 1e6),
        "replay.events": exact(events, "count"),
        "replay.trace_bytes": exact(trace_bytes, "bytes"),
    }
