"""E18 — session-daemon load: parked-session capacity and command throughput.

The debugger-as-a-service claim is twofold:

* **Parked sessions are (nearly) free.**  A session is a spec until its
  first operation — the service-level rendition of the paper's dormant
  debugging agents — so a daemon can hold thousands of named sessions
  while paying for none of their worlds.  Measured: wall time and
  resident-table cost to open ``E18_SESSIONS`` sessions (default 1000,
  the CI smoke runs a reduced scale), then the latency of an attached
  session's commands with all of them parked alongside, versus alone:
  ``ROUNDS`` rounds park and close the fleet around the attached
  session's loops, and each side's rate is the median of its loops.
* **Sustained command throughput.**  Round trips per second of a tight
  ``status`` loop and a mixed inspect loop (``processes`` +
  ``backtrace``) over the Unix socket, client and daemon in one
  process — the overhead measured is protocol + dispatch, not network.

Acceptance: >= 1000 parked sessions held concurrently, and the parked
fleet inflates attached-command latency by < 50%.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

from benchmarks.common import print_table
from repro.service import ServiceClient, serve
from repro.service.daemon import PilgrimService

#: Parked-session count; CI smoke overrides via the environment.
N_SESSIONS = int(os.environ.get("E18_SESSIONS", "1000"))
#: Command round trips per throughput loop.
N_COMMANDS = int(os.environ.get("E18_COMMANDS", "300"))
PARKED_OVERHEAD_CEILING = 0.50
#: Rounds of the experiment: each measures the attached session alone,
#: parks the fleet, measures it crowded and closes the fleet again, so
#: the two sides' loops alternate in time and a stretch the host runs
#: slow falls on both.  A side's rate is the median of its loops: on a
#: shared host one loop can read twice another's rate in either
#: direction, and a best-of-N rate follows those outliers.
ROUNDS = 5


def _boot(tmp_path) -> tuple[str, threading.Thread, PilgrimService]:
    path = str(tmp_path / "e18.sock")
    ready = threading.Event()
    service = PilgrimService()
    thread = threading.Thread(target=serve, args=(path, ready, service),
                              daemon=True)
    thread.start()
    assert ready.wait(10)
    return path, thread, service


def _command_rates(session, pid: int) -> dict:
    """Round trips/second of one status loop and one mixed inspect loop."""
    def rate(commands, round_trips: int) -> float:
        started = time.perf_counter()
        for _ in range(N_COMMANDS):
            commands()
        return round_trips * N_COMMANDS / (time.perf_counter() - started)

    def inspect():
        session.processes("app")
        session.backtrace("app", pid)

    return {"status": rate(session.status, 1), "mixed": rate(inspect, 2)}


def _median(rounds: list[dict]) -> dict:
    """Each loop's median rate over the rounds."""
    return {loop: statistics.median(rates[loop] for rates in rounds) for loop in rounds[0]}


def run_experiment(tmp_path) -> dict:
    """One daemon, ``ROUNDS`` times: throughput alone, park a fleet,
    throughput again, close the fleet (kept open after the last round)."""
    path, thread, service = _boot(tmp_path)
    client = ServiceClient(path, timeout=120)

    client.open("active", "world", scenario="counter", seed=3)
    session = client.session("active")
    session.connect("app")
    session.set_breakpoint("app", "app", line=4)
    hit = session.wait_for_breakpoint()

    alone, crowded, park_seconds = [], [], []
    for round_ in range(ROUNDS):
        if round_:
            for index in range(N_SESSIONS):
                client.close_session(f"parked-{index}")
        alone.append(_command_rates(session, hit["pid"]))
        started = time.perf_counter()
        for index in range(N_SESSIONS):
            client.open(f"parked-{index}", "world", scenario="counter",
                        seed=index)
        park_seconds.append(time.perf_counter() - started)
        crowded.append(_command_rates(session, hit["pid"]))
    table = client.sessions()
    parked_states = [row["state"] for row in table
                     if row["name"].startswith("parked-")]

    metrics = client.metrics()["snapshot"]
    client.shutdown()
    client.close()
    thread.join(10)

    return {
        "alone": _median(alone),
        "crowded": _median(crowded),
        "park_seconds": min(park_seconds),
        "parked": len(parked_states),
        "dormant": sum(1 for state in parked_states if state == "dormant"),
        "materialized": metrics["service.sessions_materialized"],
        "requests": metrics["service.requests"],
    }


def test_e18_service_load(benchmark, tmp_path):
    result = benchmark.pedantic(run_experiment, args=(tmp_path,),
                                rounds=1, iterations=1)

    overhead = result["alone"]["status"] / result["crowded"]["status"] - 1
    print_table(
        f"E18 session-daemon load ({result['parked']} parked sessions, "
        f"{N_COMMANDS}-command loops)",
        ["metric", "value"],
        [
            ["parked sessions opened", result["parked"]],
            ["  of which dormant (no world built)", result["dormant"]],
            ["  open cost (ms/session)",
             f"{1000 * result['park_seconds'] / max(1, result['parked']):.3f}"],
            ["worlds materialized daemon-wide", result["materialized"]],
            ["status cmds/s (alone)", f"{result['alone']['status']:.0f}"],
            ["status cmds/s (crowded)", f"{result['crowded']['status']:.0f}"],
            ["inspect cmds/s (alone)", f"{result['alone']['mixed']:.0f}"],
            ["inspect cmds/s (crowded)", f"{result['crowded']['mixed']:.0f}"],
            ["parked-fleet latency overhead", f"{overhead:+.1%}"],
            ["total requests served", result["requests"]],
        ],
    )

    assert result["parked"] == N_SESSIONS
    assert result["dormant"] == N_SESSIONS  # parked fleet built no worlds
    # Only the active session materialized a world.
    assert result["materialized"] <= 2
    assert result["crowded"]["status"] > 0
    assert overhead < PARKED_OVERHEAD_CEILING, (
        f"{result['parked']} parked sessions cost {overhead:+.1%} "
        f"on attached-command latency (ceiling {PARKED_OVERHEAD_CEILING:+.0%})"
    )
