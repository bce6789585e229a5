#!/usr/bin/env python3
"""Pilgrim's method against a *real* Python program (repro.live).

A multi-threaded worker pool runs in this process with a dormant
LiveAgent.  A LiveDebugger attaches over TCP, sets a source-line
breakpoint, halts every thread, inspects frames, single-steps, shows the
frozen logical clock, and detaches — leaving the program running.

Run:  python examples/live_python_debugging.py
"""

import threading
import time

from repro.live import LiveAgent, LiveDebugger


def build_program(agent: LiveAgent):
    stop = threading.Event()
    ledger = {"produced": 0, "consumed": 0}
    queue: list[int] = []
    lock = threading.Lock()

    def producer():
        agent.adopt_current_thread()
        n = 0
        while not stop.is_set():
            agent.checkpoint()
            n += 1
            with lock:
                queue.append(n)
                ledger["produced"] = n  # BREAK HERE
            time.sleep(0.002)

    def consumer():
        agent.adopt_current_thread()
        while not stop.is_set():
            agent.checkpoint()
            with lock:
                if queue:
                    queue.pop(0)
                    ledger["consumed"] += 1
            time.sleep(0.002)

    threads = [
        threading.Thread(target=producer, name="producer", daemon=True),
        threading.Thread(target=consumer, name="consumer", daemon=True),
    ]
    for thread in threads:
        thread.start()
    return stop, ledger


def find_break_line() -> int:
    import inspect

    source, start = inspect.getsourcelines(build_program)
    for offset, line in enumerate(source):
        if "BREAK HERE" in line:
            return start + offset
    raise AssertionError


def main() -> None:
    agent = LiveAgent()
    host, port = agent.address
    print(f"agent listening on {host}:{port} (dormant)")
    stop, ledger = build_program(agent)
    time.sleep(0.2)
    print(f"program running unattended: {ledger}")

    dbg = LiveDebugger(agent.address)
    threads = dbg.connect()
    print(f"attached; threads: {[t['name'] for t in threads]}")

    line = find_break_line()
    dbg.set_breakpoint("live_python_debugging.py", line)
    hit = dbg.wait_for_breakpoint()
    print(f"breakpoint: thread {hit['thread_name']!r} at "
          f"{hit['func']} line {hit['line']}")

    snapshot = dict(ledger)
    time.sleep(0.3)
    print(f"all threads halted: ledger frozen = {ledger == snapshot}")

    n = dbg.read_var(hit["thread"], "n")
    print(f"producer local n = {n}")
    frames = dbg.backtrace(hit["thread"])
    print("backtrace:", " <- ".join(f["proc"] for f in frames))

    stepped = dbg.step()
    print(f"single step -> line {stepped['line']}")

    status = dbg.status()
    print(f"logical clock lags real time by {status['delta']:.2f}s "
          f"(the halt, invisible to the program)")

    dbg.clear_breakpoint("live_python_debugging.py", line)
    dbg.resume()
    dbg.disconnect()
    time.sleep(0.2)
    print(f"detached; program still running: {ledger}")
    stop.set()
    agent.shutdown()


if __name__ == "__main__":
    main()
