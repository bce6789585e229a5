"""The fault-tolerant work-stealing campaign fleet.

PR 4's runner fanned statically-sharded cell lists across a
``ProcessPoolExecutor``: one hung cell stalled its whole shard, one
crashed worker (OOM kill, segfault, unpickleable result) lost every
result the pool had not yet returned, and a Ctrl-C lost the campaign.
This module replaces that with production fuzzing-fleet semantics:

* **Work stealing** — there is no static sharding.  A coordinator holds
  one pending deque and keeps every worker's pipe primed from it, so a
  slow cell never delays the cells that would have shared its shard.
  Dispatch order is demand-driven, but results are keyed by cell index,
  so the canonical report stays byte-identical at any worker count.
* **Containment** — every cell attempt runs under a wall-clock deadline.
  A worker that blows the deadline is SIGKILLed; a worker that dies
  (crash, OOM, unserializable result) is detected through its closed
  pipe and its in-flight cell is attributed.  Either way the fleet
  respawns a fresh worker and the campaign keeps moving.
* **Retry with backoff** — environmental failures (death, timeout) are
  retried up to a bounded budget with exponential backoff; exhausted
  budgets convert into a deterministic ``error`` verdict instead of an
  aborted campaign.  A cell whose own code raises is *not* retried —
  cells are deterministic, so the exception is the result — it becomes
  an ``error`` verdict carrying the captured traceback.
* **Quarantine** — a cell that kills :data:`QUARANTINE_AFTER` workers is
  quarantined (an ``error`` verdict with ``kind="quarantined"``) so one
  poison cell cannot wedge the fleet in a kill/respawn loop.

The coordinator/worker protocol is pure message passing over per-worker
pipes — no shared locks, so a SIGKILLed worker can never deadlock its
siblings — and pipelined, so a worker never waits for the coordinator
between two cells.  The coordinator keeps :data:`WINDOW` ``("run",
cell)`` messages in each pipe (the cell executing plus one queued behind
it); the worker answers each with ``("done", index, result,
waited_us)``, which doubles as the request for more, and leaves on
``("exit",)``.  A worker runs its pipe in order, so the head of its
coordinator-side queue *is* the executing cell: deadline, attempt count
and chaos hook start when a cell reaches the head, a death or timeout is
charged to the head alone, and what was queued behind it returns to the
front of ``pending`` as if never sent.  Either side's death is an EOF on
the other's end of the pipe.  docs/campaign-fleet.md has the rest (why
results are not batched, why the pool lives for one campaign).

Fleet-health counters (:data:`repro.obs.metrics.FLEET_COUNTERS`) record
retries, timeouts, worker deaths, steals, quarantines, pipe messages and
the time workers spent waiting for one; they describe the *schedule*,
so they ride next to ``workers``/``wall_seconds`` in the report and
never enter the canonical document.
"""

from __future__ import annotations

import json
import selectors
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.debugger.errors import fork_context
from repro.obs.metrics import Metrics, fleet_metrics

#: Cells kept in each worker's pipe: the one executing plus one queued
#: behind it.  A constant, not a tunable: one queued cell is a whole
#: cell of slack for the coordinator's round trip, so a second would buy
#: nothing and only grow what a death hands back and the tail imbalance.
WINDOW = 2

#: Default wall-clock budget per cell attempt, in seconds.  Campaign
#: cells are milliseconds of host time; a minute means only a genuinely
#: wedged cell (live-lock, accidental blocking syscall) trips it.
DEFAULT_CELL_TIMEOUT = 60.0

#: Default retry budget for environmental failures (worker death or
#: timeout): the attempt itself plus this many re-executions.
DEFAULT_RETRIES = 2

#: Default base backoff between retries of one cell, in seconds;
#: doubles per retry, capped at :data:`MAX_BACKOFF`.
DEFAULT_BACKOFF = 0.05

#: Ceiling on the per-retry backoff delay, in seconds.
MAX_BACKOFF = 2.0

#: Worker deaths attributed to one cell before it is quarantined: the
#: first death may be the environment's, a second is the cell's.
QUARANTINE_AFTER = 2

#: Seconds the coordinator waits on the worker pipes before it checks
#: deadlines and due retries again.
POLL_INTERVAL = 0.02


@dataclass(frozen=True)
class FleetOptions:
    """Tuning knobs for one fleet run.

    ``chaos_kill_cells`` is the fault-injection hook the fleet's own
    tests use: the coordinator SIGKILLs the worker on which one of these
    cells first starts executing, exercising the death/retry path with
    the same determinism guarantees as a real OOM kill.
    """

    workers: int = 2
    cell_timeout: float = DEFAULT_CELL_TIMEOUT
    retries: int = DEFAULT_RETRIES
    backoff: float = DEFAULT_BACKOFF
    chaos_kill_cells: frozenset = field(default_factory=frozenset)


def error_result(cell, kind: str, detail: str) -> dict:
    """A deterministic ``error``-verdict result for a cell that never
    produced one itself.

    The dict mirrors :func:`repro.campaign.runner.run_cell`'s shape so
    reports aggregate it uniformly; ``error`` carries the failure class
    (``exception`` / ``timeout`` / ``worker-death`` / ``quarantined`` /
    ``unserializable``) and a detail string.  Nothing schedule-dependent
    (attempt counts, pids, elapsed wall time) is included — the verdict
    for a given failure is byte-identical across worker counts, retry
    schedules, and resume boundaries.
    """
    return {
        "index": cell.index,
        "scenario": cell.scenario,
        "seed": cell.seed,
        "plan_name": cell.plan_name,
        "topology": cell.topology,
        "plan": cell.plan.to_dict(),
        "verdict": "error",
        "error": {"kind": kind, "detail": detail},
        "violations": [],
        "final_time": 0,
        "events": 0,
        "fingerprint": None,
        "metrics": {},
    }


def execute_cell(cell) -> dict:
    """Run one cell, converting any raised exception into its result.

    This is the containment fix for the PR 4 runner, where an exception
    inside ``run_cell`` propagated out of the worker and aborted the
    rest of its shard: here the traceback is captured as an ``error``
    verdict and sibling cells are untouched.  A result that is not
    JSON-serializable (a scenario smuggling live objects into its
    violations) is likewise converted rather than letting the transport
    layer choke on it.
    """
    from repro.campaign.runner import run_cell

    try:
        result = run_cell(cell)
    except Exception:
        return error_result(cell, "exception", traceback.format_exc())
    try:
        json.dumps(result)
    except (TypeError, ValueError):
        return error_result(
            cell, "unserializable",
            f"run_cell returned a non-JSON-serializable result: "
            f"{type(result).__name__}",
        )
    return result


def _fleet_worker(conn, inherited) -> None:
    """Worker-process main loop: run what arrives, answer, repeat.

    ``inherited`` are the coordinator-side pipe ends this fork copied
    (its own and every live sibling's), closed first: while a worker
    holds one, no worker can ever see the EOF of a dead coordinator.

    Every send is a synchronous pipe write (no feeder thread), so a
    message that ``send`` returned for is readable by the coordinator
    even if this process is SIGKILLed immediately afterwards.  Each
    ``done`` carries the microseconds spent in ``recv`` before its cell.
    """
    for coordinator_end in inherited:
        coordinator_end.close()
    try:
        while True:
            asked = time.perf_counter_ns()
            message = conn.recv()
            waited_us = (time.perf_counter_ns() - asked) // 1000
            if message[0] == "exit":
                return
            cell = message[1]
            conn.send(("done", cell.index, execute_cell(cell), waited_us))
    except (EOFError, OSError, KeyboardInterrupt):
        return
    finally:
        conn.close()


class _Worker:
    """Coordinator-side handle: process, pipe, slot, and the cells in
    the pipe, oldest first — ``queue[0]`` is executing, ``deadline`` is
    its."""

    __slots__ = ("process", "conn", "slot", "queue", "deadline")

    def __init__(self, process, conn, slot: int):
        self.process = process
        self.conn = conn
        self.slot = slot
        self.queue: deque = deque()
        self.deadline = 0.0


class Fleet:
    """The coordinator: dispatches cells, contains failures, resolves
    every cell to exactly one result.

    ``on_result(cell, result)`` fires once per cell, in completion
    order, as soon as the cell is resolved — the campaign runner uses it
    to checkpoint the journal, so progress survives a coordinator kill.
    """

    def __init__(
        self,
        cells: Sequence,
        options: FleetOptions,
        metrics: Optional[Metrics] = None,
        on_result: Optional[Callable] = None,
    ):
        self._ctx = fork_context()  # workers inherit scenarios + memo
        self.cells = sorted(cells, key=lambda cell: cell.index)
        self.options = options
        self.metrics = metrics if metrics is not None else fleet_metrics()
        self.on_result = on_result
        self.results: dict[int, dict] = {}
        self._pending = deque(self.cells)
        self._backlog: list[tuple[float, object]] = []  # (ready_at, cell)
        self._attempts: dict[int, int] = {}
        self._deaths: dict[int, int] = {}
        self._workers: dict[int, _Worker] = {}
        self._selector = selectors.DefaultSelector()
        self._next_worker_id = 0
        self._chaos_pending = set(options.chaos_kill_cells)

    # -- lifecycle ------------------------------------------------------

    def run(self) -> dict[int, dict]:
        """Drive the fleet until every cell has a result."""
        try:
            while len(self.results) < len(self.cells):
                self._maintain_size()
                self._promote_backlog()
                self._dispatch()
                self._poll()
                self._reap_timeouts()
        finally:
            self._shutdown()
        return self.results

    def _maintain_size(self) -> None:
        """(Re)spawn up to the configured width while work remains."""
        unresolved = len(self.cells) - len(self.results)
        while len(self._workers) < min(self.options.workers, unresolved):
            parent_conn, child_conn = self._ctx.Pipe()
            ends = [w.conn for w in self._workers.values()] + [parent_conn]
            process = self._ctx.Process(
                target=_fleet_worker, args=(child_conn, ends), daemon=True)
            process.start()
            child_conn.close()  # the worker holds the only child end now
            worker = _Worker(process, parent_conn, self._next_worker_id)
            self._workers[worker.slot] = worker
            self._selector.register(parent_conn, selectors.EVENT_READ, worker)
            self._next_worker_id += 1

    def _shutdown(self) -> None:
        for worker in self._workers.values():
            try:
                worker.conn.send(("exit",))
                self.metrics.counter("fleet.messages").inc()
            except OSError:
                pass
        deadline = time.monotonic() + 2.0
        for worker in self._workers.values():
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
            worker.conn.close()
        self._workers.clear()
        self._selector.close()

    # -- dispatch -------------------------------------------------------

    def _promote_backlog(self) -> None:
        """Move backed-off retries whose delay elapsed back to pending."""
        if not self._backlog:
            return
        now = time.monotonic()
        ready = [cell for at, cell in self._backlog if at <= now]
        if ready:
            self._backlog = [(at, cell) for at, cell in self._backlog
                             if at > now]
            for cell in sorted(ready, key=lambda cell: cell.index):
                self._pending.append(cell)

    def _dispatch(self) -> None:
        """Prime the pipes: a cell to each idle worker first (a short
        grid still spreads over a wide fleet), then one queued behind it
        while ``pending`` is at least as long as the fleet is wide — the
        last cells go out on demand, so the tail imbalance is one cell.
        Runs every turn, so a promoted retry reaches an idle fleet."""
        for depth in range(WINDOW):
            for worker in list(self._workers.values()):
                if len(self._pending) < (len(self._workers) if depth else 1):
                    return
                if len(worker.queue) == depth:
                    self._send(worker)

    def _send(self, worker: _Worker) -> None:
        """Write the next pending cell into one worker's pipe."""
        cell = self._pending.popleft()
        try:
            worker.conn.send(("run", cell))
        except OSError:
            # The worker died since its last message; put the cell back
            # and let the EOF on its pipe attribute the death.
            self._pending.appendleft(cell)
            return
        self.metrics.counter("fleet.messages").inc()
        worker.queue.append(cell)
        if len(worker.queue) == 1:
            self._begin(worker)

    def _begin(self, worker: _Worker) -> None:
        """A cell reached the head of a queue, i.e. is executing: start
        its clock, count its attempt, fire its chaos kill.  A cell still
        queued behind a head has been charged nothing."""
        cell = worker.queue[0]
        worker.deadline = time.monotonic() + self.options.cell_timeout
        self._attempts[cell.index] = self._attempts.get(cell.index, 0) + 1
        self.metrics.counter("fleet.cells_executed").inc()
        # A "steal": this worker ran a cell that static round-robin
        # sharding (cell i -> shard i % workers) would have assigned to
        # a different worker.  Quantifies how much rebalancing the
        # demand-driven queue actually did.
        if cell.index % self.options.workers != worker.slot % self.options.workers:
            self.metrics.counter("fleet.steals").inc()
        if cell.index in self._chaos_pending:
            # Handled here, not at the next select: a `done` the victim
            # already wrote must not turn its death into a later cell's.
            self._chaos_pending.discard(cell.index)
            worker.process.kill()
            self._handle_death(worker)

    # -- event handling -------------------------------------------------

    def _poll(self) -> None:
        """Wait briefly for messages; one ``recv`` per readable pipe."""
        for key, _ in self._selector.select(POLL_INTERVAL):
            self._receive(key.data)

    def _receive(self, worker: _Worker) -> None:
        """Take one ``done`` off a readable pipe (EOF means death): the
        head is resolved, the cell behind it becomes the head, and the
        next :meth:`_dispatch` tops the window up."""
        try:
            _, _, result, waited_us = worker.conn.recv()
        except (EOFError, OSError):
            self._handle_death(worker)
            return
        self.metrics.counter("fleet.messages").inc()
        self.metrics.counter("fleet.worker_wait_us").inc(waited_us)
        self._resolve(worker.queue.popleft(), result)
        if worker.queue:
            self._begin(worker)

    def _resolve(self, cell, result: dict) -> None:
        """Record a cell's final result exactly once."""
        if cell.index in self.results:
            return
        self.results[cell.index] = result
        if self.on_result is not None:
            self.on_result(cell, result)

    def _reap_timeouts(self) -> None:
        """SIGKILL workers whose head cell blew its wall-clock budget."""
        now = time.monotonic()
        for worker in list(self._workers.values()):
            if not worker.queue or now < worker.deadline:
                continue
            # The deadline races with completion: salvage any result
            # already sitting in the pipe before reaching for SIGKILL.
            while worker.slot in self._workers and worker.conn.poll():
                self._receive(worker)
            if (worker.slot not in self._workers or not worker.queue
                    or time.monotonic() < worker.deadline):
                continue  # finished (or moved on to a fresh head)
            self.metrics.counter("fleet.timeouts").inc()
            worker.process.kill()
            worker.process.join()
            self._environmental_failure(
                self._discard(worker), "timeout",
                f"cell exceeded its wall-clock budget and was killed "
                f"(timeout {self.options.cell_timeout:g}s)",
                count_death=False,
            )

    def _handle_death(self, worker: _Worker) -> None:
        """A worker died (pipe EOF, or the chaos hook's kill): attribute
        and contain the death."""
        worker.process.join()
        cell = self._discard(worker)
        if cell is None:
            return  # died idle; nothing to attribute
        self.metrics.counter("fleet.worker_deaths").inc()
        self._deaths[cell.index] = self._deaths.get(cell.index, 0) + 1
        self._environmental_failure(
            cell, "worker-death",
            f"worker died while executing the cell "
            f"(exit code {worker.process.exitcode})",
            count_death=True,
        )

    def _discard(self, worker: _Worker):
        """Forget a dead worker; return the cell it was executing (the
        only one charged).  Cells queued behind it never started and go
        back to the *front* of ``pending``."""
        self._workers.pop(worker.slot)
        self._selector.unregister(worker.conn)
        worker.conn.close()
        cell = worker.queue.popleft() if worker.queue else None
        self._pending.extendleft(reversed(worker.queue))
        return cell

    def _environmental_failure(self, cell, kind: str, detail: str,
                               count_death: bool) -> None:
        """Retry, quarantine, or give up on a cell the environment lost."""
        index = cell.index
        if count_death and self._deaths.get(index, 0) >= QUARANTINE_AFTER:
            self.metrics.counter("fleet.quarantined").inc()
            self._resolve(cell, error_result(
                cell, "quarantined",
                f"cell killed {QUARANTINE_AFTER} workers "
                f"and was quarantined",
            ))
            return
        attempts = self._attempts.get(index, 0)
        if attempts > self.options.retries:
            self._resolve(cell, error_result(cell, kind, detail))
            return
        self.metrics.counter("fleet.retries").inc()
        delay = min(MAX_BACKOFF,
                    self.options.backoff * (2 ** max(0, attempts - 1)))
        self._backlog.append((time.monotonic() + delay, cell))


def run_fleet(
    cells: Sequence,
    options: FleetOptions,
    metrics: Optional[Metrics] = None,
    on_result: Optional[Callable] = None,
) -> dict[int, dict]:
    """Convenience wrapper: build a :class:`Fleet`, run it, return the
    index-keyed result dict."""
    return Fleet(cells, options, metrics=metrics, on_result=on_result).run()
