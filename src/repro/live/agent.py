"""The live agent: in-process debugging support for real Python threads.

Mirrors the simulated :class:`~repro.agent.agent.PilgrimAgent`:

* dormant until a debugger connects — the trace function is installed per
  thread only while a session is active, so an unattached program pays one
  attribute check per :meth:`LiveAgent.checkpoint`;
* breakpoints are (filename-suffix, line) pairs checked by the per-thread
  trace function;
* hitting a breakpoint halts *every* traced thread: each thread's trace
  function parks it on a condition variable at its next line — the analog
  of transparent halting (§5.2) at line granularity;
* a logical clock delta accumulates halted wall-clock time, and
  ``get_debuggee_status`` reports (debugger address, logical time) for
  cooperating servers (§6.1);
* requests arrive over a TCP socket, one JSON object per line (the
  daemon's framing, :mod:`repro.service.protocol`) — one network
  interaction per logical request (§3); a frame it cannot read gets an
  error reply and the connection serves on.  The answer envelope is the
  simulated agent's: ``{"ok": True, "data": ...}``, a refusal's reason
  (an ``_op_*`` raised :class:`~repro.debugger.errors.AgentError`), or
  ``agent error: ...`` with a ``detail`` traceback for an unexpected
  exception.

CPython note: a trace function can only be installed by the thread it
traces.  Threads started *after* connect are traced automatically (via
``threading.settrace``); threads already running pick tracing up at their
next :meth:`checkpoint` call — the price of attaching to a live program
without interpreter surgery.
"""

from __future__ import annotations

import socketserver
import sys
import threading
import time
import traceback
from typing import Optional

from repro.agent.requests import check_request
from repro.debugger.errors import AgentError, ServiceError
from repro.service.protocol import FrameTooLong, recv_message, send_message

#: The value meaning "not under control of a debugger" (§6.1).
NO_DEBUGGER = ""


class LiveAgent:
    """One per process; traces any thread that registers."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._lock = threading.RLock()
        self._cond = threading.Condition()
        self.session_id: Optional[int] = None
        self.debugger_addr: str = NO_DEBUGGER
        self.breakpoints: set[tuple[str, int]] = set()
        self.threads: dict[int, threading.Thread] = {}
        self._traced: set[int] = set()
        self.halted = False
        self.trapped: Optional[dict] = None
        self._trapped_ident: Optional[int] = None
        self._step_budget = 0
        self._step_done = threading.Event()
        self.events: list[dict] = []
        self.delta = 0.0
        self._halt_started: Optional[float] = None
        self._tracing = False
        self._server = _AgentServer((host, port), _RequestHandler)
        self._server.agent = self
        self.address = self._server.server_address
        self._server_thread = threading.Thread(
            target=self._server.serve_forever, name="live-agent", daemon=True
        )
        self._server_thread.start()

    # ------------------------------------------------------------------
    # Program-side API
    # ------------------------------------------------------------------

    def adopt_current_thread(self) -> None:
        """Register the calling thread for debugging."""
        thread = threading.current_thread()
        with self._lock:
            self.threads[thread.ident] = thread
        self.checkpoint()

    def checkpoint(self) -> None:
        """Cheap call a cooperative program sprinkles into its loops.

        When a debugger is attached it (un)installs the calling thread's
        trace function; otherwise it is a couple of attribute checks.
        """
        ident = threading.get_ident()
        if self._tracing:
            if ident in self.threads and ident not in self._traced:
                self._traced.add(ident)
                sys.settrace(self._trace)
                # settrace only affects frames entered afterwards; arm the
                # live frame stack too (legal: we are the traced thread).
                frame = sys._getframe().f_back
                while frame is not None:
                    frame.f_trace = self._trace
                    frame = frame.f_back
        elif ident in self._traced:
            self._traced.discard(ident)
            sys.settrace(None)
            frame = sys._getframe().f_back
            while frame is not None:
                frame.f_trace = None
                frame = frame.f_back

    def release_current_thread(self) -> None:
        ident = threading.get_ident()
        with self._lock:
            self.threads.pop(ident, None)
        if ident in self._traced:
            self._traced.discard(ident)
            sys.settrace(None)

    def logical_now(self) -> float:
        """The program's logical clock (§5.2): real time minus halt time."""
        delta = self.delta + self._pending_halt_time()
        return time.time() - delta

    def get_debuggee_status(self) -> tuple[str, float]:
        """(debugger address, logical time) — §6.1."""
        return self.debugger_addr, self.logical_now()

    def shutdown(self) -> None:
        self._teardown_session()
        self._server.shutdown()
        self._server.server_close()

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------

    def _trace(self, frame, event, arg):
        if not self._tracing:
            return None  # session over: stop tracing this frame
        if event != "line":
            return self._trace
        ident = threading.get_ident()
        if ident not in self.threads:
            return self._trace

        if self.halted:
            if ident == self._trapped_ident and self._step_budget > 0:
                self._step_budget -= 1
                if self._step_budget == 0:
                    self._record_stop(frame, "stepped")
                    self._step_done.set()
                    self._park(ident)
                return self._trace
            self._park(ident)
            return self._trace

        line = frame.f_lineno
        filename = frame.f_code.co_filename
        for suffix, bp_line in self.breakpoints:
            if line == bp_line and filename.endswith(suffix):
                self._hit_breakpoint(frame)
                self._park(ident)
                break
        return self._trace

    def _should_park(self, ident: int) -> bool:
        if not self.halted:
            return False
        if ident == self._trapped_ident and self._step_budget > 0:
            return False
        return True

    def _park(self, ident: int) -> None:
        """Block the calling thread until the program is resumed (or it is
        granted a step)."""
        with self._cond:
            while self._should_park(ident):
                self._cond.wait(timeout=0.5)

    def _hit_breakpoint(self, frame) -> None:
        with self._lock:
            if self.halted:
                return
            self._begin_halt()
            self._trapped_ident = threading.get_ident()
            self._record_stop(frame, "breakpoint")
            self.events.append(dict(self.trapped))

    def _record_stop(self, frame, kind: str) -> None:
        self.trapped = {
            "event": kind,
            "thread": threading.get_ident(),
            "thread_name": threading.current_thread().name,
            "file": frame.f_code.co_filename,
            "line": frame.f_lineno,
            "func": frame.f_code.co_name,
        }

    def _pending_halt_time(self) -> float:
        """Seconds spent in the current (still open) halt, if any."""
        if self._halt_started is None:
            return 0.0
        return time.monotonic() - self._halt_started

    def _begin_halt(self) -> None:
        self.halted = True
        # Monotonic: a wall-clock jump (NTP step, DST) while halted must
        # not corrupt the logical-clock delta.
        self._halt_started = time.monotonic()

    def _end_halt(self) -> None:
        if self._halt_started is not None:
            self.delta += time.monotonic() - self._halt_started
            self._halt_started = None
        self.halted = False
        self._trapped_ident = None
        self._step_budget = 0
        self.trapped = None
        with self._cond:
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Request handling (runs on the server thread)
    # ------------------------------------------------------------------

    def handle_request(self, request: dict) -> dict:
        """Run one request and write its envelope (module docstring)."""
        try:
            handler, args = check_request(self, request)
            data = handler(args)
        except AgentError as exc:
            return {"ok": False, "error": str(exc)}
        except Exception as exc:  # the agent must not die
            return {
                "ok": False,
                "error": f"agent error: {exc}",
                "detail": traceback.format_exc(),
            }
        return {"ok": True, "data": data}

    def _op_connect(self, args: dict) -> dict:
        if args.get("session") is None:
            raise AgentError("connect needs a session identifier")
        with self._lock:
            if self.session_id is not None and not args.get("force"):
                raise AgentError("a debugging session is already active")
            if self.session_id is not None:
                self._teardown_session()
            self.session_id = args["session"]
            self.debugger_addr = args.get("debugger", "remote")
            self._tracing = True
            # Threads started from now on are traced from birth; running
            # threads pick it up at their next checkpoint().
            threading.settrace(self._trace)
        return {"threads": self._thread_list()}

    def _op_disconnect(self, args: dict) -> None:
        self._teardown_session()

    def _teardown_session(self) -> None:
        with self._lock:
            self.breakpoints.clear()
            if self.halted:
                self._end_halt()
            self._tracing = False
            threading.settrace(None)
            self.session_id = None
            self.debugger_addr = NO_DEBUGGER
            self.delta = 0.0  # logical clock reset to real time (§5.2)

    def _thread_list(self) -> list[dict]:
        return [
            {"ident": ident, "name": thread.name, "alive": thread.is_alive()}
            for ident, thread in list(self.threads.items())
        ]

    def _op_list_threads(self, args: dict) -> list:
        return self._thread_list()

    def _op_set_breakpoint(self, args: dict) -> None:
        self.breakpoints.add((args["file"], int(args["line"])))

    def _op_clear_breakpoint(self, args: dict) -> None:
        self.breakpoints.discard((args["file"], int(args["line"])))

    def _op_poll_events(self, args: dict) -> list:
        with self._lock:
            events, self.events = self.events, []
        return events

    def _op_halt(self, args: dict) -> None:
        with self._lock:
            if not self.halted:
                self._begin_halt()

    def _op_continue(self, args: dict) -> None:
        with self._lock:
            self._end_halt()

    def _op_step(self, args: dict) -> dict:
        """Let the trapped thread run exactly one more line (§5.5)."""
        if not self.halted or self._trapped_ident is None:
            raise AgentError("no thread is stopped at a trap")
        self._step_done.clear()
        with self._cond:
            self._step_budget = 1
            self._cond.notify_all()  # only the trapped thread may leave
        if not self._step_done.wait(timeout=5.0):
            raise AgentError("step did not complete")
        return dict(self.trapped or {})

    def _visible_frames(self, ident: int) -> list:
        """The thread's frames minus the agent's own machinery, innermost
        first — the live analog of 'highest well-formed frame' (§5.5)."""
        frame = sys._current_frames().get(ident)
        frames = []
        hidden = (__file__, threading.__file__)
        while frame is not None:
            if frame.f_code.co_filename not in hidden:
                frames.append(frame)
            frame = frame.f_back
        return frames

    def _op_backtrace(self, args: dict) -> list:
        ident = int(args["thread"])
        if sys._current_frames().get(ident) is None:
            raise AgentError(f"no such thread {ident}")
        frames = []
        for frame in self._visible_frames(ident):
            frames.append(
                {
                    "func": frame.f_code.co_name,
                    "file": frame.f_code.co_filename,
                    "line": frame.f_lineno,
                    "locals": {
                        k: repr(v)
                        for k, v in frame.f_locals.items()
                        if not k.startswith("__")
                    },
                }
            )
        return frames

    def _op_read_var(self, args: dict):
        ident = int(args["thread"])
        depth = int(args.get("frame", 0))
        frames = self._visible_frames(ident)
        if not (0 <= depth < len(frames)):
            raise AgentError("no such frame")
        frame = frames[depth]
        name = args["name"]
        if name not in frame.f_locals:
            raise AgentError(f"no variable {name!r}")
        value = frame.f_locals[name]
        if isinstance(value, (int, float, str, bool)) or value is None:
            return value
        return repr(value)

    def _op_status(self, args: dict) -> dict:
        debugger, logical = self.get_debuggee_status()
        return {
            "debugger": debugger,
            "logical_time": logical,
            "real_time": time.time(),
            "delta": self.delta + self._pending_halt_time(),
            "halted": self.halted,
        }


class _AgentServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    agent: "LiveAgent"


class _RequestHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        closing = False
        while not closing:
            try:
                request = recv_message(self.rfile)
            except ServiceError as exc:
                response = {"ok": False, "error": str(exc)}
                # Answered once; the rest of an overlong line cannot be skipped.
                closing = isinstance(exc, FrameTooLong)
            except OSError:
                return
            else:
                if request is None:
                    return
                response = self.server.agent.handle_request(request)
            try:
                send_message(self.wfile, response)
            except OSError:
                return
