"""The live debugger: the out-of-process half of :mod:`repro.live`.

Talks to a :class:`~repro.live.agent.LiveAgent` over TCP (newline-framed
JSON), giving the paper's debugger API against real Python threads.
Responses are surfaced through the typed records of
:mod:`repro.debugger.api` (threads as :class:`ProcessInfo`, stack
snapshots as :class:`Frame`, ``status`` as :class:`SessionStatus`), so
scripts written against the unified :class:`DebuggerSession` protocol
run against this backend unchanged.
"""

from __future__ import annotations

import itertools
import socket
import time
from typing import Any, Optional

from repro.debugger.api import Frame, ProcessInfo, SessionBase, SessionStatus
from repro.debugger.errors import DebuggerError, ServiceError, register_error
from repro.service.protocol import recv_message, send_message

_sessions = itertools.count(1)


@register_error
class LiveDebuggerError(DebuggerError):
    """A live-agent request failed (connection, protocol, or rejection)."""

    code = "live_error"


def _thread_info(entry: dict) -> ProcessInfo:
    """Typed view of one agent thread row (``ident``/``name``/``alive``)."""
    return ProcessInfo(
        pid=entry["ident"],
        name=entry["name"],
        state="running" if entry.get("alive", True) else "dead",
    )


class LiveDebugger(SessionBase):
    """A synchronous client for a live agent.

    Offers the core control/inspect operations; everything that needs a
    simulated world or a recorded trace is the inherited typed refusal.
    """

    refusal = ("a live target (real threads, no simulated world or "
               "recorded trace); record a sim run and open it as a trace "
               "session instead")

    def __init__(self, address: tuple[str, int], timeout: float = 10.0):
        self.address = tuple(address)
        self.session_id: Optional[int] = None
        self._sock = socket.create_connection(self.address, timeout=timeout)
        self._file = self._sock.makefile("rwb")

    # ------------------------------------------------------------------

    def _request(self, op: str, args: Optional[dict] = None) -> Any:
        send_message(self._file, {"op": op, "args": args or {}, "session": self.session_id})
        try:
            response = recv_message(self._file)
        except ServiceError as exc:
            raise LiveDebuggerError(f"undecodable reply from the agent: {exc}") from None
        if response is None:
            raise LiveDebuggerError("agent closed the connection")
        if not response.get("ok"):
            raise LiveDebuggerError(response.get("error", "request failed"))
        return response.get("data")

    # ------------------------------------------------------------------

    def connect(self, force: bool = False) -> list[ProcessInfo]:
        """Open a session; refused if one is active unless ``force``."""
        session = next(_sessions)
        data = self._request(
            "connect",
            {"session": session, "force": force,
             "debugger": f"{self.address[0]}:{self.address[1]}"},
        )
        self.session_id = session
        return [_thread_info(t) for t in data["threads"]]

    def disconnect(self) -> None:
        """End the session; the program continues."""
        if self.session_id is not None:
            self._request("disconnect")
            self.session_id = None

    def close(self) -> None:
        """Drop the TCP connection (the session, if any, stays)."""
        try:
            self._file.close()
            self._sock.close()
        except OSError:
            pass

    # ------------------------------------------------------------------

    def processes(self, node=None) -> list[ProcessInfo]:
        """List the debuggee's threads (``node`` ignored: one target)."""
        return [_thread_info(t) for t in self._request("list_threads")]

    def set_breakpoint(self, file_suffix: str, line: int):
        """Plant a breakpoint at ``(file suffix, line)``."""
        self._request("set_breakpoint", {"file": file_suffix, "line": line})

    def clear_breakpoint(self, file_suffix: str, line: int) -> None:
        """Remove a breakpoint previously set at ``(file suffix, line)``."""
        self._request("clear_breakpoint", {"file": file_suffix, "line": line})

    def wait_for_breakpoint(self, timeout: Optional[float] = None) -> dict:
        """Poll the agent until a breakpoint event arrives (default 10 s).

        Monotonic deadline: a wall-clock step mustn't stretch or cut the
        timeout; the short sleep keeps the poll from spinning the CPU.
        """
        deadline = time.monotonic() + (10.0 if timeout is None else timeout)
        while time.monotonic() < deadline:
            for event in self._request("poll_events"):
                if event.get("event") == "breakpoint":
                    return event
            time.sleep(0.02)
        raise LiveDebuggerError("no breakpoint before the deadline")

    def halt(self, node=None) -> None:
        """Freeze every debuggee thread (``node`` ignored: one target)."""
        self._request("halt")

    def resume(self, node=None) -> None:
        """Thaw the debuggee (``node`` ignored: one target)."""
        self._request("continue")

    def step(self, node=None, pid: Optional[int] = None) -> dict:
        """Single-step the trapped thread."""
        return self._request("step")

    def backtrace(self, thread: Optional[int] = None,
                  pid: Optional[int] = None) -> list[Frame]:
        """Stack frames of one thread, innermost first."""
        ident = thread if thread is not None else pid
        frames = self._request("backtrace", {"thread": ident})
        return [
            Frame(
                module=raw["file"], proc=raw["func"], line=raw["line"],
                locals=raw.get("locals", {}), pid=ident,
            )
            for raw in frames
        ]

    def read_var(self, thread: Optional[int] = None, name: str = "",
                 frame: int = 0) -> Any:
        """Read a variable in some frame of a thread."""
        return self._request(
            "read_var", {"thread": thread, "name": name, "frame": frame}
        )

    def status(self) -> SessionStatus:
        """The live get_debuggee_status (§6.1) plus halt state."""
        data = self._request("status")
        return SessionStatus(
            mode="live",
            session=self.session_id,
            halted=data["halted"],
            extra={
                "debugger": data["debugger"],
                "logical_time": data["logical_time"],
                "real_time": data["real_time"],
                "delta": data["delta"],
            },
        )
