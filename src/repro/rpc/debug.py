"""RPC debugging artifacts: info blocks, call tables, the recent-call buffer.

These are the data structures paper §4.3 adds to the Mayflower RPC
implementation so the debugger can report on in-progress and recently
completed calls:

* **info blocks** — "an extra variable ... in a known position in the stack
  frame ... points to an information block containing the process
  identifier, the remote procedure name, the call identifier, and an
  enumeration giving the current state of the protocol";
* **call tables** — client side associates call identifiers with the client
  process issuing the call; server side associates the server process
  handling the call with the call identifier;
* **recent-call buffer** — "a ten-slot cyclic buffer describing the outcome
  of ten most recent RPCs.  The only information maintained is the call
  identifier and whether the call failed or succeeded."
"""

from __future__ import annotations

from typing import Any, Optional

# Protocol states for the info-block enumeration.
STATE_MARSHALLING = "marshalling"
STATE_CALL_SENT = "call_sent"
STATE_RETRANSMITTING = "retransmitting"
STATE_REPLY_RECEIVED = "reply_received"
STATE_COMPLETED = "completed"
STATE_FAILED = "failed"
STATE_SERVING = "serving"


def make_info_block(
    pid: int, remote_proc: str, call_id: int, protocol: str
) -> dict:
    """The info block placed in the RPC runtime stack frame."""
    return {
        "pid": pid,
        "remote_proc": remote_proc,
        "call_id": call_id,
        "protocol": protocol,
        "state": STATE_MARSHALLING,
        "retries": 0,
    }


class ClientCallRecord:
    """Client-side call-table entry for one in-progress call."""

    def __init__(
        self,
        call_id: int,
        process,
        service: str,
        proc: str,
        protocol: str,
        info_block: dict,
        started_at: int,
    ):
        self.call_id = call_id
        self.process = process
        self.service = service
        self.proc = proc
        self.protocol = protocol
        self.info_block = info_block
        self.started_at = started_at
        self.retransmit_timer = None
        self.completed = False
        self.outcome: Optional[str] = None  # 'ok' | failure reason

    def describe(self) -> dict:
        return {
            "call_id": self.call_id,
            "client_pid": self.process.pid if self.process else None,
            "service": self.service,
            "proc": self.proc,
            "protocol": self.protocol,
            "state": self.info_block["state"],
            "retries": self.info_block["retries"],
            "started_at": self.started_at,
        }


class ServerCallRecord:
    """Server-side call-table entry."""

    def __init__(
        self,
        call_id: int,
        client_node: int,
        client_pid: int,
        service: str,
        proc: str,
        protocol: str,
        received_at: int,
    ):
        self.call_id = call_id
        self.client_node = client_node
        self.client_pid = client_pid
        self.service = service
        self.proc = proc
        self.protocol = protocol
        self.received_at = received_at
        #: Pid of the server process handling the call (not the process:
        #: the record outlives it in the at-most-once reply cache).
        self.worker_pid: Optional[int] = None
        self.reply_wire: Optional[Any] = None  # cached for dedup resend
        self.completed = False
        self.outcome: Optional[str] = None
        #: True when served by the halt-exempt dispatcher (agent services).
        self.exempt = False

    def describe(self) -> dict:
        return {
            "call_id": self.call_id,
            "client_node": self.client_node,
            "client_pid": self.client_pid,
            "service": self.service,
            "proc": self.proc,
            "protocol": self.protocol,
            "worker_pid": self.worker_pid,
            "completed": self.completed,
            "outcome": self.outcome,
        }


class RecentCallBuffer:
    """The ten-slot cyclic buffer of recent RPC outcomes (paper §4.3)."""

    def __init__(self, slots: int = 10):
        self.slots = slots
        self._entries: list[tuple[int, bool]] = []

    def record(self, call_id: int, succeeded: bool) -> None:
        self._entries.append((call_id, succeeded))
        if len(self._entries) > self.slots:
            self._entries.pop(0)

    def entries(self) -> list[tuple[int, bool]]:
        """Oldest first; at most ``slots`` entries."""
        return list(self._entries)

    def lookup(self, call_id: int) -> Optional[bool]:
        for entry_id, succeeded in reversed(self._entries):
            if entry_id == call_id:
                return succeeded
        return None

    def __len__(self) -> int:
        return len(self._entries)
