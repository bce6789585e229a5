"""Pilgrim, the debugger proper (paper §3).

The debugger runs on its own node of the cluster and talks to the agents
over the ring — every logical request is one network round trip.  The
user interface, type knowledge, and the source-to-object mapping all live
here, not in the agents ("all activities involving the user interface,
type-checking, and access to the source-to-object mapping information
produced by the compiler and linker are performed in the debugger
proper").

The Python API is synchronous: each call transmits the request and drives
the simulation until the response (or an agent event) arrives, which is
exactly how an interactive debugging session consumes time in the target
environment.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Optional, Union

from repro.agent import requests as rq
from repro.cvm.image import Program
from repro.debugger.api import (
    Breakpoint,
    Frame,
    NodeRef,
    Op,
    ProcessInfo,
    SessionBase,
    SessionStatus,
    install_ops,
)
from repro.debugger.errors import (
    AgentError,
    DebuggerError,
    UnreachableNodeError,
)
from repro.debugger.timelog import BreakpointLog
from repro.rpc.marshal import MarshalError, marshal, unmarshal
from repro.sim.units import SEC

if TYPE_CHECKING:
    from repro.cluster import Cluster

#: RPC service exported by the debugger for shared servers (paper §6.1).
PILGRIM_TIME_SERVICE = "_pilgrim"

__all__ = [
    "PILGRIM_TIME_SERVICE",
    "AgentError",
    "Breakpoint",
    "DebuggerError",
    "Pilgrim",
    "UnreachableNodeError",
]


def _decode(value: Any) -> Any:
    """Unmarshal a sanitized agent value; opaque values become strings."""
    if isinstance(value, tuple) and len(value) == 2 and value[0] == "opaque":
        return value[1]
    try:
        return unmarshal(value)
    except MarshalError:
        return value


class Pilgrim(SessionBase):
    """A debugging session driver.

    The live groups (``control``, ``inspect``, ``rpc``, ``record``) are
    implemented here, one agent round trip per request; the trace groups
    (``cursor``, ``contracts``, ``branches``) belong to the
    :class:`~repro.replay.session.TraceSession` that ``load_trace`` /
    ``stop_recording`` attach, and are forwarded to it.
    """

    def __init__(self, cluster: "Cluster", home: Union[int, str] = "debugger"):
        self.cluster = cluster
        self.world = cluster.world
        self.home = cluster.node(home)
        #: Session ids are unique but guessable (a counter), as in the
        #: paper.  Per-instance, so runs are deterministic regardless of
        #: how many debuggers the process has created before.
        self._session_counter = itertools.count(1)
        self.session_id = 0
        self.connected_nodes: list[int] = []
        #: Reachability verdict per node address: ``up`` after any reply
        #: (including agent errors — a rejection proves liveness),
        #: ``suspect`` after a timed-out attempt, ``down`` once retries
        #: are exhausted.
        self.reachability: dict[int, str] = {}
        #: Boot epoch each agent reported at connect/reattach time; a
        #: changed epoch means the node rebooted behind our back.
        self.node_epochs: dict[int, int] = {}
        self.breakpoints: dict[tuple, Breakpoint] = {}
        self.events: list[dict] = []
        #: Interruption intervals, fed from the obs bus: the trap /
        #: timer-freeze at the halting node opens an interval, the thaw /
        #: resume closes it, so the totals line up with the nodes'
        #: logical-clock deltas (paper §6.1).
        self.log = BreakpointLog()
        self.log.attach(self.world.bus)
        self._responses: dict[int, dict] = {}
        self._seq = itertools.count(1)
        #: Record/replay state (see repro.replay): the writer while a
        #: recording is live, the sealed trace and the post-mortem
        #: session over it once one is loaded.
        self._trace_writer = None
        self.trace = None
        self.trace_session = None
        #: True while an API call is driving the simulation; arrival of a
        #: response/event then stops the run immediately so virtual time
        #: does not overshoot.
        self._awaiting = False
        self.home.station.register_port(rq.DEBUGGER_PORT, self._on_packet)
        # convert_debuggee_time, callable by servers over RPC (paper §6.1).
        self.home.rpc.export_native(
            PILGRIM_TIME_SERVICE,
            {"convert_debuggee_time": lambda ctx, date: self.convert_debuggee_time(date)},
            register=False,
        )

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _on_packet(self, packet) -> None:
        payload = packet.payload
        kind = payload.get("kind") if type(payload) is dict else None
        if kind == "response" and type(payload.get("seq")) is int:
            self._responses[payload["seq"]] = payload
        elif kind == "event" and payload.keys() >= {"event", "node", "data"}:
            self.events.append(payload)
        else:
            return  # neither a response nor an event envelope: dropped
        if self._awaiting:
            self.world.stop()

    def _request(
        self,
        node: Union[int, str],
        op: str,
        args: Optional[dict] = None,
        timeout: Optional[int] = None,
    ) -> Any:
        """One logical request, with bounded retry and backoff.

        Each attempt re-sends the same sequence number, so a reply to an
        earlier attempt still satisfies a later wait.  A timed-out
        attempt marks the node ``suspect``; exhausting the retries marks
        it ``down`` and raises :class:`UnreachableNodeError` carrying the
        attempt history.  An :class:`AgentError` proves the node is up
        and is never retried.
        """
        if node is None:  # only single-target backends have an implicit node
            raise DebuggerError(
                f"{op} needs a node (one of {', '.join(self.cluster.names)})")
        target = self.cluster.node(node)
        address = target.node_id
        params = self.home.params
        attempt_timeout = (
            timeout if timeout is not None else params.debugger_attempt_timeout
        )
        seq = next(self._seq)
        payload = {
            "kind": "request",
            "session": self.session_id,
            "seq": seq,
            "op": op,
            "args": args or {},
            "reply_to": self.home.node_id,
        }
        attempts: list[dict] = []
        backoff = params.debugger_retry_backoff
        max_attempts = params.debugger_max_retries + 1
        for attempt in range(max_attempts):
            sent_at = self.world.now
            self.home.station.send(
                address, rq.AGENT_PORT, payload, kind="agent_request"
            )
            try:
                data = self._await_response(seq, attempt_timeout)
            except AgentError:
                self.reachability[address] = "up"
                raise
            except DebuggerError as exc:
                attempts.append({
                    "attempt": attempt,
                    "sent_at": sent_at,
                    "timeout": attempt_timeout,
                    "error": str(exc),
                    "backoff": backoff,
                })
                self.reachability[address] = "suspect"
                if attempt + 1 < max_attempts:
                    self.world.run(until=self.world.now + backoff)
                    backoff *= 2
                continue
            self.reachability[address] = "up"
            return data
        self.reachability[address] = "down"
        raise UnreachableNodeError(
            f"node {target.name!r} (address {address}) unreachable: "
            f"{op} got no reply in {max_attempts} attempts",
            node=target.name,
            address=address,
            state="down",
            attempts=attempts,
        )

    def _await_response(self, seq: int, timeout: int) -> Any:
        deadline = self.world.now + timeout
        self._awaiting = True
        try:
            while seq not in self._responses:
                if self.world.now >= deadline:
                    raise DebuggerError(f"agent request {seq} timed out")
                if self.world.run(until=deadline) == 0:
                    if seq not in self._responses:
                        raise DebuggerError(
                            f"agent request {seq}: simulation went idle with no reply"
                        )
        finally:
            self._awaiting = False
        response = self._responses.pop(seq)
        if not response.get("ok"):
            raise AgentError(response.get("error", "agent request failed"))
        return response.get("data")

    # ------------------------------------------------------------------
    # Session management (paper §3)
    # ------------------------------------------------------------------

    def connect(self, *nodes: Union[int, str], force: bool = False) -> dict:
        """Open a session with the agents on ``nodes``.

        The session identifier is unique but guessable (a counter), as in
        the paper.  ``force`` performs a forcible connect, abandoning any
        existing session on the agents.
        """
        if not nodes:
            raise DebuggerError("connect() needs at least one node")
        self.session_id = next(self._session_counter)
        addresses = [self.cluster.node(n).node_id for n in nodes]
        infos = {address: self._adopt(address, force) for address in addresses}
        self.connected_nodes = addresses
        for address in addresses:
            self._request(address, rq.SET_PEERS, {"nodes": addresses})
        return infos

    def _adopt(self, address: int, force: bool) -> dict:
        """CONNECT one node under the current session id; note its boot epoch."""
        info = self._request(
            address,
            rq.CONNECT,
            {
                "session": self.session_id,
                "debugger": self.home.node_id,
                "force": force,
            },
        )
        self.node_epochs[address] = info.get("epoch", 0)
        return info

    def reattach(self, node: Union[int, str]) -> dict:
        """Re-adopt a node into the running session after a reboot.

        A rebooted node comes back with a fresh dormant agent that knows
        nothing of the session, so its old session id is stale and every
        request is rejected.  ``reattach`` re-CONNECTs it under the
        *existing* session id (forcibly, in case a pre-reboot agent state
        survived), records the new boot epoch, and re-sends the peer set
        so halt broadcasts reach it again.
        """
        address = self.cluster.node(node).node_id
        info = self._adopt(address, force=True)
        if address not in self.connected_nodes:
            self.connected_nodes.append(address)
        for peer in self.connected_nodes:
            if self.reachability.get(peer) != "down":
                self._request(
                    peer, rq.SET_PEERS, {"nodes": self.connected_nodes}
                )
        return info

    def disconnect(self) -> None:
        """End the session on every node; the program keeps running."""
        for address in list(self.connected_nodes):
            try:
                self._request(address, rq.DISCONNECT)
            except DebuggerError:
                pass
        self.connected_nodes = []
        self.breakpoints.clear()

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------

    def wait_for_event(
        self, event: Optional[str] = None, timeout: Optional[int] = None
    ) -> dict:
        """Drive the simulation until an agent event arrives (default 10 s)."""
        deadline = self.world.now + (10 * SEC if timeout is None else timeout)
        self._awaiting = True
        try:
            while True:
                for i, pending in enumerate(self.events):
                    if event is None or pending["event"] == event:
                        return self.events.pop(i)
                if self.world.now >= deadline:
                    raise DebuggerError(
                        f"no {event or 'agent'} event before deadline"
                    )
                if self.world.run(until=deadline) == 0:
                    raise DebuggerError(
                        f"simulation idle: no {event or 'agent'} event will arrive"
                    )
        finally:
            self._awaiting = False

    def run_for(self, duration: int) -> None:
        """Let the target program execute for a while."""
        self.world.run_for(duration)

    # ------------------------------------------------------------------
    # Source-level breakpoints (paper §5.5 mechanics, §3 source mapping)
    # ------------------------------------------------------------------

    def _program(self, module: str) -> Program:
        program = self.cluster.programs.get(module)
        if program is None:
            raise DebuggerError(f"no compiled program for module {module!r}")
        return program

    def resolve_line(self, module: str, line: int) -> tuple[str, int]:
        """Source line -> (procedure, pc), via the compiler's line tables."""
        program = self._program(module)
        for func in program.functions.values():
            pc = func.first_pc_for_line(line)
            if pc is not None:
                return func.name, pc
        raise DebuggerError(f"no code generated for {module}:{line}")

    def set_breakpoint(
        self,
        node: Union[int, str],
        module: str,
        line: Optional[int] = None,
        func: Optional[str] = None,
        pc: Optional[int] = None,
    ) -> Breakpoint:
        """Set a breakpoint by source line, or by procedure entry, or at an
        explicit (func, pc) address."""
        if line is not None:
            func, pc = self.resolve_line(module, line)
        elif func is not None and pc is None:
            pc = 0
        if func is None or pc is None:
            raise DebuggerError("set_breakpoint needs a line, a func, or func+pc")
        data = self._request(
            node, rq.SET_BREAKPOINT, {"module": module, "func": func, "pc": pc}
        )
        program = self._program(module)
        bp_line = line if line is not None else program.functions[func].line_for_pc(pc)
        bp = Breakpoint(self.cluster.node(node).node_id, module, func, pc, bp_line)
        self.breakpoints[bp.key()] = bp
        return bp

    def clear_breakpoint(self, bp: Breakpoint) -> None:
        """Remove a breakpoint previously set on its node."""
        self._request(
            bp.node,
            rq.CLEAR_BREAKPOINT,
            {"module": bp.module, "func": bp.func, "pc": bp.pc},
        )
        self.breakpoints.pop(bp.key(), None)

    def wait_for_breakpoint(self, timeout: Optional[int] = None) -> dict:
        """Drive the simulation until some breakpoint is hit."""
        event = self.wait_for_event(rq.EVENT_BREAKPOINT, timeout)
        return {"node": event["node"], **event["data"]}

    def wait_for_failure(self, timeout: Optional[int] = None) -> dict:
        """Drive the simulation until a process failure is reported."""
        event = self.wait_for_event(rq.EVENT_FAILURE, timeout)
        return {"node": event["node"], **event["data"]}

    def step(self, node: NodeRef = None, pid: Optional[int] = None) -> dict:
        """Step a trapped process one instruction (trace mode)."""
        return self._request(node, rq.STEP, {"pid": pid})

    def resume(self, node: NodeRef = None) -> dict:
        """Continue from a breakpoint: the given node's agent steps its
        trapped processes over their traps and resumes the program,
        broadcasting resume to its peers."""
        return self._request(node, rq.CONTINUE, {})

    def halt(self, node: NodeRef = None) -> dict:
        """Halt the whole program, starting at ``node``."""
        return self._request(node, rq.HALT, {})

    def halt_all(self) -> dict:
        """Halt the program via whichever connected node answers first.

        The halting agent broadcasts to its peers with NACK-driven
        retransmission, so one reachable node suffices; dead nodes are
        skipped instead of wedging the operation.
        """
        attempts: list[dict] = []
        for address in list(self.connected_nodes):
            try:
                return self._request(address, rq.HALT, {})
            except UnreachableNodeError as exc:
                attempts.extend(exc.attempts)
        raise UnreachableNodeError(
            "halt_all: no connected node is reachable",
            state="down",
            attempts=attempts,
        )

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def processes(self, node: Union[int, str, None] = None) -> list[ProcessInfo]:
        """The process table of one node."""
        return [
            ProcessInfo.from_dict(info)
            for info in self._request(node, rq.LIST_PROCESSES)
        ]

    def all_processes(self) -> dict:
        """Process tables of every connected node, degrading gracefully.

        Unreachable nodes do not abort the survey: their addresses land
        in the ``unreachable`` list (with the failure detail) and the
        ``nodes`` mapping holds whatever the live nodes reported.
        """
        tables: dict[int, list] = {}
        unreachable: list[dict] = []
        for address in list(self.connected_nodes):
            try:
                tables[address] = self.processes(address)
            except UnreachableNodeError as exc:
                unreachable.append({
                    "node": exc.node,
                    "address": address,
                    "error": str(exc),
                })
        return {"nodes": tables, "unreachable": unreachable}

    def process_state(self, node: Union[int, str, None] = None,
                      pid: Optional[int] = None) -> ProcessInfo:
        """Registers and scheduler state of one process."""
        info = self._request(node, rq.PROCESS_STATE, {"pid": pid})
        if info.get("trapped_at") is not None:
            info["trapped_at"] = tuple(info["trapped_at"])
        return ProcessInfo.from_dict(info)

    def _frame(self, raw: dict, node: int, pid: Optional[int]) -> Frame:
        """Typed frame from an agent snapshot, locals decoded."""
        data = dict(raw)
        data["locals"] = {
            name: _decode(value)
            for name, value in raw.get("locals", {}).items()
        }
        data.setdefault("node", node)
        data.setdefault("pid", pid)
        return Frame.from_dict(data)

    def backtrace(self, node: Union[int, str, None] = None,
                  pid: Optional[int] = None) -> list[Frame]:
        """Stack frames of one process, locals decoded."""
        address = self.cluster.node(node).node_id
        frames = self._request(node, rq.BACKTRACE, {"pid": pid})
        return [self._frame(raw, address, pid) for raw in frames]

    def distributed_backtrace(
        self, node: Union[int, str], pid: int, max_hops: int = 8
    ) -> list[Frame]:
        """A stack backtrace that crosses node boundaries (paper §4.1).

        Client frames end at the RPC runtime frame whose info block names
        the in-progress call; the registry locates the server, whose agent
        reports the worker process handling that call id, and the walk
        continues there.
        """
        result: list[Frame] = []
        current_node = self.cluster.node(node).node_id
        current_pid = pid
        visited = set()
        in_progress_states = (
            "marshalling", "call_sent", "retransmitting", "reply_received",
        )
        for hop in range(max_hops):
            if (current_node, current_pid) in visited:
                break
            visited.add((current_node, current_pid))
            try:
                frames = self.backtrace(current_node, current_pid)
            except UnreachableNodeError as exc:
                if hop == 0:
                    raise  # the starting node itself is gone: a real failure
                # Partial result: the walk reached a dead/partitioned
                # node.  Mark where it stopped instead of losing the
                # frames already gathered.
                result.append(Frame(
                    synthetic=True, node=current_node, pid=current_pid,
                    unreachable=True, error=str(exc),
                ))
                break
            result.extend(frames)
            # An in-progress *outgoing* call appears as the top synthetic
            # frame (paper Figure 1); follow it to the server.  The
            # server-side bottom frame (state 'serving') links backwards,
            # not forwards, and is not followed.
            info = None
            for frame in frames:
                if frame.synthetic and frame.info_block:
                    block = frame.info_block
                    if block.get("state") in in_progress_states:
                        info = block
                        break
            if info is None:
                break
            service = str(info["remote_proc"]).split(".")[0]
            server_addr = self.cluster.registry.lookup(service)
            if server_addr is None or server_addr not in self.connected_nodes:
                break
            try:
                record = self.rpc_server_record(server_addr, info["call_id"])
            except UnreachableNodeError as exc:
                result.append(Frame(
                    synthetic=True, node=server_addr, pid=None,
                    unreachable=True, error=str(exc),
                ))
                break
            if record is None or record.get("worker_pid") is None:
                break
            current_node = server_addr
            current_pid = record["worker_pid"]
        return result

    def read_var(self, node, pid: int, name: str, frame: int = 0) -> Any:
        """Read a local variable in some frame of a trapped process."""
        return _decode(
            self._request(
                node, rq.READ_VAR, {"pid": pid, "frame": frame, "name": name}
            )
        )

    def write_var(self, node, pid: int, name: str, value: Any, frame: int = 0) -> None:
        """Write a local variable in some frame of a trapped process."""
        self._request(
            node,
            rq.WRITE_VAR,
            {"pid": pid, "frame": frame, "name": name, "value": marshal(value)},
        )

    def read_global(self, node, module: str, name: str) -> Any:
        """Read a module-level variable on a node."""
        return _decode(
            self._request(node, rq.READ_GLOBAL, {"module": module, "name": name})
        )

    def write_global(self, node, module: str, name: str, value: Any) -> None:
        """Write a module-level variable on a node."""
        self._request(
            node,
            rq.WRITE_GLOBAL,
            {"module": module, "name": name, "value": marshal(value)},
        )

    def display(self, node, pid: int, name: str, frame: int = 0) -> str:
        """Render a variable with its type's print operation, which runs in
        the user program with output redirected to the debugger (paper §3)."""
        data = self._request(
            node, rq.DISPLAY, {"pid": pid, "frame": frame, "name": name}
        )
        return data["text"]

    def invoke(self, node, module: str, func: str, args: Optional[list] = None):
        """Invoke a procedure in the user program; returns (result, output)."""
        data = self._request(
            node,
            rq.INVOKE,
            {"module": module, "func": func,
             "args": [marshal(a) for a in (args or [])]},
        )
        return _decode(data["result"]), data["output"]

    def wake_process(self, node, pid: int, value: Any = False) -> bool:
        """Transfer a process out of its wait state (paper §5.4)."""
        data = self._request(node, rq.WAKE_PROCESS, {"pid": pid, "value": value})
        return data["woken"]

    # ------------------------------------------------------------------
    # RPC debugging (paper §4)
    # ------------------------------------------------------------------

    def rpc_info(self, node) -> dict:
        """The node's RPC call tables and recent outcomes (paper §4.3)."""
        return self._request(node, rq.RPC_INFO)

    def rpc_server_record(self, node, call_id: int) -> Optional[dict]:
        """The server-side record of one call, if the server saw it."""
        return self._request(node, rq.RPC_SERVER_RECORD, {"call_id": call_id})

    def diagnose_maybe_failure(self, client_node, call_id: int) -> str:
        """Why did a maybe call fail — call packet lost, or reply lost?

        (Paper §4.1: "The failure of a call performed with the maybe RPC
        protocol could be due to either the call or reply packet being
        lost.  The debugger ought to allow the programmer to find out
        which is the case.")
        """
        info = self.rpc_info(client_node)
        for record in info["in_progress"]:
            if record["call_id"] == call_id:
                return "call still in progress"
        if any(cid == call_id and ok for cid, ok in info["recent"]):
            return "call succeeded"
        # Locate the server via the client-side call history.
        service = None
        client_history = self._request(
            client_node, "rpc_client_history", {}
        )
        for record in client_history:
            if record["call_id"] == call_id:
                service = record["service"]
                break
        if service is None:
            return "call unknown at the client"
        server_addr = self.cluster.registry.lookup(service)
        if server_addr is None:
            return f"service {service!r} is not registered (bad binding)"
        record = self.rpc_server_record(server_addr, call_id)
        if record is None:
            return "call packet lost (the server never received the call)"
        if record["completed"]:
            return "reply packet lost (the server executed the call and replied)"
        return "server still executing the call"

    # ------------------------------------------------------------------
    # Session status (the sim half of the unified DebuggerSession API)
    # ------------------------------------------------------------------

    def status(self) -> SessionStatus:
        """A local summary of the session — no network round trips."""
        return SessionStatus(
            mode="sim",
            session=self.session_id,
            connected=list(self.connected_nodes),
            breakpoints=len(self.breakpoints),
            time=self.world.now,
            recording=self._trace_writer is not None,
            trace_loaded=self.trace_session is not None,
            extra={
                "reachability": dict(self.reachability),
                "epochs": dict(self.node_epochs),
            },
        )

    def clocks(self) -> list[dict]:
        """Per-connected-node clock readings (real, logical, delta)."""
        rows = []
        for address in self.connected_nodes:
            node = self.cluster.node(address)
            rows.append({
                "address": address,
                "name": node.name,
                "real": node.clock.real_now(),
                "logical": node.clock.logical_now(),
                "delta": node.clock.current_delta(),
            })
        return rows

    # ------------------------------------------------------------------
    # Record / replay and time travel (see repro.replay)
    # ------------------------------------------------------------------

    def start_recording(
        self,
        plan=None,
        checkpoint_every: Optional[int] = None,
        meta: Optional[dict] = None,
    ):
        """Attach a trace writer to the cluster's bus.

        Everything from here on — packets, RPC calls, process lifecycle,
        halts, faults — lands in the trace.  Interactive recordings are
        time-travelable but not re-executable (the debugger's own
        request timing is not in the trace); use
        :func:`repro.replay.record_run` for replayable recordings.
        """
        from repro.replay.trace import TraceWriter
        if self._trace_writer is not None:
            raise DebuggerError("already recording")
        self._trace_writer = TraceWriter(
            self.cluster, plan=plan, checkpoint_every=checkpoint_every,
            meta=meta,
        )
        return self._trace_writer

    def stop_recording(self):
        """Seal the trace, load it for time travel, and return it."""
        if self._trace_writer is None:
            raise DebuggerError("not recording (call start_recording first)")
        trace = self._trace_writer.finish(drive={"mode": "manual"})
        self._trace_writer = None
        self.load_trace(trace)
        return trace

    def load_trace(self, trace) -> None:
        """Attach a trace (object or path) for the trace-side operations.

        Time travel, contract checks and branching then run on a
        :class:`~repro.replay.session.TraceSession` over it.
        """
        from repro.replay.session import TraceSession
        self.trace_session = TraceSession(trace)
        self.trace = self.trace_session.trace

    # ------------------------------------------------------------------
    # Time conversion for shared servers (paper §6.1)
    # ------------------------------------------------------------------

    def convert_debuggee_time(self, date: int) -> int:
        """Map a real timestamp to the debuggee's logical clock (paper §6.1)."""
        return self.log.convert(date, self.world.now)

    def total_interruption(self) -> int:
        """Total virtual time the debugger has held the program halted."""
        return self.log.total_interruption(self.world.now)

    def __repr__(self) -> str:
        return (
            f"<Pilgrim session={self.session_id} nodes={self.connected_nodes} "
            f"breakpoints={len(self.breakpoints)}>"
        )


def _trace_forward(op: Op):
    def method(self, *args, **kwargs):
        if self.trace_session is None:
            raise DebuggerError(
                "no trace loaded (record with start_recording/stop_recording "
                "or attach one with load_trace)"
            )
        return getattr(self.trace_session, op.name)(*args, **kwargs)
    return method


install_ops(Pilgrim, _trace_forward, groups=("cursor", "contracts", "branches"))
