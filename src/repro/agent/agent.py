"""The Pilgrim agent (paper §3, §5).

Every node of a user program has an agent linked into it.  It stays
dormant — imposing no overhead — until a debugger connects.  The agent is
the node-resident half of Pilgrim and provides exactly the functions the
paper assigns to it:

* memory access (read/write variables and globals),
* the three breakpoint primitives: set at an address, clear, and step a
  process over a breakpoint it has encountered,
* procedure invocation in the user program with output redirection (the
  mechanism behind print-operation display),
* process state queries via the supervisor primitive (paper §5.4),
* session management: a unique-but-guessable session id, no timeouts when
  talking to the debugger, and forcible connection by a second debugger
  which abandons the original session and clears all breakpoints,
* distributed halting: on a trap/failure it halts its node immediately
  (processes, logical clock, RPC timers) and tells peer agents to halt via
  serial NACK-retransmitted ring messages (paper §5.2),
* ``get_debuggee_status`` exported as a halt-exempt RPC service for shared
  servers (paper §6.1).

Each logical debugger request is one network interaction, answered with
one envelope written in ``_handle``: ``{"ok": True, "data": ...}`` with
what the ``_op_*`` method returned, ``{"ok": False, "error": reason}``
when it refused by raising :class:`~repro.debugger.errors.AgentError`
(``no process 7``), or ``{"ok": False, "error": "agent error: ..."}``
when it failed unexpectedly (the agent itself survives).
"""

from __future__ import annotations

from types import GeneratorType
from typing import TYPE_CHECKING, Any, Optional

from repro.agent import requests as rq
from repro.cvm import instructions as ops
from repro.cvm.image import NodeImage
from repro.cvm.instructions import Instr
from repro.cvm.interp import BreakpointWait, VmExecutor
from repro.cvm.values import (CluRecord, CluRuntimeError, default_print, printed_text,
                              printop_for)
from repro.debugger.errors import AgentError
from repro.mayflower.process import Process, ProcessState
from repro.mayflower.syscalls import Cpu, Wait, receive
from repro.obs import events as obs_ev
from repro.rpc.marshal import MarshalError, marshal, unmarshal

if TYPE_CHECKING:
    from repro.mayflower.node import Node


def sanitize(value: Any) -> Any:
    """Make a value wire-safe for a debugger response."""
    try:
        return marshal(value)
    except MarshalError:
        return ("opaque", str(value))


class PilgrimAgent:
    """The per-node debugging agent."""

    def __init__(self, node: "Node"):
        self.node = node
        self.world = node.world
        self.params = node.params
        self.images: dict[str, NodeImage] = {}
        self.session_id: Optional[int] = None
        self.debugger_addr: Optional[int] = None
        self.peers: list[int] = []
        #: (module, func, pc) -> original instruction.
        self.breakpoints: dict[tuple, Instr] = {}
        #: pid -> (module, func, pc) for processes stopped at a trap.
        self.trapped: dict[int, tuple] = {}
        self.halted = False
        #: Failures recorded even when no debugger is attached, so a
        #: debugger connecting later can investigate (paper §1: debugging
        #: "perhaps after those programs have gone into service").
        self.failure_log: list[dict] = []
        self.requests_handled = 0
        self.halt_messages_sent = 0

        self._queue = node.queue("agent.requests")
        self._step_done = node.semaphore(name="agent.step_done")
        self._invoke_done = node.semaphore(name="agent.invoke_done")
        node.station.register_port(rq.AGENT_PORT, self._on_packet)
        # Track user-program failures via the obs bus (paper §5.2: the
        # halt primitive is used on user program failures as well).
        self.world.bus.subscribe(obs_ev.ProcessFailed, self._on_failure_event)
        node.agent = self
        self.process = node.spawn(
            self._body(),
            name="pilgrim.agent",
            priority=self.params.agent_priority,
            halt_exempt=True,
        )
        node.rpc.export_native(
            rq.DEBUG_SERVICE,
            {"get_debuggee_status": self._rpc_get_debuggee_status},
            register=False,
            halt_exempt=True,
        )

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def register_image(self, image: NodeImage) -> None:
        """Attach a linked program image so its traps reach this agent."""
        self.images[image.module] = image
        image.trap_handler = self._on_trap

    def connected(self) -> bool:
        return self.session_id is not None

    # ------------------------------------------------------------------
    # Packet handling (event context)
    # ------------------------------------------------------------------

    def _on_packet(self, packet) -> None:
        payload = packet.payload
        kind = payload.get("kind") if type(payload) is dict else None
        if kind == "request":
            self._queue.push(payload)
        elif kind == "halt":
            # Peer halt notification: act immediately (paper §5.2 — the
            # whole point is halting before timeouts can be observed).
            if payload.get("session") == self.session_id:
                self._do_halt(broadcast=False)
        elif kind == "resume":
            if payload.get("session") == self.session_id:
                self._do_resume(broadcast=False)

    # ------------------------------------------------------------------
    # The agent process
    # ------------------------------------------------------------------

    def _body(self):
        while True:
            request = yield from receive(self._queue)
            if request is None or "reply_to" not in request or "seq" not in request:
                continue  # nowhere to answer: dropped, the agent serves on
            yield Cpu(self.params.agent_request_cost)
            response = yield from self._handle(request)
            self.requests_handled += 1
            self.node.station.send(
                request["reply_to"],
                rq.DEBUGGER_PORT,
                {
                    "kind": "response",
                    "seq": request["seq"],
                    "node": self.node.node_id,
                    **response,
                },
                kind="agent_reply",
            )

    def _handle(self, request: dict):
        """Run one request and write its envelope (module docstring).

        An ``_op_*`` returns its data, or a generator (an op that waits)
        whose return value is its data.
        """
        try:
            handler, args = rq.check_request(self, request)
            data = handler(args)
            if isinstance(data, GeneratorType):
                data = yield from data
        except AgentError as exc:
            return {"ok": False, "error": str(exc)}
        except Exception as exc:  # the agent must not die of a request
            return {"ok": False, "error": f"agent error: {exc}"}
        return {"ok": True, "data": data}

    # ------------------------------------------------------------------
    # Session management
    # ------------------------------------------------------------------

    def _op_connect(self, args: dict) -> dict:
        session = args.get("session")
        if session is None:
            raise AgentError("connect needs a session identifier")
        if self.session_id is not None:
            if not args.get("force", False):
                raise AgentError("a debugging session is already active")
            # Forcible connect: abandon the original session, clear all
            # breakpoints etc. (paper §3).
            self._teardown_session(resume=True)
        self.session_id = session
        self.debugger_addr = args.get("debugger")
        return {
            "node": self.node.node_id,
            "name": self.node.name,
            "modules": sorted(self.images),
            "failures": list(self.failure_log),
            "epoch": self.node.epoch,
        }

    def _op_disconnect(self, args: dict) -> None:
        self._teardown_session(resume=True)

    def _teardown_session(self, resume: bool) -> None:
        for key, original in list(self.breakpoints.items()):
            self._restore_instruction(key, original)
        self.breakpoints.clear()
        for pid in list(self.trapped):
            process = self.node.supervisor.processes.get(pid)
            if process is not None and process.is_live():
                self.node.supervisor.unhalt_process(process)
                self.node.supervisor.unblock(process, None)
            self.trapped.pop(pid, None)
        if self.halted and resume:
            self._do_resume(broadcast=False)
        # "At the end of a debugging session the logical clock is reset to
        # real time.  The effects of this may be unpredictable" (§5.2).
        self.node.clock.reset_to_real_time()
        self.session_id = None
        self.debugger_addr = None
        self.peers = []

    def _op_set_peers(self, args: dict) -> None:
        self.peers = [n for n in args["nodes"] if n != self.node.node_id]

    def detach(self) -> None:
        """Silence this agent permanently (used when its node reboots:
        the fresh boot builds a fresh agent, and this one must stop
        reacting to bus events against the new supervisor)."""
        self.world.bus.unsubscribe(obs_ev.ProcessFailed, self._on_failure_event)

    # ------------------------------------------------------------------
    # Halting (paper §5.2)
    # ------------------------------------------------------------------

    def _do_halt(self, broadcast: bool) -> None:
        if not self.halted:
            self.halted = True
            self.node.supervisor.halt_all()
        if broadcast:
            self._broadcast({"kind": "halt", "session": self.session_id})

    def _do_resume(self, broadcast: bool) -> None:
        if self.halted:
            self.halted = False
            self.node.supervisor.resume_all()
        if broadcast:
            self._broadcast({"kind": "resume", "session": self.session_id})

    #: Hardware-NACK retransmissions before concluding a peer has crashed
    #: (paper §5.2: "either the agent software in those nodes is
    #: functioning correctly ... or the entire node has crashed").
    MAX_BROADCAST_RETRIES = 10

    def _broadcast(self, message: dict) -> None:
        """Serial sends to each peer agent; the ring's hardware NACK drives
        retransmission (the negative-acknowledgement scheme of §5.2)."""
        for peer in self.peers:
            self._send_with_retry(peer, message, self.MAX_BROADCAST_RETRIES)

    def _send_with_retry(self, peer: int, message: dict, retries_left: int) -> None:
        self.halt_messages_sent += 1

        def on_nack(_pkt) -> None:
            if retries_left <= 0:
                return  # peer considered crashed
            self.world.schedule(
                self.params.nack_retry_delay,
                self._send_with_retry,
                peer,
                message,
                retries_left - 1,
                node=self.node.node_id,
            )

        self.node.station.send(
            peer,
            rq.AGENT_PORT,
            message,
            kind="halt" if message["kind"] == "halt" else "agent_ctl",
            on_nack=on_nack,
        )

    def _op_halt(self, args: dict) -> dict:
        self._do_halt(broadcast=True)
        return {"halted": True}

    # ------------------------------------------------------------------
    # Traps and failures
    # ------------------------------------------------------------------

    def _on_trap(self, process: Process, executor: VmExecutor, frame) -> None:
        location = (frame.func.module, frame.func.name, frame.pc)
        if self.session_id is None:
            # Stale trap with no debugger attached.
            if location not in self.breakpoints:
                # A trap we never planted: neutralize it so the process
                # does not spin (it costs the process one NOP).
                frame.func.code[frame.pc] = Instr(ops.NOP, line=frame.func.code[frame.pc].line)
            self._step_over(process, executor, location, rehalt=False)
            return
        self.trapped[process.pid] = location
        line = frame.func.line_for_pc(frame.pc)
        self.world.bus.emit(obs_ev.BreakpointHit, self.node.supervisor.current_time(),
                            self.node.node_id, process.pid, location[0], location[1],
                            location[2], line)
        self._do_halt(broadcast=True)
        self._notify(
            rq.EVENT_BREAKPOINT,
            {
                "pid": process.pid,
                "module": location[0],
                "proc": location[1],
                "pc": location[2],
                "line": line,
            },
        )

    def _on_failure_event(self, event: obs_ev.ProcessFailed) -> None:
        if event.node == self.node.node_id:
            self._on_failure(event.process, event.error)

    def _on_failure(self, process: Process, exc: BaseException) -> None:
        entry = {
            "pid": process.pid,
            "name": process.name,
            "error": str(exc),
            "at": self.node.clock.real_now(),
        }
        self.failure_log.append(entry)
        if len(self.failure_log) > 32:
            self.failure_log.pop(0)
        if self.session_id is not None:
            # Halt everything so the failure can be examined (paper §5.2:
            # the halt primitive is used "upon hardware exceptions and
            # user program failures as well").
            self._do_halt(broadcast=True)
            self._notify(rq.EVENT_FAILURE, entry)

    def _notify(self, event: str, payload: dict) -> None:
        if self.debugger_addr is None:
            return
        self.node.station.send(
            self.debugger_addr,
            rq.DEBUGGER_PORT,
            {"kind": "event", "event": event, "node": self.node.node_id,
             "data": payload},
            kind="agent_event",
        )

    # ------------------------------------------------------------------
    # Breakpoints (paper §5.5)
    # ------------------------------------------------------------------

    def _code_at(self, module: str, func: str):
        image = self.images.get(module)
        if image is None:
            raise AgentError(f"no image for module {module!r}")
        try:
            return image.function(func).code
        except CluRuntimeError as exc:  # an unknown procedure
            raise AgentError(str(exc)) from None

    def _op_set_breakpoint(self, args: dict) -> dict:
        key = (args["module"], args["func"], args["pc"])
        if key in self.breakpoints:
            return {"already": True}
        code = self._code_at(key[0], key[1])
        if not (0 <= key[2] < len(code)):
            raise AgentError(f"pc {key[2]} out of range")
        original = code[key[2]]
        self.breakpoints[key] = original
        code[key[2]] = Instr(ops.TRAP, line=original.line)
        return {"line": original.line}

    def _op_clear_breakpoint(self, args: dict) -> None:
        key = (args["module"], args["func"], args["pc"])
        original = self.breakpoints.pop(key, None)
        if original is None:
            raise AgentError("no such breakpoint")
        self._restore_instruction(key, original)

    def _restore_instruction(self, key: tuple, original: Instr) -> None:
        module, func, pc = key
        image = self.images.get(module)
        if image is None:
            return
        code = image.function(func).code
        if code[pc].op == ops.TRAP:
            code[pc] = original

    def _step_over(
        self,
        process: Process,
        executor: VmExecutor,
        location: tuple,
        rehalt: bool,
    ) -> None:
        """Step a process over the trap at ``location`` (trace mode).

        Restores the original instruction, lets exactly one instruction
        execute with the process made temporarily halt-exempt, then
        re-inserts the trap.  With ``rehalt`` the process stops again
        immediately after (single-step); otherwise it runs on (continue).
        While this happens all other processes remain halted, so none can
        run through the breakpointed location untrapped (paper §5.5).
        """
        original = self.breakpoints.get(location)
        if original is not None:
            self._restore_instruction(location, original)
        was_exempt = process.halt_exempt
        process.halt_exempt = True

        def after_one_instruction() -> None:
            # Re-insert the trap now that the process has moved past it
            # (paper §5.5: other processes are still halted, so none could
            # have run through the location while it was restored).
            if original is not None and location in self.breakpoints:
                module, func, pc = location
                code = self.images[module].function(func).code
                code[pc] = Instr(ops.TRAP, line=original.line)
            process.halt_exempt = was_exempt
            if rehalt and process.state == ProcessState.RUNNING:
                supervisor = self.node.supervisor
                if executor.frames:
                    frame = executor.frames[-1]
                    wait = BreakpointWait(frame.func, frame.pc, kind="stepped")
                    self.trapped[process.pid] = (
                        frame.func.module,
                        frame.func.name,
                        frame.pc,
                    )
                    supervisor.block(process, wait, None, lambda p: None)
                    executor._awaiting = lambda _value: None
            self._step_done.signal()

        executor.after_step = after_one_instruction
        self.node.supervisor.unhalt_process(process)
        self.node.supervisor.unblock(process, None)

    def _op_step(self, args: dict):
        pid = args["pid"]
        process = self.node.supervisor.processes.get(pid)
        location = self.trapped.pop(pid, None)
        if process is None or location is None:
            raise AgentError(f"process {pid} is not stopped at a trap")
        self._step_over(process, process.executor, location, rehalt=True)
        yield Wait(self._step_done)
        return {"registers": process.registers()}

    def _op_continue(self, args: dict):
        # First walk every trapped process over its breakpoint while the
        # rest of the node is still halted, then resume the world.
        pending = 0
        for pid, location in list(self.trapped.items()):
            process = self.node.supervisor.processes.get(pid)
            self.trapped.pop(pid, None)
            if process is None or not process.is_live():
                continue
            self._step_over(process, process.executor, location, rehalt=False)
            pending += 1
        for _ in range(pending):
            yield Wait(self._step_done)
        self._do_resume(broadcast=True)
        return {"resumed": pending}

    # ------------------------------------------------------------------
    # Process inspection (paper §5.4)
    # ------------------------------------------------------------------

    def _process(self, pid: int) -> Process:
        process = self.node.supervisor.processes.get(pid)
        if process is None:
            raise AgentError(f"no process {pid}")
        return process

    def _op_list_processes(self, args: dict) -> list:
        return [p.describe() for p in self.node.supervisor.processes.values()]

    def _op_process_state(self, args: dict) -> dict:
        process = self._process(args["pid"])
        info = process.describe()
        info["registers"] = {
            k: v for k, v in process.registers().items() if not callable(v)
        }
        info["trapped_at"] = self.trapped.get(process.pid)
        return info

    def _op_backtrace(self, args: dict) -> list:
        frames = []
        for snapshot in self._process(args["pid"]).executor.backtrace():
            entry = dict(snapshot)
            entry["locals"] = {
                name: sanitize(value)
                for name, value in snapshot.get("locals", {}).items()
            }
            frames.append(entry)
        return frames

    def _op_wake_process(self, args: dict) -> dict:
        process = self._process(args["pid"])
        woken = self.node.supervisor.debugger_wake(process, args.get("value", False))
        return {"woken": woken}

    # ------------------------------------------------------------------
    # Memory access
    # ------------------------------------------------------------------

    def _find_frame(self, args: dict):
        frames = getattr(self._process(args["pid"]).executor, "frames", None)
        if frames is None:
            raise AgentError("process has no VM frames")
        index = args.get("frame", 0)
        # Frame 0 is innermost well-formed, matching backtrace order.
        visible = [f for f in reversed(frames) if not f.under_construction]
        if not (0 <= index < len(visible)):
            raise AgentError(f"no frame {index}")
        return visible[index]

    def _local(self, args: dict) -> tuple:
        """(frame, value) of the local ``args["name"]`` in the asked frame."""
        frame = self._find_frame(args)
        name = args["name"]
        if name not in frame.locals:
            raise AgentError(f"no variable {name!r} in frame")
        return frame, frame.locals[name]

    def _image(self, module: str) -> NodeImage:
        image = self.images.get(module)
        if image is None:
            raise AgentError(f"no module {module!r}")
        return image

    def _op_read_var(self, args: dict) -> Any:
        return sanitize(self._local(args)[1])

    def _op_write_var(self, args: dict) -> None:
        self._find_frame(args).locals[args["name"]] = unmarshal(args["value"])

    def _op_read_global(self, args: dict) -> Any:
        image = self.images.get(args["module"])
        if image is None or args["name"] not in image.globals:
            raise AgentError(f"no global {args['name']!r}")
        return sanitize(image.globals[args["name"]])

    def _op_write_global(self, args: dict) -> None:
        self._image(args["module"]).globals[args["name"]] = unmarshal(args["value"])

    # ------------------------------------------------------------------
    # Procedure invocation and display (paper §3)
    # ------------------------------------------------------------------

    def _invoke(self, image: NodeImage, func: str, call_args: list):
        """Run a procedure in the user program, output redirected."""
        output: list[str] = []
        executor = VmExecutor(image, func, call_args, output=output.append)
        worker = self.node.spawn(
            executor,
            name=f"agent.invoke.{func}",
            priority=self.params.agent_priority,
            halt_exempt=True,
        )
        worker.on_exit.append(lambda _p: self._invoke_done.signal())
        got = yield Wait(self._invoke_done, 10_000_000)
        if not got:
            self.node.supervisor.terminate(worker)
            raise AgentError(f"invocation of {func} timed out")
        if worker.failure is not None:
            raise AgentError(f"invocation failed: {worker.failure}")
        return worker.result, output

    def _op_invoke(self, args: dict):
        image = self._image(args["module"])
        call_args = [unmarshal(a) for a in args.get("args", [])]
        result, output = yield from self._invoke(image, args["func"], call_args)
        return {"result": sanitize(result), "output": output}

    def _op_display(self, args: dict):
        """Display a variable using its type's print operation, invoked in
        the user program (paper §3)."""
        frame, value = self._local(args)
        image = self.images.get(frame.func.module) or next(iter(self.images.values()), None)
        printop = printop_for(value, image.printops) if image is not None else None
        if printop is None:
            return {"text": default_print(value)}
        result, _output = yield from self._invoke(image, printop, [value])
        return {"text": printed_text(result)}

    # ------------------------------------------------------------------
    # RPC debugging (paper §4)
    # ------------------------------------------------------------------

    def _op_rpc_info(self, args: dict) -> dict:
        runtime = self.node.rpc
        return {
            "in_progress": runtime.inprogress_calls(),
            "serving": runtime.serving_calls(),
            "recent": runtime.recent_outcomes(),
        }

    def _op_rpc_client_history(self, args: dict) -> list:
        return [r.describe() for r in self.node.rpc.client_history]

    def _op_rpc_server_record(self, args: dict) -> Optional[dict]:
        record = self.node.rpc.server_record(args["call_id"])
        return None if record is None else record.describe()

    # ------------------------------------------------------------------
    # Shared-server support (paper §6.1)
    # ------------------------------------------------------------------

    def _rpc_get_debuggee_status(self, ctx) -> CluRecord:
        """get_debuggee_status = proc () returns (network_address, date)."""
        debugger = self.debugger_addr if self.debugger_addr is not None else rq.NO_DEBUGGER
        return CluRecord(
            "debuggee_status",
            {"debugger": debugger, "logical_time": self.node.clock.logical_now()},
        )
