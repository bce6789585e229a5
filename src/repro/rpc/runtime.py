"""The Mayflower RPC runtime (paper §2, §4).

Two protocols over the ring:

* **exactly-once** — reliable in the absence of node failures: the client
  retransmits until a reply arrives; the server deduplicates by call id
  and caches replies for retransmitted calls;
* **maybe** — one call packet, one timeout, no retries: "the faster, less
  reliable maybe protocol allows the programmer to handle both transient
  errors and failures with retry strategies appropriate to the application
  at hand".

Debug instrumentation (paper §4.3) is integral, not a special mode:

* client/server call tables (call id <-> process) — maintained anyway by
  the protocol;
* info blocks in the RPC runtime stack frames of VM callers and workers;
* the ten-slot recent-call outcome buffer;
* a +400 µs per-call cost when ``debug_support`` is on (the measured
  overhead; toggleable only so experiment E1 can measure it).

Timing model: each call crosses four processing steps (client send, server
receive, server send, client receive) of ``rpc_processing_cost / 2`` each,
plus two Basic Block transits — about 16 ms for a null call, so the 400 µs
instrumentation is the paper's 2.5 %.
"""

from __future__ import annotations

import inspect
from itertools import islice
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.cvm.values import RpcFailure
from repro.mayflower.syscalls import Call, Cpu, receive
from repro.obs import events as ev
from repro.rpc.debug import (
    STATE_CALL_SENT,
    STATE_COMPLETED,
    STATE_FAILED,
    STATE_REPLY_RECEIVED,
    STATE_RETRANSMITTING,
    ClientCallRecord,
    RecentCallBuffer,
    ServerCallRecord,
    make_info_block,
)
from repro.rpc.marshal import MarshalError, Signature, marshal, unmarshal, wire_size
from repro.rpc.registry import ServiceRegistry

if TYPE_CHECKING:
    from repro.cvm.image import NodeImage
    from repro.cvm.interp import VmExecutor
    from repro.mayflower.node import Node
    from repro.mayflower.process import Process

RPC_PORT = "rpc"

#: Server call records kept per runtime for exactly-once dedup; beyond
#: this the oldest *completed* records are evicted (in-progress ones
#: never are).
SERVER_TABLE_LIMIT = 256


class ServerCallContext:
    """Passed to native service handlers: who is calling, from where.

    ``client_node`` is the caller's network address — what a server needs
    to invoke ``get_debuggee_status`` at the client (paper §6.1).
    """

    def __init__(self, node: "Node", call_id: int, client_node: int, client_pid: int):
        self.node = node
        self.call_id = call_id
        self.client_node = client_node
        self.client_pid = client_pid


class _ServiceImpl:
    """One locally exported service."""

    def __init__(self, name: str, kind: str):
        self.name = name
        self.kind = kind  # 'vm' | 'native'
        self.vm_image: Optional["NodeImage"] = None
        self.vm_procs: dict[str, str] = {}
        self.native_procs: dict[str, Callable] = {}
        self.signatures: dict[str, Signature] = {}
        #: Whether this service was published in the global registry
        #: (remembered so a node reboot re-installs it identically).
        self.registered = True
        self.halt_exempt = False


class RpcRuntime:
    """Per-node RPC runtime."""

    def __init__(self, node: "Node", registry: ServiceRegistry):
        self.node = node
        self.world = node.world
        self.params = node.params
        self.registry = registry
        self.bus = node.world.bus
        #: Paper §4.3 instrumentation: on by default (it ships in the
        #: normal build); experiment E1 turns it off to measure the cost.
        #: While on, each call adds its cost and feeds :attr:`recent_calls`.
        self.debug_support = True
        #: The rejected §4.2 packet-monitor design; experiment E2 enables
        #: it to show the ~2x slow-down.
        self.monitor = None
        #: Protocol timers: the supervisor freezes them while the node
        #: is halted (paper §5.2).
        self.timers = node.supervisor.timers
        #: Services whose dispatch and workers keep running during a halt.
        self.exempt_services: set[str] = set()
        self.client_table: dict[int, ClientCallRecord] = {}
        self.client_history: list[ClientCallRecord] = []
        self.server_table: dict[int, ServerCallRecord] = {}
        self.recent_calls = RecentCallBuffer(self.params.recent_call_slots)
        self._next_seq = 0
        self._services: dict[str, _ServiceImpl] = {}
        self._dispatch_queue = node.queue("rpc.dispatch")
        self._dispatcher: Optional["Process"] = None
        self._exempt_queue = node.queue("rpc.dispatch.exempt")
        self._exempt_dispatcher: Optional["Process"] = None
        #: When this runtime booted (node time).  Retransmits of calls
        #: first sent before this moment are *stale*: the pre-reboot
        #: runtime may already have executed them, so re-executing here
        #: would break exactly-once.  They are rejected instead.
        self.boot_time = node.supervisor.current_time()
        node.rpc = self
        node.station.register_port(RPC_PORT, self._on_packet)

    # ------------------------------------------------------------------
    # Cost model helpers
    # ------------------------------------------------------------------

    def _step_cost(self) -> int:
        """Processing delay for one of the four protocol steps."""
        cost = self.params.rpc_processing_cost // 2
        if self.debug_support:
            cost += self.params.rpc_debug_overhead // 4
        if self.monitor is not None:
            cost += self.params.rpc_monitor_packet_cost // 2
        return cost

    # ------------------------------------------------------------------
    # Exporting services
    # ------------------------------------------------------------------

    def export_vm(
        self,
        service: str,
        image: "NodeImage",
        procs: dict[str, str],
        signatures: Optional[dict[str, Signature]] = None,
    ) -> None:
        """Export CCLU procedures of ``image`` as a remote service."""
        impl = _ServiceImpl(service, "vm")
        impl.vm_image = image
        impl.vm_procs = dict(procs)
        impl.signatures = dict(signatures or {})
        self._install(service, impl)

    def export_native(
        self,
        service: str,
        procs: dict[str, Callable],
        signatures: Optional[dict[str, Signature]] = None,
        register: bool = True,
        halt_exempt: bool = False,
    ) -> None:
        """Export native Python handlers as a remote service.

        A handler is called as ``handler(ctx, *args)`` in worker-process
        context; it may return a value directly or a generator of
        Mayflower syscalls whose return value becomes the reply.

        ``halt_exempt`` marks a service that must keep answering while the
        node is halted at a breakpoint (the agent's debug procedures).
        """
        impl = _ServiceImpl(service, "native")
        impl.native_procs = dict(procs)
        impl.signatures = dict(signatures or {})
        if halt_exempt:
            self.exempt_services.add(service)
        self._install(service, impl, register=register, halt_exempt=halt_exempt)

    def _install(
        self,
        service: str,
        impl: _ServiceImpl,
        register: bool = True,
        halt_exempt: bool = False,
    ) -> None:
        self._services[service] = impl
        # proc -> (its workers' process name, ``service.proc``), built once:
        # finished workers and a trace's name cells share them.
        impl.names = {proc: (f"rpcw.{proc}", f"{service}.{proc}")
                      for proc in (*impl.vm_procs, *impl.native_procs)}
        impl.registered = register
        impl.halt_exempt = halt_exempt
        if register:
            self.registry.register(service, self.node.node_id, impl.signatures)
        if halt_exempt:
            if self._exempt_dispatcher is None:
                self._exempt_dispatcher = self.node.spawn(
                    self._dispatcher_body(self._exempt_queue, exempt=True),
                    name="rpc.dispatcher.exempt",
                    priority=self.params.agent_priority,
                    halt_exempt=True,
                )
        elif self._dispatcher is None:
            self._dispatcher = self.node.spawn(
                self._dispatcher_body(self._dispatch_queue, exempt=False),
                name="rpc.dispatcher",
            )

    def reinstall(self, impl: _ServiceImpl) -> None:
        """Carry a service over from a pre-reboot runtime.

        Used by the cluster's reboot hook: the implementation object
        survives (procedure tables, signatures), but dispatchers, queues,
        and registry rows belong to this fresh runtime.  VM-backed
        services get their image's RPC hook repointed here.
        """
        if impl.halt_exempt:
            self.exempt_services.add(impl.name)
        if impl.vm_image is not None:
            impl.vm_image.rpc_hook = self.vm_rcall
        self._install(
            impl.name, impl, register=impl.registered,
            halt_exempt=impl.halt_exempt,
        )

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------

    def vm_rcall(
        self,
        executor: "VmExecutor",
        process: "Process",
        service: str,
        proc: str,
        args: list,
        protocol: str,
    ) -> None:
        """The image's RCALL hook (wired by the cluster builder)."""
        self.start_call(
            process, service, proc, args, protocol, executor=executor
        )

    def start_call(
        self,
        process: "Process",
        service: str,
        proc: str,
        args: list,
        protocol: str = "once",
        dst_node: Optional[int] = None,
        executor: Optional["VmExecutor"] = None,
    ) -> int:
        """Begin an RPC from process context; blocks the caller.

        The caller is later unblocked with the unmarshalled result value or
        an :class:`RpcFailure`.  Returns the call id.
        """
        if protocol not in ("once", "maybe"):
            raise MarshalError(f"unknown RPC protocol {protocol!r}")
        self._next_seq += 1
        call_id = (self.node.node_id << 20) | self._next_seq

        info = make_info_block(process.pid, f"{service}.{proc}", call_id, protocol)
        record = ClientCallRecord(
            call_id, process, service, proc, protocol, info,
            self.node.supervisor.current_time(),
        )
        self.client_table[call_id] = record
        self.bus.emit(ev.RpcCallStarted, record.started_at, self.node.node_id,
                      call_id, service, proc, protocol)

        supervisor = self.node.supervisor
        if executor is not None:
            executor.begin_rpc(info)
        supervisor.block(
            process, f"rpc:{service}.{proc}#{call_id}", None, lambda p: None
        )

        # Resolve and type-check before any network activity.
        target = dst_node if dst_node is not None else self.registry.lookup(service)
        if target is None:
            self._complete(record, RpcFailure(f"unknown service {service!r}", call_id))
            return call_id
        signature = self.registry.signature(service, proc)
        try:
            if signature is not None:
                signature.check_args(args)
            args_wire = [marshal(value) for value in args]
        except MarshalError as exc:
            self._complete(record, RpcFailure(f"marshal error: {exc}", call_id))
            return call_id

        payload = {
            "type": "call",
            "call_id": call_id,
            "service": service,
            "proc": proc,
            "protocol": protocol,
            "args": args_wire,
            "client_node": self.node.node_id,
            "client_pid": process.pid,
            # Reboot-safe dedup: servers compare the first-send time with
            # their own boot time to recognize pre-reboot retransmits.
            "first_sent_at": record.started_at,
            "retry": 0,
        }
        # Client send-side processing, then transmission.
        self.timers.start(self._step_cost(), self._send_call, record, target, payload)
        return call_id

    def _send_call(self, record: ClientCallRecord, target: int, payload: dict) -> None:
        if record.completed:
            return
        record.info_block["state"] = STATE_CALL_SENT
        self.node.station.send(
            target,
            RPC_PORT,
            payload,
            size_bytes=64 + wire_size(payload["args"]),
            kind="rpc_call",
        )
        if record.protocol == "once":
            record.retransmit_timer = self.timers.start(
                self.params.rpc_retransmit_interval,
                self._retransmit,
                record,
                target,
                payload,
            )
        else:
            record.retransmit_timer = self.timers.start(
                self.params.maybe_timeout, self._maybe_timeout, record
            )

    def _retransmit(self, record: ClientCallRecord, target: int, payload: dict) -> None:
        if record.completed:
            return
        if record.info_block["retries"] >= self.params.rpc_max_retransmits:
            self._complete(
                record,
                RpcFailure(
                    f"node failure: no response from {record.service!r} after "
                    f"{self.params.rpc_max_retransmits} retransmissions",
                    record.call_id,
                ),
            )
            return
        record.info_block["retries"] += 1
        record.info_block["state"] = STATE_RETRANSMITTING
        payload["retry"] = record.info_block["retries"]
        self.bus.emit(ev.RpcCallRetried, self.node.supervisor.current_time(),
                      self.node.node_id, record.call_id, record.service, record.proc,
                      record.info_block["retries"])
        self.node.station.send(
            target,
            RPC_PORT,
            payload,
            size_bytes=64 + wire_size(payload["args"]),
            kind="rpc_call",
        )
        record.retransmit_timer = self.timers.start(
            self.params.rpc_retransmit_interval,
            self._retransmit,
            record,
            target,
            payload,
        )

    def _maybe_timeout(self, record: ClientCallRecord) -> None:
        if record.completed:
            return
        self._complete(
            record,
            RpcFailure("maybe call timed out (call or reply packet lost)",
                       record.call_id),
        )

    def _complete(self, record: ClientCallRecord, value: Any) -> None:
        if record.completed:
            return
        record.completed = True
        if record.retransmit_timer is not None:
            record.retransmit_timer.cancel()
            record.retransmit_timer = None
        failed = isinstance(value, RpcFailure)
        record.outcome = value.reason if failed else "ok"
        record.info_block["state"] = STATE_FAILED if failed else STATE_COMPLETED
        if self.debug_support:
            self.recent_calls.record(record.call_id, not failed)
        now = self.node.supervisor.current_time()
        latency = max(0, now - record.started_at)
        if failed:
            self.bus.emit(ev.RpcCallFailed, now, self.node.node_id, record.call_id,
                          record.service, record.proc, record.protocol, latency, value.reason)
        else:
            self.bus.emit(ev.RpcCallCompleted, now, self.node.node_id, record.call_id,
                          record.service, record.proc, record.protocol, latency)
        self.client_table.pop(record.call_id, None)
        self.client_history.append(record)
        if len(self.client_history) > 64:
            self.client_history.pop(0)
        self.node.supervisor.unblock(record.process, value)

    # ------------------------------------------------------------------
    # Packet handling
    # ------------------------------------------------------------------

    def _on_packet(self, packet) -> None:
        payload = packet.payload
        kind = payload.get("type")
        if kind == "call":
            self._on_call_packet(payload)
        elif kind == "reply":
            self._on_reply_packet(payload)

    def _on_call_packet(self, payload: dict) -> None:
        call_id = payload["call_id"]
        existing = self.server_table.get(call_id)
        if existing is not None:
            if existing.completed and existing.reply_wire is not None:
                # Retransmitted call for a completed exchange: resend the
                # cached reply (exactly-once dedup).
                self.timers.start(
                    self._step_cost(),
                    self._send_reply_wire,
                    existing.client_node,
                    existing.reply_wire,
                )
            return  # in progress: the original worker will reply
        if (
            payload.get("retry", 0) > 0
            and payload.get("first_sent_at", 0) < self.boot_time
        ):
            # A retransmit of a call first sent before this runtime
            # booted: the pre-reboot incarnation may have executed it
            # (and lost the dedup table in the crash), so executing it
            # again could double-run the procedure.  Refuse, telling the
            # client explicitly rather than letting it retry to death.
            self.bus.emit(ev.RpcStaleRejected, self.node.supervisor.current_time(),
                          self.node.node_id, call_id, payload["service"], payload["proc"])
            self.timers.start(
                self._step_cost(),
                self._send_reply_wire,
                payload["client_node"],
                {
                    "type": "reply",
                    "call_id": call_id,
                    "status": "error",
                    "reason": "stale retransmit rejected: server rebooted "
                              "since the call began",
                },
            )
            return
        record = ServerCallRecord(
            call_id,
            payload["client_node"],
            payload["client_pid"],
            payload["service"],
            payload["proc"],
            payload["protocol"],
            self.node.supervisor.current_time(),
        )
        self.server_table[call_id] = record
        self._evict_server_records()
        if payload["service"] in self.exempt_services:
            self._exempt_queue.push((payload, record))
        else:
            self._dispatch_queue.push((payload, record))

    def _on_reply_packet(self, payload: dict) -> None:
        record = self.client_table.get(payload["call_id"])
        if record is None or record.completed:
            return
        record.info_block["state"] = STATE_REPLY_RECEIVED
        # Client receive-side processing before the caller resumes.
        self.timers.start(self._step_cost(), self._deliver_reply, record, payload)

    def _deliver_reply(self, record: ClientCallRecord, payload: dict) -> None:
        if record.completed:
            return
        if payload["status"] == "ok":
            value = unmarshal(payload["value"])
        else:
            value = RpcFailure(payload["reason"], record.call_id)
        self._complete(record, value)

    # ------------------------------------------------------------------
    # Server side
    # ------------------------------------------------------------------

    def _dispatcher_body(self, queue, exempt: bool) -> Generator:
        while True:
            item = yield from receive(queue)
            if item is None:
                continue
            payload, record = item
            # Server receive-side processing.
            yield Cpu(self._step_cost())
            self._spawn_worker(payload, record, exempt)

    def _spawn_worker(
        self, payload: dict, record: ServerCallRecord, exempt: bool = False
    ) -> None:
        record.exempt = exempt
        service = self._services.get(payload["service"])
        if service is None:
            self._finish_server_call(record, RpcFailure("no such service"))
            return
        proc = payload["proc"]
        signature = service.signatures.get(proc)
        try:
            args = [unmarshal(wire) for wire in payload["args"]]
            if signature is not None:
                signature.check_args(args)
        except MarshalError as exc:
            self._finish_server_call(record, RpcFailure(f"bad arguments: {exc}"))
            return

        ctx = ServerCallContext(
            self.node, record.call_id, record.client_node, record.client_pid
        )
        if service.kind == "vm":
            func_name = service.vm_procs.get(proc)
            if func_name is None:
                self._finish_server_call(record, RpcFailure(f"no such proc {proc!r}"))
                return
            from repro.cvm.interp import VmExecutor

            worker_name, remote_proc = service.names[proc]
            executor = VmExecutor(service.vm_image, func_name, args)
            executor.server_info_block = {
                "call_id": record.call_id,
                "remote_proc": remote_proc,
                "client_node": record.client_node,
                "client_pid": record.client_pid,
                "state": "serving",
            }
            worker = self.node.spawn(executor, name=worker_name)
        else:
            handler = service.native_procs.get(proc)
            if handler is None:
                self._finish_server_call(record, RpcFailure(f"no such proc {proc!r}"))
                return
            worker = self.node.spawn(
                self._native_worker_body(handler, ctx, args),
                name=service.names[proc][0],
                priority=self.params.agent_priority if exempt else 0,
                halt_exempt=exempt,
            )
        record.worker_pid = worker.pid
        worker.on_exit.append(lambda process: self._worker_done(record, process))

    @staticmethod
    def _native_worker_body(handler: Callable, ctx: ServerCallContext, args: list):
        yield Cpu(20)
        result = handler(ctx, *args)
        if inspect.isgenerator(result):
            result = yield from result
        return result

    def _worker_done(self, record: ServerCallRecord, process: "Process") -> None:
        if process.failure is not None:
            self._finish_server_call(
                record, RpcFailure(f"remote execution failed: {process.failure}")
            )
        else:
            self._finish_server_call(record, process.result)

    def _finish_server_call(self, record: ServerCallRecord, result: Any) -> None:
        record.completed = True
        failed = isinstance(result, RpcFailure)
        record.outcome = result.reason if failed else "ok"
        if failed:
            reply = {
                "type": "reply",
                "call_id": record.call_id,
                "status": "error",
                "reason": result.reason,
            }
        else:
            try:
                reply = {
                    "type": "reply",
                    "call_id": record.call_id,
                    "status": "ok",
                    "value": marshal(result),
                }
            except MarshalError as exc:
                reply = {
                    "type": "reply",
                    "call_id": record.call_id,
                    "status": "error",
                    "reason": f"unmarshallable result: {exc}",
                }
        if record.protocol == "once":
            record.reply_wire = reply  # cached for dedup resends
        # Server send-side processing, then transmission.  A halt-exempt
        # service's reply is never frozen (the agent's debug procedures
        # must stay servable while the node is halted, paper §6.1).
        start = self.node.supervisor.schedule_local if record.exempt else self.timers.start
        start(self._step_cost(), self._send_reply_wire, record.client_node, reply)

    def _send_reply_wire(self, client_node: int, reply: dict) -> None:
        self.node.station.send(
            client_node,
            RPC_PORT,
            reply,
            size_bytes=64 + wire_size(reply.get("value")),
            kind="rpc_reply",
        )

    def _evict_server_records(self) -> None:
        excess = len(self.server_table) - SERVER_TABLE_LIMIT
        if excess <= 0:
            return
        # Records enter the table on packet delivery, stamped with the
        # world clock, so dict order is ``received_at`` order: the
        # oldest completed records are the first completed ones met.
        completed = (
            call_id
            for call_id, record in self.server_table.items()
            if record.completed
        )
        for call_id in list(islice(completed, excess)):
            del self.server_table[call_id]

    # ------------------------------------------------------------------
    # Agent-facing debug API (paper §4.3)
    # ------------------------------------------------------------------

    def inprogress_calls(self) -> list[dict]:
        return [record.describe() for record in self.client_table.values()]

    def serving_calls(self) -> list[dict]:
        return [
            record.describe()
            for record in self.server_table.values()
            if not record.completed
        ]

    def recent_outcomes(self) -> list[tuple[int, bool]]:
        return self.recent_calls.entries()

    def server_record(self, call_id: int) -> Optional[ServerCallRecord]:
        return self.server_table.get(call_id)


def remote_call(
    runtime: RpcRuntime,
    service: str,
    proc: str,
    args: Optional[list] = None,
    protocol: str = "once",
    dst_node: Optional[int] = None,
) -> Generator:
    """Issue an RPC from a native process::

        result = yield from remote_call(node.rpc, "calc", "add", [1, 2])
    """

    def _start(_supervisor, process):
        runtime.start_call(
            process,
            service,
            proc,
            list(args or []),
            protocol,
            dst_node=dst_node,
        )
        return None

    result = yield Call(_start, label=f"rpc:{service}.{proc}")
    return result
