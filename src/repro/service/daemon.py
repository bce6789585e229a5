"""The session daemon: many named debugger sessions behind one socket.

One :class:`PilgrimService` owns a table of named sessions.  A session
is created *dormant* — nothing but its spec (kind + parameters) is
stored — and its backend is materialized lazily on the first operation,
the service-level analogue of the paper's dormant debugging agents:
parking a thousand sessions costs a thousand small dicts, not a
thousand simulated worlds (benchmark E18 measures exactly this).

Session kinds and their backends:

==========  ========================================================
``world``   a fresh simulated cluster + :class:`Pilgrim` (a campaign
            scenario by name, or the built-in ``counter`` demo)
``trace``   a sealed trace file via :class:`~repro.replay.session.TraceSession`
``corpus``  a corpus reproducer by label via :meth:`Corpus.open_session`
``live``    a real process via :class:`~repro.live.debugger.LiveDebugger`
==========  ========================================================

Holder semantics follow the paper's forcible connect: the first client
to ``connect`` (or to run any operation on an unheld session) becomes
the *holder*; a second client's ``connect`` is refused with
``session_held`` unless ``force=True``, which evicts the holder and
bumps the session *epoch*.  An evicted holder learns through a typed
``takeover`` error — on its next request, or on the reply to a request
that was in flight when the takeover happened (the epoch is checked on
both sides of the operation).

The socket server is a thread-per-connection Unix-domain stream server;
binding cleans up a stale socket file left by a killed daemon (connect
probe first, so a *live* daemon is never clobbered).
"""

from __future__ import annotations

import os
import socket
import socketserver
import threading
from typing import Any, Optional

from repro.debugger.errors import (
    BadSessionError,
    DebuggerError,
    ServiceError,
    SessionHeldError,
    SessionTakenError,
)
from repro.obs.metrics import Metrics
from repro.service.dispatch import apply_op, decode_params, render_text, resolve_op, wire_methods
from repro.service.protocol import (
    PROTOCOL_VERSION,
    FrameTooLong,
    recv_message,
    send_message,
    wire_decode,
    wire_encode,
)

#: The built-in demo workload for ``world`` sessions: an infinite
#: counter, handy for breakpoint walkthroughs (break at line 4).
COUNTER_PROGRAM = """
proc main()
  var i: int := 0
  while true do
    i := i + 1
    sleep(1000)
  end
end
"""

#: Session kinds :func:`build_backend` understands.
SESSION_KINDS = ("world", "trace", "corpus", "live", "branch")


def default_socket_path() -> str:
    """The daemon's default socket: overridable via REPRO_SERVICE_SOCKET."""
    explicit = os.environ.get("REPRO_SERVICE_SOCKET")
    if explicit:
        return explicit
    import tempfile
    return os.path.join(tempfile.gettempdir(),
                        f"repro-service-{os.getuid()}.sock")


def build_backend(kind: str, spec: dict) -> Any:
    """Materialize the debugger backend one session spec describes."""
    if kind == "world":
        from repro.cluster import Cluster
        from repro.debugger.pilgrim import Pilgrim

        scenario_name = spec.get("scenario", "counter")
        seed = int(spec.get("seed", 0))
        topology = spec.get("topology", "ring")
        if scenario_name == "counter":
            cluster = Cluster(names=["app", "debugger"], seed=seed,
                              topology=topology)
            image = cluster.load_program(COUNTER_PROGRAM, "app")
            cluster.spawn_vm("app", image, "main")
        else:
            from repro.campaign.scenarios import get_scenario

            scenario = get_scenario(scenario_name)
            cluster = Cluster(names=[*scenario.names, "debugger"],
                              seed=seed, topology=topology)
            scenario.build(cluster)
        return Pilgrim(cluster, home="debugger")
    if kind == "trace":
        from repro.replay.session import TraceSession

        return TraceSession(spec["path"], builder=spec.get("builder"))
    if kind == "branch":
        # A branch is just another dormant session spec: fork the parent
        # trace session when first touched and serve the child trace
        # (grandchild forks work — the child session keeps the builder).
        import json

        from repro.replay.session import TraceSession

        perturbation = spec["perturbation"]
        if isinstance(perturbation, str):
            perturbation = json.loads(perturbation)
        parent = TraceSession(spec["path"], builder=spec["builder"])
        info = parent.fork(
            perturbation,
            checkpoint=int(spec.get("checkpoint", 0)),
            run_until=(int(spec["run_until"])
                       if spec.get("run_until") is not None else None),
        )
        return parent.branch_session(info.id)
    if kind == "corpus":
        from repro.campaign.corpus import Corpus

        return Corpus.open(spec["root"]).open_session(spec["entry"])
    if kind == "live":
        from repro.live.debugger import LiveDebugger

        return LiveDebugger((spec.get("host", "127.0.0.1"),
                             int(spec["port"])))
    raise ServiceError(
        f"unknown session kind {kind!r} (known: {', '.join(SESSION_KINDS)})"
    )


class SessionRecord:
    """One named session: spec, lazily-built backend, holder bookkeeping."""

    __slots__ = ("name", "kind", "spec", "backend", "holder", "epoch",
                 "evicted", "lock", "requests")

    def __init__(self, name: str, kind: str, spec: dict):
        self.name = name
        self.kind = kind
        self.spec = dict(spec)
        self.backend: Any = None
        #: Client id currently holding the session (None = parked).
        self.holder: Optional[str] = None
        #: Bumped on every forcible takeover; in-flight operations of
        #: the evicted holder see the bump and fail with ``takeover``.
        self.epoch = 0
        #: Evicted holders that have not yet been told.
        self.evicted: set = set()
        #: Serializes backend operations (backends are not thread-safe).
        self.lock = threading.Lock()
        self.requests = 0

    def state(self) -> str:
        """Lifecycle phase: ``dormant`` / ``parked`` / ``attached``."""
        if self.backend is None and self.holder is None:
            return "dormant"
        return "parked" if self.holder is None else "attached"

    def describe(self) -> dict:
        """The row the ``sessions`` listing shows for this session."""
        return {
            "name": self.name,
            "kind": self.kind,
            "state": self.state(),
            "holder": self.holder,
            "epoch": self.epoch,
            "requests": self.requests,
            "spec": self.spec,
        }


class PilgrimService:
    """The daemon's brain: session table + request handling.

    Transport-independent so tests can drive :meth:`handle` directly;
    :func:`serve` wraps it in the Unix-socket server.
    """

    def __init__(self) -> None:
        self._sessions: dict[str, SessionRecord] = {}
        self._lock = threading.Lock()
        self.metrics = Metrics()
        self.metrics.counter("service.requests")
        self.metrics.counter("service.errors")
        self.metrics.counter("service.takeovers")
        self.metrics.counter("service.sessions_materialized")
        self.metrics.gauge("service.sessions_open")
        self.metrics.labeled("service.session_requests")
        self.shutdown_requested = threading.Event()

    # -- session table --------------------------------------------------

    def open_session(self, name: str, kind: str, spec: dict) -> dict:
        """Register a (dormant) session; idempotent for an equal spec."""
        if kind not in SESSION_KINDS:
            raise ServiceError(
                f"unknown session kind {kind!r} "
                f"(known: {', '.join(SESSION_KINDS)})"
            )
        with self._lock:
            existing = self._sessions.get(name)
            if existing is not None:
                if existing.kind == kind and existing.spec == dict(spec):
                    return existing.describe()
                raise ServiceError(
                    f"session {name!r} already exists as kind "
                    f"{existing.kind!r} with a different spec"
                )
            record = SessionRecord(name, kind, spec)
            self._sessions[name] = record
            self.metrics.gauge("service.sessions_open").inc()
            return record.describe()

    def close_session(self, name: str) -> dict:
        """Drop a session (disconnecting its backend if materialized)."""
        with self._lock:
            record = self._sessions.pop(name, None)
        if record is None:
            raise BadSessionError(f"no session named {name!r}")
        self.metrics.gauge("service.sessions_open").dec()
        if record.backend is not None:
            with record.lock:
                try:
                    record.backend.disconnect()
                except DebuggerError:
                    pass
        return {"closed": name}

    def _get(self, name: str) -> SessionRecord:
        record = self._sessions.get(name)
        if record is None:
            known = ", ".join(sorted(self._sessions)) or "<none>"
            raise BadSessionError(
                f"no session named {name!r} (open sessions: {known})"
            )
        return record

    def _materialize(self, record: SessionRecord) -> Any:
        if record.backend is None:
            record.backend = build_backend(record.kind, record.spec)
            self.metrics.counter("service.sessions_materialized").inc()
        return record.backend

    # -- holder semantics -----------------------------------------------

    def _attach(self, record: SessionRecord, client: str, force: bool) -> None:
        with self._lock:
            record.evicted.discard(client)
            if record.holder is None or record.holder == client:
                record.holder = client
                return
            if not force:
                raise SessionHeldError(
                    f"session {record.name!r} is held by "
                    f"{record.holder!r}; connect with force=True to take over"
                )
            record.evicted.add(record.holder)
            record.holder = client
            record.epoch += 1
            self.metrics.counter("service.takeovers").inc()

    def _check_holder(self, record: SessionRecord, client: str) -> None:
        with self._lock:
            if client in record.evicted:
                record.evicted.discard(client)
                raise SessionTakenError(
                    f"evicted from session {record.name!r} by a "
                    f"forcible connect from {record.holder!r}"
                )
            if record.holder is None:
                # A parked session adopts its first caller — scripts
                # need not issue an explicit connect for read-only work.
                record.holder = client
            elif record.holder != client:
                raise SessionHeldError(
                    f"session {record.name!r} is held by {record.holder!r}"
                )

    # -- request handling ------------------------------------------------

    def handle(self, message: dict) -> dict:
        """Process one request message into one response message."""
        request_id = message.get("id")
        method = message.get("method", "")
        client = str(message.get("client") or "anonymous")
        self.metrics.counter("service.requests").inc()
        try:
            args, kwargs = decode_params(message.get("params"))
            args = wire_decode(args)
            kwargs = wire_decode(kwargs)
            session = message.get("session")
            if session is None:
                result, text = self._daemon_op(method, args, kwargs)
            else:
                result, text = self._session_op(
                    str(session), method, args, kwargs, client
                )
            return {"id": request_id, "ok": True,
                    "result": wire_encode(result), "text": text}
        except DebuggerError as exc:
            self.metrics.counter("service.errors").inc()
            return {"id": request_id, "ok": False, "error": exc.to_wire()}
        except Exception as exc:  # never leak a traceback over the wire
            self.metrics.counter("service.errors").inc()
            wrapped = ServiceError(f"{type(exc).__name__}: {exc}")
            return {"id": request_id, "ok": False, "error": wrapped.to_wire()}

    def _daemon_op(self, method: str, args: list, kwargs: dict):
        if method == "ping":
            return ({"protocol": PROTOCOL_VERSION,
                     "sessions": len(self._sessions)}, "pong")
        if method == "open":
            info = self.open_session(
                kwargs.get("name") or args[0],
                kwargs.get("kind", "world"),
                kwargs.get("spec") or {},
            )
            return (info, f"session {info['name']} ({info['kind']}) "
                          f"{info['state']}")
        if method == "close":
            result = self.close_session(kwargs.get("name") or args[0])
            return (result, f"closed {result['closed']}")
        if method == "sessions":
            rows = [record.describe()
                    for _, record in sorted(self._sessions.items())]
            text = "\n".join(
                f"  {row['name']:<16} {row['kind']:<7} {row['state']:<9}"
                f" holder={row['holder'] or '-'} epoch={row['epoch']}"
                f" requests={row['requests']}"
                for row in rows
            ) or "  no sessions"
            return (rows, text)
        if method == "methods":
            rows = wire_methods()
            text = "\n".join(
                f"  {row['op']:<24} {','.join(row['commands']) or '-':<10}"
                f" {row['summary']}"
                for row in rows
            )
            return (rows, text)
        if method == "metrics":
            snapshot = self.metrics.snapshot()
            per_session = self.metrics.labeled(
                "service.session_requests").by_label()
            result = {"snapshot": snapshot, "sessions": per_session}
            text = "\n".join(f"  {k}: {v}" for k, v in sorted(snapshot.items()))
            return (result, text)
        if method == "shutdown":
            self.shutdown_requested.set()
            return ({"shutdown": True}, "bye")
        raise ServiceError(
            f"unknown daemon method {method!r} (session methods need "
            f"a \"session\" field)"
        )

    def _session_op(self, session: str, method: str, args: list,
                    kwargs: dict, client: str):
        record = self._get(session)
        op = resolve_op(method)
        if op == "connect":
            self._attach(record, client, bool(kwargs.get("force", False)))
        else:
            self._check_holder(record, client)
        epoch = record.epoch
        failure: Optional[DebuggerError] = None
        result = None
        with record.lock:
            backend = self._materialize(record)
            record.requests += 1
            self.metrics.labeled("service.session_requests").inc(session)
            try:
                result = apply_op(backend, op, args, kwargs)
            except DebuggerError as exc:
                failure = exc
        # A forcible connect may have evicted this client while the
        # operation ran; whatever happened in there — result or error —
        # belongs to the new holder's world, so takeover wins.
        if record.epoch != epoch and record.holder != client:
            with self._lock:
                record.evicted.discard(client)
            raise SessionTakenError(
                f"evicted from session {record.name!r} during {op}"
            )
        if failure is not None:
            raise failure
        if op == "connect":
            result = {
                "infos": result,
                "session_id": getattr(backend, "session_id", None),
                "connected": list(getattr(backend, "connected_nodes", [])),
            }
        elif op == "disconnect":
            with self._lock:
                if record.holder == client:
                    record.holder = None
        return result, render_text(op, result)


# ----------------------------------------------------------------------
# Socket transport
# ----------------------------------------------------------------------


class _Handler(socketserver.StreamRequestHandler):
    """One connection: a loop of newline-framed request/response pairs."""

    def handle(self) -> None:
        """Serve request frames until EOF (the socketserver hook)."""
        service: PilgrimService = self.server.service  # type: ignore[attr-defined]
        while True:
            try:
                message = recv_message(self.rfile)
            except ServiceError as exc:
                send_message(self.wfile, {"id": None, "ok": False,
                                          "error": exc.to_wire()})
                if isinstance(exc, FrameTooLong):
                    return  # answered once; the line's rest cannot be skipped
                continue
            except OSError:
                return
            if message is None:
                return
            response = service.handle(message)
            try:
                send_message(self.wfile, response)
            except OSError:
                return
            if service.shutdown_requested.is_set():
                threading.Thread(target=self.server.shutdown,
                                 daemon=True).start()
                return


class _Server(socketserver.ThreadingMixIn, socketserver.UnixStreamServer):
    """Thread-per-connection Unix-domain stream server."""

    daemon_threads = True
    allow_reuse_address = False


def _clear_stale_socket(path: str) -> None:
    """Unlink a dead daemon's socket file; refuse to clobber a live one."""
    if not os.path.exists(path):
        return
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(0.5)
    try:
        probe.connect(path)
    except (ConnectionRefusedError, FileNotFoundError, socket.timeout, OSError):
        os.unlink(path)
    else:
        raise ServiceError(f"a daemon is already listening on {path}")
    finally:
        probe.close()


def serve(path: Optional[str] = None,
          ready: Optional[threading.Event] = None,
          service: Optional[PilgrimService] = None) -> PilgrimService:
    """Run a daemon on ``path`` until ``shutdown`` (blocking).

    ``ready`` is set once the socket is bound (tests and supervisors
    wait on it); the socket file is always removed on the way out.
    Returns the service for post-mortem inspection.
    """
    path = path or default_socket_path()
    service = service or PilgrimService()
    _clear_stale_socket(path)
    server = _Server(path, _Handler)
    server.service = service  # type: ignore[attr-defined]
    try:
        if ready is not None:
            ready.set()
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
        try:
            os.unlink(path)
        except OSError:
            pass
    return service
