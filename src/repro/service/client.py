"""The daemon's client half: raw requests and the typed remote session.

:class:`ServiceClient` owns one socket to the daemon and speaks the
frame protocol: request out, response in, typed errors re-raised via
:func:`~repro.debugger.errors.error_from_wire` (an
``unreachable_node`` raised inside the daemon arrives here as an
:class:`UnreachableNodeError`).  Connection establishment retries with
backoff so a client racing a booting daemon wins; a reply that misses
the host-time budget raises :class:`RequestTimeoutError` (code
``timeout``).

:class:`RemoteSession` is the thin proxy that makes a daemon session
look like an in-process backend: one forward per row of the
session-operation registry (:data:`~repro.debugger.api.OPS`), returning
genuine :class:`Frame` / :class:`ProcessInfo` / :class:`Moment`
objects, so the REPL and scripts run against it unmodified and render
byte-identical plain text.
"""

from __future__ import annotations

import itertools
import os
import socket
import threading
import time
from typing import Any, Optional, Union

from repro.debugger.api import Op, install_ops
from repro.debugger.errors import (
    RequestTimeoutError,
    ServiceError,
    error_from_wire,
)
from repro.service.protocol import recv_message, send_message, wire_decode, wire_encode

_client_ids = itertools.count(1)


class ServiceClient:
    """One connection to the session daemon.

    ``client`` is the identity the daemon's holder bookkeeping sees; it
    defaults to a per-process unique id, so two clients in one test are
    distinct, and a CLI can pass a stable id to reattach across
    invocations.
    """

    def __init__(self, path: str, timeout: float = 30.0,
                 connect_retries: int = 20, retry_delay: float = 0.05,
                 client: Optional[str] = None):
        self.path = str(path)
        self.timeout = timeout
        self.client_id = client or f"client-{os.getpid()}-{next(_client_ids)}"
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._dial(connect_retries, retry_delay)

    def _dial(self, retries: int, delay: float) -> None:
        """Connect with linear backoff (the daemon may still be booting)."""
        last: Optional[Exception] = None
        for attempt in range(max(1, retries)):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            try:
                sock.connect(self.path)
            except OSError as exc:
                sock.close()
                last = exc
                time.sleep(delay * (attempt + 1))
                continue
            self._sock = sock
            self._file = sock.makefile("rwb")
            return
        raise ServiceError(
            f"cannot reach a daemon at {self.path} "
            f"after {retries} attempts: {last}"
        )

    def close(self) -> None:
        """Drop the connection (daemon-side sessions stay)."""
        with self._lock:
            if self._file is not None:
                try:
                    self._file.close()
                    self._sock.close()
                except OSError:
                    pass
                self._file = None
                self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------

    def request(self, method: str, *, session: Optional[str] = None,
                args: tuple = (), kwargs: Optional[dict] = None,
                raw: bool = False) -> Any:
        """One request/response round trip.

        Returns the decoded ``result`` (or, with ``raw=True``, the whole
        response object including the daemon's plain-text rendering).
        Daemon-reported failures re-raise as their typed exception.
        """
        if self._file is None:
            raise ServiceError("client is closed")
        payload = {
            "id": next(self._ids),
            "method": method,
            "client": self.client_id,
            "params": {
                "args": wire_encode(list(args)),
                "kwargs": wire_encode(dict(kwargs or {})),
            },
        }
        if session is not None:
            payload["session"] = session
        with self._lock:
            try:
                send_message(self._file, payload)
                response = recv_message(self._file)
            except socket.timeout:
                raise RequestTimeoutError(
                    f"no reply to {method!r} within {self.timeout}s"
                ) from None
        if response is None:
            raise ServiceError("daemon closed the connection")
        if not response.get("ok"):
            raise error_from_wire(response.get("error") or {})
        if raw:
            return response
        return wire_decode(response.get("result"))

    def text(self, method: str, *, session: Optional[str] = None,
             args: tuple = (), kwargs: Optional[dict] = None) -> str:
        """The daemon's plain-text rendering of one request."""
        return self.request(method, session=session, args=args,
                            kwargs=kwargs, raw=True).get("text", "")

    # -- daemon-level conveniences --------------------------------------

    def ping(self) -> dict:
        """Liveness + protocol version check."""
        return self.request("ping")

    def open(self, name: str, kind: str = "world", **spec) -> dict:
        """Register a named (dormant) session on the daemon."""
        return self.request("open", kwargs={"name": name, "kind": kind,
                                            "spec": spec})

    def close_session(self, name: str) -> dict:
        """Drop one named session."""
        return self.request("close", kwargs={"name": name})

    def sessions(self) -> list:
        """The daemon's session table."""
        return self.request("sessions")

    def methods(self) -> list:
        """The wire method table (one row per registered session op)."""
        return self.request("methods")

    def metrics(self) -> dict:
        """Daemon metrics snapshot + per-session request counts."""
        return self.request("metrics")

    def shutdown(self) -> dict:
        """Ask the daemon to exit cleanly."""
        return self.request("shutdown")

    def session(self, name: str) -> "RemoteSession":
        """A typed :class:`RemoteSession` proxy for one named session."""
        return RemoteSession(self, name)


class RemoteSession:
    """A daemon session through the typed ``DebuggerSession`` surface.

    Every row of :data:`~repro.debugger.api.OPS` is a method here, and
    each call is one wire round trip.  Only ``connect``, ``disconnect``
    and ``fork`` are written out (they keep local state or translate an
    argument); the rest are generated below as plain forwards, so the
    daemon applies the backend's own defaults and refusals.  Holder
    semantics live on the daemon: the first ``connect`` (or first
    operation) adopts the session, a competing ``connect`` needs
    ``force=True`` and evicts this proxy, whose next call raises
    :class:`~repro.debugger.errors.SessionTakenError`.
    """

    def __init__(self, client: ServiceClient, name: str):
        self._client = client
        self.name = name
        self.session_id: Optional[int] = None
        self.connected_nodes: list = []

    def _call(self, op: str, *args, **kwargs) -> Any:
        return self._client.request(op, session=self.name,
                                    args=args, kwargs=kwargs)

    def connect(self, *targets: Union[int, str], force: bool = False) -> dict:
        """Open (or forcibly take over) the session and its backend."""
        result = self._call("connect", *targets, force=force)
        self.session_id = result.get("session_id")
        self.connected_nodes = list(result.get("connected", []))
        return result.get("infos", {})

    def disconnect(self) -> None:
        """Detach; the session parks and the debuggee continues."""
        self._call("disconnect")
        self.session_id = None

    def fork(self, perturbation, checkpoint: int = 0,
             parent: Optional[str] = None, builder=None,
             run_until: Optional[int] = None):
        """Fork the session's trace into a what-if branch (daemon-side).

        ``perturbation`` may be a
        :class:`~repro.replay.branch.Perturbation` (sent in its dict
        form) or the dict itself; ``builder`` must be a JSON-safe
        reference (``"scenario:NAME"`` / ``"module:function"``).
        Returns the branch's :class:`~repro.replay.branch.BranchInfo`.
        """
        if hasattr(perturbation, "to_dict"):
            perturbation = perturbation.to_dict()
        kwargs: dict = {"checkpoint": checkpoint, "parent": parent,
                        "run_until": run_until}
        if builder is not None:
            kwargs["builder"] = builder
        return self._call("fork", perturbation, **kwargs)

    def __repr__(self) -> str:
        return (f"<RemoteSession {self.name!r} via {self._client.path} "
                f"session={self.session_id}>")


def _forward(op: Op):
    def method(self, *args, **kwargs):
        return self._call(op.name, *args, **kwargs)
    return method


install_ops(RemoteSession, _forward)
