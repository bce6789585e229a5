"""The unified debugger error hierarchy with stable wire codes.

Every failure a debugger backend can raise derives from
:class:`DebuggerError` and carries a *machine-readable* ``code`` that is
stable across releases.  The codes exist for the wire: when the session
daemon (:mod:`repro.service`) relays a failure to a remote client, the
error is serialized with :meth:`DebuggerError.to_wire` and re-raised on
the client by :func:`error_from_wire` as the *same class* — an
:class:`UnreachableNodeError` raised inside the daemon arrives as an
:class:`UnreachableNodeError` in the caller's process, attempt history
and all, not as a stringified traceback.

The catalogue:

====================  =======================================
``debugger_error``    generic debugger-side failure / timeout
``agent_rejected``    the agent refused a request
``unreachable_node``  retries exhausted, node declared down
``bad_session``       request for an unknown/stale session
``session_held``      connect refused: another client holds it
``takeover``          evicted by a forcible connect
``divergence``        replay diverged from the recording
``unsupported``       operation not offered by this backend
``timeout``           a remote call ran out of (host) time
``service_error``     daemon-side dispatch/protocol failure
====================  =======================================
"""

from __future__ import annotations

from typing import Optional


class DebuggerError(Exception):
    """A debugger-side failure (timeout, protocol error).

    Where the failure concerns a particular node, the exception carries
    the node's name and address, the debugger's reachability verdict
    (``up`` / ``suspect`` / ``down``), and the per-attempt retry history
    (send time, timeout, backoff) so recovery code and error reports
    need not reconstruct them.
    """

    #: Stable machine-readable identity; subclasses override it.
    code = "debugger_error"

    def __init__(
        self,
        message: str,
        node: Optional[str] = None,
        address: Optional[int] = None,
        state: Optional[str] = None,
        attempts: Optional[list] = None,
    ):
        super().__init__(message)
        self.node = node
        self.address = address
        self.state = state
        self.attempts = attempts if attempts is not None else []

    def to_wire(self) -> dict:
        """Serialize for the service protocol; lossless via ``from_wire``."""
        payload = {"code": self.code, "message": str(self)}
        if self.node is not None:
            payload["node"] = self.node
        if self.address is not None:
            payload["address"] = self.address
        if self.state is not None:
            payload["state"] = self.state
        if self.attempts:
            payload["attempts"] = self.attempts
        return payload


class AgentError(DebuggerError):
    """The agent rejected a request (which proves the node is alive)."""

    code = "agent_rejected"


class UnreachableNodeError(DebuggerError):
    """Every retry of a request timed out: the node is declared down.

    The node may be crashed, rebooting, or partitioned away; the session
    survives — other nodes remain debuggable and the node can be
    re-adopted with :meth:`~repro.debugger.pilgrim.Pilgrim.reattach`
    once it answers again.
    """

    code = "unreachable_node"


class BadSessionError(DebuggerError):
    """The request names a session the receiver does not know."""

    code = "bad_session"


class SessionHeldError(DebuggerError):
    """Connect refused: another client already holds the session.

    The paper's semantics: a second ``connect`` on a held session fails
    unless it is *forcible* (``force=True``), which abandons the holder.
    """

    code = "session_held"


class SessionTakenError(DebuggerError):
    """The caller was evicted from the session by a forcible connect."""

    code = "takeover"


class UnsupportedOperationError(DebuggerError):
    """The backend does not offer this operation (e.g. live ops on a trace)."""

    code = "unsupported"


class ForkUnavailableError(UnsupportedOperationError):
    """No ``fork(2)`` here.  Campaign fleet workers must inherit registered
    scenarios, builder callables and the compile memo; a re-importing
    start method would silently lose them, so there is none."""


def fork_context():
    """The ``fork`` multiprocessing context, or the one typed refusal
    (raised before any process or work starts)."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        raise ForkUnavailableError(
            "this platform has no fork(2); run the campaign in-process "
            "instead: workers=1")
    return multiprocessing.get_context("fork")


class RequestTimeoutError(DebuggerError):
    """A remote call got no reply within the host-time budget."""

    code = "timeout"


class ServiceError(DebuggerError):
    """A daemon-side dispatch or protocol failure (not a backend error)."""

    code = "service_error"


#: Wire code -> class, for lossless round-trips.  Built from the leaf
#: classes so adding a subclass automatically extends the catalogue.
ERROR_CODES: dict[str, type] = {
    cls.code: cls
    for cls in (
        DebuggerError,
        AgentError,
        UnreachableNodeError,
        BadSessionError,
        SessionHeldError,
        SessionTakenError,
        UnsupportedOperationError,
        RequestTimeoutError,
        ServiceError,
    )
}


def register_error(cls: type) -> type:
    """Class decorator: add a :class:`DebuggerError` subclass to the wire
    catalogue (used by packages that extend the hierarchy, e.g. replay's
    divergence error)."""
    ERROR_CODES[cls.code] = cls
    return cls


def error_from_wire(payload: dict) -> DebuggerError:
    """Rebuild the typed exception a wire error payload describes.

    Unknown codes degrade to :class:`DebuggerError` (never to a plain
    string), keeping old clients functional against newer daemons; a
    payload that is not an object with a text code is a
    :class:`ServiceError`.
    """
    if not isinstance(payload, dict) or not isinstance(payload.get("code", ""), str):
        return ServiceError(f"malformed error payload: {payload!r}")
    cls = ERROR_CODES.get(payload.get("code", ""), DebuggerError)
    try:
        exc = cls(
            payload.get("message", "remote debugger error"),
            node=payload.get("node"),
            address=payload.get("address"),
            state=payload.get("state"),
            attempts=payload.get("attempts"),
        )
    except TypeError:
        # A subclass with a custom constructor (e.g. ReplayDivergence):
        # degrade to the base class but keep the code visible.
        exc = DebuggerError(payload.get("message", "remote debugger error"))
        exc.code = payload.get("code", "debugger_error")
    return exc
