"""The wire encoding: newline-delimited JSON with tagged typed payloads.

Framing is one JSON document per line (the same discipline as the live
agent and the JSONL trace export): a request is ::

    {"id": 7, "method": "set_breakpoint", "session": "w1",
     "client": "cli", "params": {"args": [...], "kwargs": {...}}}

and the response either ``{"id": 7, "ok": true, "result": ..., "text":
"..."}`` or ``{"id": 7, "ok": false, "error": {"code": ..., "message":
...}}`` — ``text`` being the daemon's plain-text rendering of the
result (shared with the REPL formatters, so agents and shell pipelines
get readable output without decoding the structured payload).

JSON alone cannot carry the typed session API, so values are encoded
with two tags:

* ``{"__rec__": "<ClassName>", ...fields...}`` — a typed record: the
  frozen wire dataclasses of :mod:`repro.debugger.api` plus the replay
  types (:class:`~repro.replay.timetravel.Moment`,
  :class:`~repro.replay.checkpoint.StateView`,
  :class:`~repro.replay.trace.TraceEvent`).  The decoder rebuilds the
  *same class*, so a remote ``backtrace`` returns genuine
  :class:`~repro.debugger.api.Frame` objects.
* ``{"__kv__": [[key, value], ...]}`` — a mapping with non-string keys
  (``connect`` answers a dict keyed by integer node address), which
  plain JSON would silently stringify.

Unknown ``__rec__`` tags decode to plain dicts rather than failing, so
an old client degrades gracefully against a newer daemon; a malformed
body (a record missing a field, a ``__kv__`` that is not a list of
pairs) raises :class:`~repro.debugger.errors.ServiceError`.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from typing import Any, Optional

from repro.debugger.api import (
    Breakpoint,
    Frame,
    ProcessInfo,
    Record,
    SessionStatus,
    TraceSummary,
)
from repro.debugger.errors import ServiceError
from repro.contracts.report import ContractReport, ContractViolation
from repro.replay.branch import BranchDiff, BranchInfo
from repro.replay.checkpoint import StateView
from repro.replay.timetravel import Moment
from repro.replay.trace import TraceEvent

#: Version stamp carried in the daemon's ``ping`` reply.
PROTOCOL_VERSION = 1

#: Tag name -> record class, for every type the wire can carry.
RECORD_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in (ProcessInfo, Breakpoint, Frame, SessionStatus, TraceSummary,
                BranchInfo, BranchDiff, ContractReport, ContractViolation)
}

_REC = "__rec__"
_KV = "__kv__"


def wire_encode(value: Any) -> Any:
    """Encode a typed Python value into JSON-safe tagged form."""
    if isinstance(value, Record):
        payload = {_REC: type(value).__name__}
        for f in fields(value):
            payload[f.name] = wire_encode(getattr(value, f.name))
        return payload
    if isinstance(value, Moment):
        return {
            _REC: "Moment",
            "index": value.index,
            "time": value.time,
            "view": wire_encode(value.view),
            "event": wire_encode(value.event),
        }
    if isinstance(value, StateView):
        return {_REC: "StateView", **value.to_dict()}
    if isinstance(value, TraceEvent):
        return {_REC: "TraceEvent", **value.to_dict()}
    if isinstance(value, dict):
        if all(isinstance(key, str) for key in value) and \
                _REC not in value and _KV not in value:
            return {key: wire_encode(item) for key, item in value.items()}
        return {_KV: [[wire_encode(key), wire_encode(item)]
                      for key, item in value.items()]}
    if isinstance(value, (list, tuple)):
        return [wire_encode(item) for item in value]
    if is_dataclass(value) and not isinstance(value, type):
        # A dataclass outside the registry (defensive): ship its fields.
        return {f.name: wire_encode(getattr(value, f.name))
                for f in fields(value)}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    # A live object with no wire form (e.g. the TraceWriter handle
    # ``start_recording`` returns): degrade to its repr rather than
    # poisoning the whole response frame.
    return repr(value)


def _decode_record(payload: dict) -> Any:
    tag = payload[_REC]
    body = {key: _decode(item)
            for key, item in payload.items() if key != _REC}
    cls = RECORD_TYPES.get(tag)
    if cls is not None:
        return cls.from_dict(body)
    if tag == "Moment":
        return Moment(index=body["index"], time=body["time"],
                      view=body["view"], event=body["event"])
    if tag == "StateView":
        return StateView.from_dict(body)
    if tag == "TraceEvent":
        # The body is exactly TraceEvent.to_dict() output.
        return TraceEvent.from_dict(body)
    # Forward compatibility: an unknown record arrives as a plain dict.
    return body


def _decode(value: Any) -> Any:
    if isinstance(value, dict):
        if _REC in value:
            return _decode_record(value)
        if _KV in value:
            return {_decode(key): _decode(item) for key, item in value[_KV]}
        return {key: _decode(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode(item) for item in value]
    return value


def wire_decode(value: Any) -> Any:
    """Rebuild the typed Python value a tagged payload describes; a
    malformed one raises :class:`~repro.debugger.errors.ServiceError`."""
    try:
        return _decode(value)
    except (LookupError, TypeError, ValueError, AttributeError, RecursionError) as exc:
        raise ServiceError(f"malformed payload: {type(exc).__name__}: {exc}") from None


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


def send_message(wfile, payload: dict) -> None:
    """Write one newline-framed JSON message and flush it."""
    wfile.write((json.dumps(payload) + "\n").encode("utf-8"))
    wfile.flush()


#: The longest frame, newline included, a reader takes: 160 times the
#: largest the tests and the perf ledger exchange (a 100 KB nesting
#: probe; the largest reply is 11 KB), and what one peer line may hold.
MAX_FRAME_BYTES = 1 << 24


class FrameTooLong(ServiceError):
    """A line past :data:`MAX_FRAME_BYTES`: its rest is unread, so no later frame can be found."""


def recv_message(rfile) -> Optional[dict]:
    """Read one newline-framed JSON message; ``None`` at EOF.  A longer
    line than :data:`MAX_FRAME_BYTES` raises :class:`FrameTooLong`."""
    raw = rfile.readline(MAX_FRAME_BYTES + 1)
    if len(raw) > MAX_FRAME_BYTES:
        raise FrameTooLong(f"frame longer than {MAX_FRAME_BYTES} bytes")
    if not raw:
        return None
    try:
        message = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # also a too-deeply nested frame
        raise ServiceError(f"undecodable frame: {exc}") from None
    if not isinstance(message, dict):
        raise ServiceError(f"frame is {type(message).__name__}, not an object")
    return message
