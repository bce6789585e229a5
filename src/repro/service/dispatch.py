"""Method dispatch, derived from the session-operation registry.

The wire protocol's per-session methods are the rows of
:data:`~repro.debugger.api.OPS`; a REPL command name
(:data:`~repro.debugger.repl.COMMANDS`) is accepted as an alias of the
op it fronts, so ``bt`` and ``backtrace`` are the same wire method.

:func:`render_text` is the daemon's plain-text rendering of a result.
For an op whose row has a renderer it is the one the REPL command prints
with, so ``call`` output from a shell, the REPL over a socket and the
in-process REPL print the same bytes.  For an op without one the daemon
prints ``ok`` or JSON, while the REPL command formats the result itself.
"""

from __future__ import annotations

import copy
import json
from typing import Any, Optional

from repro.debugger.api import OPS, TraceSummary
from repro.debugger.errors import ServiceError
from repro.debugger.repl import COMMANDS
from repro.replay import Moment, Trace
from repro.service.protocol import wire_encode


def wire_methods() -> list[dict]:
    """The daemon's method table: one row per registered op.

    ``{"op", "commands", "summary"}`` where ``commands`` lists the
    interactive aliases (possibly empty), in registry order.
    """
    return [
        {"op": op.name,
         "commands": [c.name for c in COMMANDS.values() if c.op == op.name],
         "summary": op.summary}
        for op in OPS.values()
    ]


def resolve_op(method: str) -> str:
    """Map a wire method name (op or REPL alias) to the session op."""
    command = COMMANDS.get(method)
    if command is not None and command.op is not None:
        return command.op
    if method in OPS:
        return method
    raise ServiceError(f"unknown method {method!r} (known: {', '.join(OPS)})")


def apply_op(backend: Any, op: str, args: list, kwargs: dict) -> Any:
    """Invoke one session operation on a backend.

    A backend that does not offer the operation refuses it itself (see
    :class:`~repro.debugger.api.SessionBase`); a sealed :class:`Trace`
    result is shrunk to its :class:`~repro.debugger.api.TraceSummary` —
    the trace itself stays on the daemon, loaded for time travel.
    """
    result = getattr(backend, op)(*args, **kwargs)
    if isinstance(result, Trace):
        return TraceSummary(n_events=result.n_events,
                            n_checkpoints=result.n_checkpoints)
    if isinstance(result, Moment):
        # A copy builds its event and view now, under the session's lock.
        return copy.copy(result)
    return result


def render_text(op: str, result: Any) -> str:
    """Plain-text rendering of a result (REPL-identical where typed)."""
    render = OPS[op].render
    if render is not None:
        return render(result)
    if result is None:
        return "ok"
    return json.dumps(wire_encode(result), default=str, sort_keys=True)


def decode_params(params: Optional[dict]) -> tuple[list, dict]:
    """Split a request's ``params`` into ``(args, kwargs)``.

    Accepts the canonical ``{"args": [...], "kwargs": {...}}`` envelope
    or, for hand-written clients, a flat object treated as kwargs.
    """
    if not params:
        return [], {}
    if "args" in params or "kwargs" in params:
        args = params.get("args") or []
        kwargs = params.get("kwargs") or {}
    else:
        args, kwargs = [], dict(params)
    if not isinstance(args, list) or not isinstance(kwargs, dict):
        raise ServiceError("params must be {args: [...], kwargs: {...}}")
    return args, kwargs
