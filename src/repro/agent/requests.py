"""Agent request/response vocabulary.

Every logical debugger request is a single network interaction (paper §3:
"Expressing each logical request from the debugger as a single network
interaction improves the overall performance").  Requests and responses
are plain dicts on the wire; this module names the request kinds and the
special values, and makes the refusals every agent makes before it runs
a request (:func:`check_request`).
"""

from repro.debugger.errors import AgentError

# Session management
CONNECT = "connect"
DISCONNECT = "disconnect"

# Process inspection and control (paper §5.4)
LIST_PROCESSES = "list_processes"
PROCESS_STATE = "process_state"
BACKTRACE = "backtrace"
WAKE_PROCESS = "wake_process"

# Memory access
READ_VAR = "read_var"
WRITE_VAR = "write_var"
READ_GLOBAL = "read_global"
WRITE_GLOBAL = "write_global"

# Breakpoints (paper §5.5)
SET_BREAKPOINT = "set_breakpoint"
CLEAR_BREAKPOINT = "clear_breakpoint"
STEP = "step"
CONTINUE = "continue"
HALT = "halt"

# Procedure invocation / display (paper §3)
INVOKE = "invoke"
DISPLAY = "display"

# RPC debugging (paper §4)
RPC_INFO = "rpc_info"
RPC_SERVER_RECORD = "rpc_server_record"

# Peer coordination (paper §5.2)
SET_PEERS = "set_peers"

# Events pushed from agent to debugger
EVENT_BREAKPOINT = "breakpoint"
EVENT_FAILURE = "failure"
EVENT_STEPPED = "stepped"

#: The network-address value meaning "not under control of a debugger"
#: (the special value of get_debuggee_status, paper §6.1).
NO_DEBUGGER = -1

AGENT_PORT = "agent"
DEBUGGER_PORT = "pilgrim"

#: The halt-exempt RPC service every agent exports for shared servers
#: (get_debuggee_status lives here, paper §6.1).
DEBUG_SERVICE = "_debug"


def check_request(agent, request: dict):
    """Return ``(handler, args)`` for a request ``agent`` will run.

    Refuses (:class:`AgentError`) a session other than the agent's (a
    ``connect`` carries none yet), an op it has no ``_op_*`` for, and
    ``args`` that is not an object.
    """
    op = request.get("op")
    if op != CONNECT and (agent.session_id is None
                          or request.get("session") != agent.session_id):
        raise AgentError("bad or stale session identifier")
    handler = getattr(agent, f"_op_{op}", None)
    if handler is None:
        raise AgentError(f"unknown request {op!r}")
    args = request.get("args", {})
    if not isinstance(args, dict):
        raise AgentError(f"args must be an object, not {type(args).__name__}")
    return handler, args
