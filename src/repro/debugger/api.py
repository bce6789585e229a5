"""The unified debugger session API: records, op registry, protocol, base.

One debugger, one command set.  This module is where that command set
is written down, once:

* the **typed records** (:class:`ProcessInfo`, :class:`Breakpoint`,
  :class:`Frame`, :class:`SessionStatus`, :class:`TraceSummary`) —
  small frozen dataclasses that double as the wire schema
  (``to_dict`` / ``from_dict``) and support read-only mapping access
  by field name (``frame["line"]``);
* the **plain-text renderers** of those records (``format_*``), shared
  by the REPL and the session daemon so both print the same bytes;
* :data:`OPS`, the **session-operation registry** — one :class:`Op` row
  per operation: name, one-line summary, capability group and renderer.
  The REPL's commands, the daemon's wire method table and text
  rendering, the :class:`~repro.service.client.RemoteSession` forwards
  and the typed refusals below are all derived from it;
* :class:`DebuggerSession`, the structural protocol every backend
  satisfies, and :class:`SessionBase`, the base class of the in-process
  backends (:class:`~repro.debugger.pilgrim.Pilgrim`,
  :class:`~repro.replay.session.TraceSession`,
  :class:`~repro.live.debugger.LiveDebugger`): a backend implements the
  groups it has and inherits, for every other registered op, a refusal
  with the stable ``unsupported`` error code — so a local caller and a
  remote one see the same typed error, never an ``AttributeError``.

Capability groups: ``control`` (session lifecycle, breakpoints,
execution, writes), ``inspect`` (processes, stacks, variables, clocks),
``rpc`` (call tables and diagnosis), ``record`` (start/stop a
recording), and the three that need a sealed trace — ``cursor`` (time
travel), ``contracts`` (the offline ``check``) and ``branches`` (what-if
forks).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import partial
from typing import (
    Any,
    Callable,
    Iterator,
    Optional,
    Protocol,
    Union,
    runtime_checkable,
)

from repro.debugger.errors import UnsupportedOperationError

#: How backends address a node: by id or by name (``None`` on backends
#: with a single implicit target, like the live debugger).
NodeRef = Union[int, str, None]


class Record:
    """Mixin for the frozen wire records: dict round-trip + mapping reads.

    ``to_dict``/``from_dict`` are the JSON wire schema; ``__getitem__``
    and ``get`` provide read-only mapping access by field name.
    """

    def to_dict(self) -> dict:
        """Serialize to the plain-JSON wire shape."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict):
        """Rebuild from :meth:`to_dict` output (unknown keys ignored)."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def __getitem__(self, key: str):
        try:
            return getattr(self, key)
        except AttributeError:
            raise KeyError(key) from None

    def get(self, key: str, default=None):
        """Mapping-style read with a default."""
        try:
            return self[key]
        except KeyError:
            return default

    def items(self) -> Iterator[tuple]:
        """Iterate (field, value) pairs in declaration order."""
        for f in fields(self):
            yield f.name, getattr(self, f.name)


@dataclass(frozen=True)
class ProcessInfo(Record):
    """One debuggable process (sim) or thread (live)."""

    pid: int
    name: str
    state: str
    priority: int = 0
    halt_exempt: bool = False
    waiting_on: Optional[str] = None
    #: Register snapshot — populated by ``process_state``, not listings.
    registers: Optional[dict] = None
    #: (module, func, pc) if stopped at a trap.
    trapped_at: Optional[tuple] = None

    @property
    def alive(self) -> bool:
        """Whether the process/thread is still live."""
        return self.state not in ("dead", "failed")


@dataclass(frozen=True)
class Breakpoint(Record):
    """A source-level breakpoint the debugger planted."""

    node: int
    module: str
    func: str
    pc: int
    line: int

    def key(self) -> tuple:
        """Identity tuple used to deduplicate/clear breakpoints."""
        return (self.node, self.module, self.func, self.pc)

    def __repr__(self) -> str:
        return (
            f"<Breakpoint node={self.node} {self.module}.{self.func}"
            f"@{self.pc} line {self.line}>"
        )


@dataclass(frozen=True)
class Frame(Record):
    """One stack frame of a backtrace (possibly synthetic, possibly remote).

    ``node``/``pid`` are filled in by distributed backtraces; synthetic
    frames represent the RPC runtime (``info_block`` names the call) or
    an unreachable hop (``unreachable`` + ``error``).
    """

    module: str = ""
    proc: str = ""
    line: int = 0
    pc: int = 0
    locals: dict = field(default_factory=dict)
    synthetic: bool = False
    info_block: Optional[dict] = None
    node: Optional[int] = None
    pid: Optional[int] = None
    unreachable: bool = False
    error: Optional[str] = None
    well_formed: bool = True


@dataclass(frozen=True)
class SessionStatus(Record):
    """Session/debuggee status summary, uniform across backends.

    ``mode`` identifies the backend (``sim`` / ``live`` / ``replay`` /
    ``remote``); backend-specific readings (reachability maps, live
    clock deltas) ride in ``extra`` and stay reachable through mapping
    access (``status["delta"]``).
    """

    mode: str
    session: Optional[int] = None
    connected: list = field(default_factory=list)
    breakpoints: int = 0
    halted: Optional[bool] = None
    time: Optional[int] = None
    recording: bool = False
    trace_loaded: bool = False
    extra: dict = field(default_factory=dict)

    def __getitem__(self, key: str):
        try:
            return super().__getitem__(key)
        except KeyError:
            if key in self.extra:
                return self.extra[key]
            raise KeyError(key) from None

    def items(self) -> Iterator[tuple]:
        """Named fields (minus unset optionals and ``extra``), then extras."""
        for f in fields(self):
            if f.name == "extra":
                continue
            value = getattr(self, f.name)
            if value is None and f.name in ("halted", "time", "session"):
                continue
            yield f.name, value
        yield from self.extra.items()


@dataclass(frozen=True)
class TraceSummary(Record):
    """What ``stop_recording`` reports over the wire: trace dimensions."""

    n_events: int
    n_checkpoints: int


# ----------------------------------------------------------------------
# Plain-text renderers: one rendering per record, used by the REPL and
# (through the registry below) by the session daemon.
# ----------------------------------------------------------------------


def format_process(info: ProcessInfo) -> str:
    """One ``ps`` table row."""
    waiting = f"  waiting on {info.waiting_on}" if info.waiting_on else ""
    exempt = "  [halt-exempt]" if info.halt_exempt else ""
    return (
        f"  pid {info.pid:<4} {info.name:<20} "
        f"{info.state:<8}{waiting}{exempt}"
    )


def format_processes(infos: list[ProcessInfo]) -> str:
    """The ``ps`` table of one node."""
    return "\n".join(format_process(info) for info in infos)


def format_all_processes(survey: dict) -> str:
    """Every connected node's ``ps`` table, then the unreachable nodes."""
    lines = []
    for node, infos in sorted(survey["nodes"].items()):
        lines.append(f"node {node}:")
        lines.extend(format_process(info) for info in infos)
    for row in survey["unreachable"]:
        lines.append(f"node {row['address']}: unreachable ({row['error']})")
    return "\n".join(lines)


def format_frames(frames: list[Frame], show_node: bool = False) -> str:
    """Backtrace lines (synthetic RPC-runtime frames included)."""
    lines = []
    for i, frame in enumerate(frames):
        where = f"[node {frame.node}] " if show_node else ""
        info = frame.info_block
        if frame.synthetic and info:
            lines.append(
                f"  #{i} {where}<rpc runtime> call #{info.get('call_id')} "
                f"{info.get('remote_proc')} [{info.get('state', 'serving')}]"
            )
            continue
        if frame.unreachable:
            lines.append(
                f"  #{i} {where}<unreachable node {frame.node}>: {frame.error}"
            )
            continue
        local_names = ", ".join(sorted(frame.locals)) or "-"
        lines.append(
            f"  #{i} {where}{frame.module}.{frame.proc} "
            f"line {frame.line}  locals: {local_names}"
        )
    return "\n".join(lines)


def format_status(status: SessionStatus) -> str:
    """``status`` listing: one ``key: value`` row per field."""
    return "\n".join(f"  {key}: {value}" for key, value in status.items())


def format_trace_summary(trace) -> str:
    """What ``record stop`` reports (a sealed trace or its summary)."""
    return (f"recorded {trace.n_events} events, "
            f"{trace.n_checkpoints} checkpoints; trace loaded")


def format_moment(moment) -> str:
    """Time-travel cursor summary."""
    view = moment.view
    lines = []
    if moment.event is not None:
        lines.append(f"  @#{moment.index - 1} {moment.event.line}")
    else:
        lines.append(f"  @#{moment.index} (before first event)")
    lines.append(f"  t={view.time}us")
    for node in sorted(view.halted):
        if view.halted[node]:
            lines.append(f"  node {node} halted (pids {view.halted[node]})")
    for node in sorted(view.in_flight):
        if view.in_flight[node]:
            lines.append(f"  node {node} rpc in flight: {view.in_flight[node]}")
    counts = ", ".join(f"{k}={v}" for k, v in sorted(view.counts.items()) if v)
    lines.append(f"  counts: {counts or '-'}")
    return "\n".join(lines)


def format_contract_report(report) -> str:
    """``check`` rendering: per-contract verdicts, then each violation."""
    lines = []
    for name, verdict in report.verdicts.items():
        lines.append(f"  {name:<28} {verdict}")
    for violation in report.violations:
        where = "" if violation.index is None else (
            f" at event #{violation.index} (t={violation.time}us)")
        lines.append(f"  FAIL {violation.contract}{where}: {violation.message}")
        for evidence in violation.evidence:
            lines.append(f"    | {evidence}")
    lines.append(
        f"  {'OK' if report.ok else 'VIOLATED'} "
        f"({len(report.verdicts)} contracts over {report.events} events)"
    )
    return "\n".join(lines)


def format_contract_catalog(rows) -> str:
    """``contracts`` listing: one row per shipped contract."""
    lines = []
    for row in rows:
        events = ", ".join(row["events"]) if row["events"] else "probe-only"
        lines.append(f"  {row['name']:<28} {row['description']}")
        lines.append(f"  {'':<28} folds: {events}")
    return "\n".join(lines)


def format_branch(info) -> str:
    """One ``branches`` table row (root and fork branches alike)."""
    parent = info.parent[:12] if info.parent else "-"
    note = f"  {info.note}" if info.note else ""
    return (
        f"  {info.id[:12]}  <- {parent:<12} @cp{info.checkpoint} "
        f"t={info.fork_time}us  {info.kind:<10} "
        f"events={info.events} final={info.final_time}us{note}"
    )


def format_branches(infos) -> str:
    """The full ``branches`` listing."""
    if not infos:
        return "  no branches (fork one first)"
    return "\n".join(format_branch(info) for info in infos)


def format_branch_diff(diff) -> str:
    """``diff`` rendering: first divergence, per-node times, end-state deltas."""
    if diff.identical:
        return f"  branches identical ({diff.events_a} events)"
    lines = []
    first = diff.first_divergence
    lines.append(f"  first divergence at event #{first['index']}:")
    lines.append(f"    a: {first['a'] if first['a'] is not None else '(ended)'}")
    lines.append(f"    b: {first['b'] if first['b'] is not None else '(ended)'}")
    for node, times in sorted(diff.per_node.items()):
        where = "bus" if node == -1 else f"node {node}"
        t_a = f"{times['time_a']}us" if times["time_a"] is not None else "-"
        t_b = f"{times['time_b']}us" if times["time_b"] is not None else "-"
        lines.append(f"  {where} diverges at a:{t_a} b:{t_b}")
    if diff.halted_a or diff.halted_b:
        lines.append(f"  halted at end: a={diff.halted_a or '-'} "
                     f"b={diff.halted_b or '-'}")
    for key, (count_a, count_b) in sorted(diff.count_delta.items()):
        lines.append(f"  counts.{key}: a={count_a} b={count_b}")
    divergence = getattr(diff, "first_contract_divergence", None)
    if divergence is not None:
        lines.append(
            f"  contract {divergence['contract']}: "
            f"a={divergence['a']} b={divergence['b']}"
        )
    lines.append(
        f"  events: a={diff.events_a} b={diff.events_b}  "
        f"final: a={diff.final_time_a}us b={diff.final_time_b}us"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The session-operation registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One session operation: the row everything else is derived from.

    ``name`` is the method name on every session class and the wire
    method name; ``summary`` is what ``help`` and the daemon's
    ``methods`` listing print and the docstring of generated methods;
    ``group`` is the capability the op belongs to; ``render`` turns the
    op's result into the plain text the REPL and the daemon print
    (``None``: no typed rendering — the daemon prints ``ok`` or JSON and
    the REPL command formats the result itself).
    """

    name: str
    group: str
    summary: str
    render: Optional[Callable[[Any], str]] = None


#: Every session operation, in the order the daemon's ``methods`` table
#: lists them: the ops with a REPL command first, in ``help`` order, then
#: the scripting-only ones.
OPS: dict[str, Op] = {op.name: op for op in (
    Op("connect", "control", "attach to nodes (force with 'connect! ...')"),
    Op("disconnect", "control", "end the session"),
    Op("processes", "inspect", "list processes on a node", format_processes),
    Op("set_breakpoint", "control", "set a breakpoint (node module line)"),
    Op("clear_breakpoint", "control", "clear breakpoint #1"),
    Op("run_for", "control", "let the program run for a while"),
    Op("wait_for_event", "control", "wait for the next breakpoint/failure event"),
    Op("backtrace", "inspect", "backtrace of pid 3 on node app", format_frames),
    Op("distributed_backtrace", "inspect", "distributed backtrace (follows RPCs)",
       partial(format_frames, show_node=True)),
    Op("display", "inspect", "show a variable via its print operation"),
    Op("write_var", "control", "write a variable (ints/strings)"),
    Op("step", "control", "single-step a trapped process"),
    Op("resume", "control", "resume from the breakpoint"),
    Op("halt", "control", "halt the whole program"),
    Op("rpc_info", "rpc", "show RPC call tables / recent outcomes"),
    Op("clocks", "inspect", "logical/real clocks and interruption total"),
    Op("start_recording", "record",
       "start recording; 'record stop' seals the trace for time travel"),
    Op("at", "cursor", "jump the time-travel cursor to a moment", format_moment),
    Op("reverse_step", "cursor", "step the cursor one event backwards", format_moment),
    Op("forward_step", "cursor", "step the cursor one event forwards", format_moment),
    Op("why_halted", "cursor", "explain why the program is halted here"),
    Op("check", "contracts",
       "fold contracts over the loaded trace (default: the trace's set)",
       format_contract_report),
    Op("contracts", "inspect", "list the shipped contract catalogue",
       format_contract_catalog),
    Op("causal_predecessors", "cursor", "causal predecessors of trace event #42"),
    Op("fork", "branches", "fork the trace at checkpoint #1 into a what-if branch",
       format_branch),
    Op("branches", "branches", "list the branches forked off the loaded trace",
       format_branches),
    Op("diff_branches", "branches",
       "event-graph diff between two branches (ids or prefixes)", format_branch_diff),
    Op("status", "inspect", "session summary", format_status),
    Op("reattach", "control", "re-adopt a node that became reachable again"),
    Op("wait_for_breakpoint", "control", "block until some breakpoint is hit"),
    Op("wait_for_failure", "control", "block until a process failure is reported"),
    Op("halt_all", "control", "halt every connected node at once"),
    Op("all_processes", "inspect", "process tables of every connected node",
       format_all_processes),
    Op("process_state", "inspect", "registers/state of one process"),
    Op("read_var", "inspect", "read a frame variable (raw value)"),
    Op("read_global", "inspect", "read a module global"),
    Op("write_global", "control", "write a module global"),
    Op("invoke", "control", "call a procedure inside the debuggee"),
    Op("wake_process", "control", "force a waiting process runnable"),
    Op("rpc_server_record", "rpc", "server-side record of one RPC call"),
    Op("diagnose_maybe_failure", "rpc", "classify a maybe-failed RPC call"),
    Op("stop_recording", "record", "seal the trace and load it for time travel",
       format_trace_summary),
    Op("total_interruption", "inspect", "debugger-caused interruption total (us)"),
)}


def install_ops(cls: type, make: Callable[[Op], Callable],
                groups: Optional[tuple] = None) -> None:
    """Generate the registered ops ``cls`` does not define itself.

    ``make(op)`` builds the method body for one row; the method takes
    its ``__name__`` and docstring from the row and is set as a real
    class attribute, so ``isinstance(obj, DebuggerSession)`` holds and
    ``help()`` shows it.  ``groups`` restricts generation to those
    capability groups.
    """
    for op in OPS.values():
        if op.name in vars(cls) or (groups and op.group not in groups):
            continue
        method = make(op)
        method.__name__ = op.name
        method.__qualname__ = f"{cls.__name__}.{op.name}"
        method.__doc__ = op.summary
        setattr(cls, op.name, method)


@runtime_checkable
class DebuggerSession(Protocol):
    """What every Pilgrim debugger frontend exposes.

    The signatures are typed over the wire records above.  Backends
    differ only in *addressing*: the sim backend names targets as
    ``(node, pid)`` and breakpoints as ``(node, module, line)``; the
    live backend has one implicit target, so its ``node`` arguments
    accept ``None``.  ``isinstance(obj, DebuggerSession)`` checks
    structurally.
    """

    def connect(self, *targets: Union[int, str], force: bool = False):
        """Open a session with the target node(s)/process.

        A second ``connect`` while another session holds the target is
        refused unless ``force=True``, which abandons the holder (the
        paper's forcible-connect semantics).
        """

    def disconnect(self) -> None:
        """End the session; the debuggee keeps running."""

    def processes(self, node: NodeRef = None) -> list[ProcessInfo]:
        """List debuggable processes/threads."""

    def set_breakpoint(
        self,
        node: NodeRef = None,
        module: str = "",
        line: Optional[int] = None,
        func: Optional[str] = None,
        pc: Optional[int] = None,
    ) -> Breakpoint:
        """Plant a breakpoint at source coordinates."""

    def clear_breakpoint(self, bp: Breakpoint) -> None:
        """Remove a previously set breakpoint."""

    def wait_for_breakpoint(self, timeout: Optional[int] = None) -> dict:
        """Block until a breakpoint is hit (or time out)."""

    def halt(self, node: NodeRef = None):
        """Stop the whole program."""

    def resume(self, node: NodeRef = None):
        """Continue the whole program."""

    def step(self, node: NodeRef = None, pid: Optional[int] = None) -> dict:
        """Single-step one trapped process."""

    def backtrace(self, node: NodeRef = None, pid: Optional[int] = None) -> list[Frame]:
        """Stack frames of one process."""

    def read_var(
        self, node: NodeRef = None, pid: Optional[int] = None,
        name: str = "", frame: int = 0,
    ) -> Any:
        """Read a variable in some frame."""

    def status(self) -> SessionStatus:
        """Session/debuggee status summary."""

    def fork(self, perturbation, checkpoint: int = 0,
             parent: Optional[str] = None, builder=None,
             run_until: Optional[int] = None):
        """Fork a loaded trace at a checkpoint into a perturbed branch.

        The what-if future re-executes the recording's recipe with the
        perturbation merged in; the session's own world and trace are
        never touched.
        Backends with nothing to fork raise the typed ``unsupported``
        error.
        """

    def branches(self) -> list:
        """List the branches forked off the loaded trace (root first)."""

    def diff_branches(self, a: str, b: str):
        """Event-graph diff between two branches (first divergent event,
        per-node divergence times, halt-state deltas)."""


class SessionBase:
    """Base class of the in-process backends: unimplemented ops refuse.

    A backend defines the operations it offers; every other row of
    :data:`OPS` (bar the static ``contracts`` listing) resolves here and
    raises :class:`~repro.debugger.errors.UnsupportedOperationError`
    (wire code ``unsupported``) with the backend's :attr:`refusal` reason.
    """

    #: Completes "<op> is not available on ..." — why this backend
    #: refuses the ops it does not implement.
    refusal = "this session"

    def contracts(self) -> list:
        """The shipped contract catalogue (listing rows).

        The one op answered here: the catalogue belongs to the tool, not
        to a target, so every backend lists it — trace loaded or not.
        """
        from repro.contracts.dsl import catalog
        return catalog()


def _refused(op: Op) -> Callable:
    def method(self, *args, **kwargs):
        raise UnsupportedOperationError(
            f"{op.name} is not available on {self.refusal}")
    return method


install_ops(SessionBase, _refused)
