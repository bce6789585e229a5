"""An interactive command layer over :class:`~repro.debugger.pilgrim.Pilgrim`.

This is the "user interface" half that the paper assigns to the debugger
proper.  Commands mirror a classic source-level debugger, extended with
Pilgrim's distributed operations: breakpoints, distributed backtraces
that follow RPCs, record/replay, and time-travel queries.

Every command is declared once, via the :func:`_command` decorator on
its handler; the registry (:data:`COMMANDS`) is what both dispatch and
the ``help`` text are derived from.  A command that fronts a session
operation names its row of :data:`~repro.debugger.api.OPS` and takes
its summary and its result rendering from there, so ``help``, the
daemon's ``methods`` table and both renderings of a result are one
definition.  Run ``help`` in a session (or call :func:`help_text`) for
the full list.

The REPL is synchronous over virtual time: every command drives the
simulation just far enough to complete.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass
from typing import Callable, Optional

from repro.debugger.api import OPS, Breakpoint, DebuggerSession
from repro.debugger.errors import AgentError, DebuggerError
from repro.sim.units import MS, SEC


def parse_duration(text: str) -> int:
    """'100ms' / '2s' / '500us' -> microseconds."""
    text = text.strip().lower()
    if text.endswith("ms"):
        return int(float(text[:-2]) * MS)
    if text.endswith("us"):
        return int(float(text[:-2]))
    if text.endswith("s"):
        return int(float(text[:-1]) * SEC)
    return int(text)


def parse_value(text: str):
    """Parse a REPL literal: bool, int, or (quoted) string."""
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        return text.strip('"')


@dataclass(frozen=True)
class Command:
    """One REPL command: its name, example usage, and one-line summary.

    ``op`` names the :data:`~repro.debugger.api.OPS` row the command
    fronts — the session daemon accepts the command name as an alias of
    that wire method.  Client-side-only commands (``help``, ``quit``)
    have ``op=None``.
    """

    name: str
    usage: str
    summary: str
    op: Optional[str] = None


#: Registry of every REPL command, in declaration order: REPL dispatch,
#: the generated ``help`` text, and the daemon's method aliases.
COMMANDS: dict[str, Command] = {}


def _command(usage: str, op: Optional[str] = None, summary: str = "") -> Callable:
    """Register a ``cmd_*`` method as a REPL command.

    ``usage`` is the example invocation shown by ``help``.  ``op`` is
    the session operation the command fronts; it must be a row of
    :data:`~repro.debugger.api.OPS` (checked here, at import time), and
    the row's summary is the command's.  A client-side command has no
    op and gives its ``summary`` (not a docstring: ``python -OO`` strips
    those).
    """
    if op is not None and op not in OPS:
        raise LookupError(f"REPL command fronts unregistered op {op!r}")

    def register(method: Callable) -> Callable:
        name = method.__name__.removeprefix("cmd_")
        COMMANDS[name] = Command(name=name, usage=usage, op=op,
                                 summary=OPS[op].summary if op is not None else summary)
        return method
    return register


def help_text() -> str:
    """Render the ``help`` listing from the command registry."""
    width = max(len(command.usage) for command in COMMANDS.values())
    return "\n".join(
        f"    {command.usage:<{width}}  {command.summary}"
        for command in COMMANDS.values()
    )


class PilgrimRepl:
    """Command dispatcher; ``output`` collects printed lines.

    ``pilgrim`` is any :class:`~repro.debugger.api.DebuggerSession`
    backend — an in-process :class:`~repro.debugger.pilgrim.Pilgrim` or
    :class:`~repro.replay.session.TraceSession`, or a
    :class:`~repro.service.client.RemoteSession` speaking to the
    daemon; the REPL renders byte-identical output against either.
    """

    def __init__(self, pilgrim: DebuggerSession, output: Optional[Callable[[str], None]] = None):
        self.dbg = pilgrim
        self.lines: list[str] = []
        self._output = output
        self.breakpoints: dict[int, Breakpoint] = {}
        self._bp_counter = 0
        self.done = False

    def emit(self, text: str = "") -> None:
        """Append (and optionally forward) one or more output lines."""
        for line in text.split("\n"):
            self.lines.append(line)
            if self._output is not None:
                self._output(line)

    def _show(self, op: str, *args):
        """Run one session op and print its registered rendering."""
        text = OPS[op].render(getattr(self.dbg, op)(*args))
        if text:
            self.emit(text)

    # ------------------------------------------------------------------

    def execute(self, command_line: str) -> None:
        """Run one command; errors are reported, never raised."""
        words = shlex.split(command_line.strip())
        if not words:
            return
        command, args = words[0], words[1:]
        entry = COMMANDS.get(command.rstrip("!"))
        if entry is None:
            self.emit(f"?unknown command {command!r} (try 'help')")
            return
        # The arguments its usage names before an optional ``[...]`` part.
        if len(args) < len(entry.usage.split("[")[0].split()) - 1:
            self.emit(f"?usage: {entry.usage}")
            return
        handler = getattr(self, f"cmd_{entry.name}")
        try:
            handler(args, force=command.endswith("!"))
        except (AgentError, DebuggerError) as exc:
            self.emit(f"!{exc}")
        except (KeyError, IndexError, ValueError) as exc:
            self.emit(f"?bad arguments: {exc}")

    def run_script(self, commands: list[str]) -> list[str]:
        """Execute commands in order (stopping at ``quit``); return output."""
        for command in commands:
            self.emit(f"(pilgrim) {command}")
            self.execute(command)
            if self.done:
                break
        return self.lines

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------

    @_command("connect app [server ...]", op="connect")
    def cmd_connect(self, args, force=False):
        """attach to nodes (force with 'connect! ...')"""
        infos = self.dbg.connect(*args, force=force)
        for address, info in infos.items():
            failures = info.get("failures") or []
            suffix = f"  ({len(failures)} recorded failures)" if failures else ""
            self.emit(
                f"connected to node {address} ({info['name']}), "
                f"modules: {', '.join(info['modules'])}{suffix}"
            )
        self.emit(f"session {self.dbg.session_id}")

    @_command("disconnect", op="disconnect")
    def cmd_disconnect(self, args, force=False):
        """end the session"""
        self.dbg.disconnect()
        self.emit("disconnected; program continues")

    @_command("ps app", op="processes")
    def cmd_ps(self, args, force=False):
        """list processes on a node"""
        self._show("processes", args[0])

    @_command("break app app 17", op="set_breakpoint")
    def cmd_break(self, args, force=False):
        """set a breakpoint (node module line)"""
        node, module, line = args[0], args[1], int(args[2])
        bp = self.dbg.set_breakpoint(node, module, line=line)
        self._bp_counter += 1
        self.breakpoints[self._bp_counter] = bp
        self.emit(
            f"breakpoint #{self._bp_counter} at {module}.{bp.func} "
            f"line {bp.line} (pc {bp.pc}) on node {node}"
        )

    @_command("clear 1", op="clear_breakpoint")
    def cmd_clear(self, args, force=False):
        """clear breakpoint #1"""
        number = int(args[0])
        bp = self.breakpoints.pop(number)
        self.dbg.clear_breakpoint(bp)
        self.emit(f"cleared breakpoint #{number}")

    @_command("run [100ms]", op="run_for")
    def cmd_run(self, args, force=False):
        """let the program run for a while"""
        duration = parse_duration(args[0]) if args else 100 * MS
        self.dbg.run_for(duration)
        self.emit(f"ran for {args[0] if args else '100ms'}")

    @_command("wait", op="wait_for_event")
    def cmd_wait(self, args, force=False):
        """wait for the next breakpoint/failure event"""
        timeout = parse_duration(args[0]) if args else 30 * SEC
        event = self.dbg.wait_for_event(timeout=timeout)
        data = event["data"]
        if event["event"] == "breakpoint":
            self.emit(
                f"* breakpoint: node {event['node']} pid {data['pid']} at "
                f"{data['module']}.{data['proc']} line {data['line']}"
            )
        elif event["event"] == "failure":
            self.emit(
                f"* failure: node {event['node']} pid {data['pid']} "
                f"({data['name']}): {data['error']}"
            )
        else:
            self.emit(f"* event: {event['event']} {data}")

    @_command("bt app 3", op="backtrace")
    def cmd_bt(self, args, force=False):
        """backtrace of pid 3 on node app"""
        self._show("backtrace", args[0], int(args[1]))

    @_command("dbt app 3", op="distributed_backtrace")
    def cmd_dbt(self, args, force=False):
        """distributed backtrace (follows RPCs)"""
        self._show("distributed_backtrace", args[0], int(args[1]))

    @_command("print app 3 x", op="display")
    def cmd_print(self, args, force=False):
        """show a variable via its print operation"""
        node, pid, name = args[0], int(args[1]), args[2]
        frame = int(args[3]) if len(args) > 3 else 0
        text = self.dbg.display(node, pid, name, frame=frame)
        self.emit(f"  {name} = {text}")

    @_command("set app 3 x 42", op="write_var")
    def cmd_set(self, args, force=False):
        """write a variable (ints/strings)"""
        node, pid, name, value = args[0], int(args[1]), args[2], parse_value(args[3])
        self.dbg.write_var(node, pid, name, value)
        self.emit(f"  {name} := {value}")

    @_command("step app 3", op="step")
    def cmd_step(self, args, force=False):
        """single-step a trapped process"""
        node, pid = args[0], int(args[1])
        state = self.dbg.step(node, pid)
        regs = state["registers"]
        self.emit(
            f"  stepped: {regs.get('proc')} line {regs.get('line')} "
            f"pc {regs.get('pc')}"
        )

    @_command("continue app", op="resume")
    def cmd_continue(self, args, force=False):
        """resume from the breakpoint"""
        self.dbg.resume(args[0])
        self.emit("continuing")

    @_command("halt app", op="halt")
    def cmd_halt(self, args, force=False):
        """halt the whole program"""
        self.dbg.halt(args[0])
        self.emit("program halted")

    @_command("rpc app", op="rpc_info")
    def cmd_rpc(self, args, force=False):
        """show RPC call tables / recent outcomes"""
        info = self.dbg.rpc_info(args[0])
        self.emit(f"  in progress ({len(info['in_progress'])}):")
        for call in info["in_progress"]:
            self.emit(
                f"    call #{call['call_id']} {call['service']}.{call['proc']} "
                f"[{call['protocol']}] state={call['state']} "
                f"retries={call['retries']} by pid {call['client_pid']}"
            )
        self.emit(f"  serving ({len(info['serving'])}):")
        for call in info["serving"]:
            self.emit(
                f"    call #{call['call_id']} {call['service']}.{call['proc']} "
                f"from node {call['client_node']} worker pid {call['worker_pid']}"
            )
        recent = ", ".join(
            f"#{cid}:{'ok' if ok else 'FAILED'}" for cid, ok in info["recent"]
        )
        self.emit(f"  recent outcomes: {recent or '-'}")

    @_command("time", op="clocks")
    def cmd_time(self, args, force=False):
        """logical/real clocks and interruption total"""
        for row in self.dbg.clocks():
            self.emit(
                f"  node {row['address']} ({row['name']}): real {row['real']}us, "
                f"logical {row['logical']}us, "
                f"delta {row['delta']}us"
            )
        self.emit(
            f"  debugger interruption log total: {self.dbg.total_interruption()}us"
        )

    # ------------------------------------------------------------------
    # Record / replay and time travel (see repro.replay)
    # ------------------------------------------------------------------

    @_command("record [stop]", op="start_recording")
    def cmd_record(self, args, force=False):
        """start recording; 'record stop' seals the trace for time travel"""
        if args and args[0] == "stop":
            self._show("stop_recording")
        else:
            self.dbg.start_recording()
            self.emit("recording (finish with 'record stop')")

    @_command("at 100ms", op="at")
    def cmd_at(self, args, force=False):
        """jump the time-travel cursor to a moment"""
        self._show("at", parse_duration(args[0]))

    @_command("rstep", op="reverse_step")
    def cmd_rstep(self, args, force=False):
        """step the cursor one event backwards"""
        self._show("reverse_step")

    @_command("fstep", op="forward_step")
    def cmd_fstep(self, args, force=False):
        """step the cursor one event forwards"""
        self._show("forward_step")

    @_command("why", op="why_halted")
    def cmd_why(self, args, force=False):
        """explain why the program is halted here"""
        verdict = self.dbg.why_halted(args[0] if args else None)
        if verdict["halted"]:
            self.emit(f"  halted on nodes {verdict['nodes']} "
                      f"since t={verdict['since']}us")
            if verdict.get("halt_event") is not None:
                self.emit(f"  first halt: {verdict['halt_event'].line}")
            if verdict.get("cause") is not None:
                self.emit(f"  cause:      {verdict['cause'].line}")
        else:
            self.emit("  not halted here")
        violation = verdict.get("contract")
        if violation is not None:
            self.emit(f"  contract:   {violation.contract} violated at event "
                      f"#{violation.index}: {violation.message}")

    @_command("check [single_leader ...]", op="check")
    def cmd_check(self, args, force=False):
        """fold contracts over the loaded trace (default: the trace's set)"""
        self._show("check", list(args) if args else None)

    @_command("contracts", op="contracts")
    def cmd_contracts(self, args, force=False):
        """list the shipped contract catalogue"""
        self._show("contracts")

    @_command("causes 42", op="causal_predecessors")
    def cmd_causes(self, args, force=False):
        """causal predecessors of trace event #42"""
        for event in self.dbg.causal_predecessors(int(args[0])):
            self.emit(f"  #{event.index:<4} {event.line}")

    @_command("fork 1 crash [node=server at=300ms]", op="fork")
    def cmd_fork(self, args, force=False):
        """fork the trace at checkpoint #1 into a what-if branch"""
        from repro.replay.branch import parse_perturbation
        checkpoint = int(args[0])
        kind = args[1]
        fork_kwargs: dict = {}
        pert_args = []
        for pair in args[2:]:
            key, sep, value = pair.partition("=")
            if sep and key in ("parent", "builder"):
                fork_kwargs[key] = value
            elif sep and key == "until":
                fork_kwargs["run_until"] = parse_duration(value)
            else:
                pert_args.append(pair)
        perturbation = parse_perturbation(kind, pert_args,
                                          parse_time=parse_duration)
        info = self.dbg.fork(perturbation, checkpoint=checkpoint,
                             **fork_kwargs)
        self.emit(f"forked branch {info.id[:12]} at checkpoint "
                  f"{info.checkpoint} (t={info.fork_time}us)")
        self.emit(OPS["fork"].render(info))

    @_command("branches", op="branches")
    def cmd_branches(self, args, force=False):
        """list the branches forked off the loaded trace"""
        self._show("branches")

    @_command("diff root 3dcb", op="diff_branches")
    def cmd_diff(self, args, force=False):
        """event-graph diff between two branches (ids or prefixes)"""
        self._show("diff_branches", args[0], args[1])

    @_command("status", op="status")
    def cmd_status(self, args, force=False):
        """session summary"""
        self._show("status")

    @_command("help", summary="this text")
    def cmd_help(self, args, force=False):
        """this text"""
        self.emit(help_text())

    @_command("quit", summary="leave the REPL")
    def cmd_quit(self, args, force=False):
        """leave the REPL"""
        self.done = True
        self.emit("bye")
