"""The CVM interpreter.

:class:`VmExecutor` runs CVM object code as a Mayflower process, charging
``params.instruction_cost`` per instruction through the two-phase
peek/commit protocol, so VM execution interleaves exactly with packet
deliveries and timers.

Debugging features (paper §5.5):

* **TRAP execution** leaves the pc *at* the trap (like a 68000 breakpoint
  trap) and notifies the node's trap handler (the agent), which halts the
  node;
* **single stepping** via ``after_step`` — the agent restores the original
  instruction, arms a one-shot hook, lets one instruction run, then
  re-inserts the trap ("trace mode");
* **backtraces** report the highest well-formed frames and include the RPC
  runtime's synthetic frames with their info blocks (paper Figure 1).

``run_pure`` evaluates print operations (paper §3) on the same executor,
outside any process: a bounded loop over :meth:`VmExecutor.commit` that
refuses effectful opcodes and node builtins before they run, so it never
disturbs the process structure.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.cvm import instructions as ops
from repro.cvm.frames import RPC_RUNTIME_FUNC, Frame
from repro.cvm.image import NodeImage
from repro.cvm.instructions import FuncCode, Instr
from repro.cvm.values import (
    CluArray,
    CluRecord,
    CluRuntimeError,
    RpcFailure,
)
from repro.mayflower.process import Executor, Process


class BreakpointWait:
    """What a trapped process is 'waiting on' (visible to the agent)."""

    def __init__(self, func: FuncCode, pc: int, kind: str = "breakpoint"):
        self.func = func
        self.pc = pc
        self.kind = kind
        self.line = func.line_for_pc(pc)

    def __str__(self) -> str:
        return f"{self.kind}:{self.func.name}@{self.pc} (line {self.line})"


class VmExecutor(Executor):
    """Executes one process's CVM code."""

    def __init__(
        self,
        image: NodeImage,
        func_name: str,
        args: Optional[list] = None,
        output: Optional[Callable[[str], None]] = None,
    ):
        self.image = image
        self.node = image.node
        self.frames: list[Frame] = []
        self.process: Optional[Process] = None
        self._finished = False
        #: The outermost frame's return value, once it has returned.
        self.result: Any = None
        #: Resume handler applied when the process wakes from a block.
        self._awaiting: Optional[Callable[[Any], None]] = None
        #: One-shot hook run after the next committed instruction (the
        #: trace-mode mechanism for stepping over breakpoints).
        self.after_step: Optional[Callable[[], None]] = None
        #: Where `print` output goes; the agent redirects this to ship
        #: strings back to the debugger (paper §3).
        self.output: Callable[[str], None] = output or image.console.append
        #: For RPC worker processes: the server-side info block that sits
        #: at the *bottom* of the stack (paper Figure 1).
        self.server_info_block: Optional[dict] = None
        func = image.function(func_name)
        args = args or []
        if len(args) != len(func.params):
            raise CluRuntimeError(
                f"{func.name} expects {len(func.params)} args, got {len(args)}"
            )
        frame = Frame(func)
        frame.locals.update(zip(func.params, args))
        self.frames.append(frame)

    def bind(self, process: Process) -> None:
        self.process = process

    # ------------------------------------------------------------------
    # Executor protocol
    # ------------------------------------------------------------------

    def peek_cost(self) -> Optional[int]:
        if self._finished:
            return None
        if self._awaiting is not None:
            # Just woken from a block: deliver the value first.
            handler = self._awaiting
            self._awaiting = None
            assert self.process is not None
            value = self.process.pending_value
            self.process.pending_value = None
            handler(value)
        if not self.frames:
            self._finished = True
            return None
        return self.node.params.instruction_cost

    def commit(self) -> None:
        frame = self.frames[-1]
        frame.under_construction = False
        if frame.pc >= len(frame.func.code):
            # Fell off the end: implicit return of nil.
            self._do_return(None)
            self._maybe_after_step()
            return
        instr = frame.func.code[frame.pc]
        self._execute(instr, frame)
        self._maybe_after_step()

    def _maybe_after_step(self) -> None:
        if self.after_step is not None:
            hook = self.after_step
            self.after_step = None
            hook()

    def retire(self) -> None:
        """Drop the resume and after-step hooks, ``output``, the process
        back-reference and an emptied frame list; a failed process's
        frames and a worker's ``server_info_block`` stay for ``backtrace``."""
        self._awaiting = self.after_step = self.output = self.process = None
        if not self.frames:
            self.frames = ()

    def registers(self) -> dict:
        if not self.frames:
            return {"kind": "vm", "pc": None}
        top = self.frames[-1]
        return {
            "kind": "vm",
            "proc": top.func.name,
            "pc": top.pc,
            "line": top.current_line(),
            "depth": len(self.frames),
        }

    def backtrace(self) -> list[dict]:
        """Innermost-first frame snapshots, skipping frames that are not
        well formed (paper §5.5: report from the highest well-formed
        frame)."""
        result = []
        for frame in reversed(self.frames):
            if frame.under_construction:
                continue
            result.append(frame.snapshot())
        if self.server_info_block is not None:
            result.append(
                {
                    "proc": "__rpc_runtime",
                    "module": "__runtime",
                    "pc": 0,
                    "line": 0,
                    "locals": {},
                    "synthetic": True,
                    "well_formed": True,
                    "info_block": self.server_info_block,
                }
            )
        return result

    # ------------------------------------------------------------------
    # RPC integration (paper §4.3, Figure 1)
    # ------------------------------------------------------------------

    def begin_rpc(self, info_block: dict) -> None:
        """Push the synthetic RPC-runtime frame holding the info block
        "in a known position in the stack frame"."""
        frame = Frame(RPC_RUNTIME_FUNC, synthetic=True)
        frame.under_construction = False
        frame.locals["__rpc_info"] = info_block
        self.frames.append(frame)
        self._awaiting = self._finish_rpc

    def _finish_rpc(self, value: Any) -> None:
        self.frames.pop()
        self.frames[-1].stack.append(value)

    def current_info_block(self) -> Optional[dict]:
        for frame in reversed(self.frames):
            if frame.synthetic and frame.info_block is not None:
                return frame.info_block
        return None

    # ------------------------------------------------------------------
    # Instruction execution
    # ------------------------------------------------------------------

    def _execute(self, instr: Instr, frame: Frame) -> None:
        op = instr.op
        stack = frame.stack

        if op == ops.TRAP:
            self._hit_trap(frame)
            return  # pc stays at the trap

        if op == ops.CONST:
            stack.append(instr.arg)
        elif op == ops.LOADL:
            if instr.arg not in frame.locals:
                raise CluRuntimeError(f"variable {instr.arg!r} used before assignment")
            stack.append(frame.locals[instr.arg])
        elif op == ops.STOREL:
            frame.locals[instr.arg] = stack.pop()
        elif op == ops.LOADG:
            if instr.arg not in self.image.globals:
                raise CluRuntimeError(f"global {instr.arg!r} used before assignment")
            stack.append(self.image.globals[instr.arg])
        elif op == ops.STOREG:
            self.image.globals[instr.arg] = stack.pop()
        elif op in _BINARY_OPS:
            right = stack.pop()
            left = stack.pop()
            stack.append(apply_binary(op, left, right))
        elif op == ops.NEG:
            stack.append(-_expect_int(stack.pop(), "-"))
        elif op == ops.NOT:
            stack.append(not _expect_bool(stack.pop(), "not"))
        elif op == ops.JUMP:
            frame.pc = instr.arg
            return
        elif op == ops.JF:
            condition = _expect_bool(stack.pop(), "condition")
            if not condition:
                frame.pc = instr.arg
                return
        elif op == ops.CALL:
            self._do_call(instr.arg, instr.arg2, frame)
            return
        elif op == ops.CALLB:
            nargs = instr.arg2
            args = [stack.pop() for _ in range(nargs)][::-1]
            stack.append(self._builtin(instr.arg, args))
        elif op == ops.RET:
            value = stack.pop() if stack else None
            self._do_return(value)
            return
        elif op == ops.NEWREC:
            fields = list(instr.arg2)
            values = [stack.pop() for _ in range(len(fields))][::-1]
            stack.append(CluRecord(instr.arg, dict(zip(fields, values))))
        elif op == ops.GETF:
            record = stack.pop()
            if not isinstance(record, CluRecord):
                raise CluRuntimeError(f"field access on non-record {record!r}")
            stack.append(record.get(instr.arg))
        elif op == ops.SETF:
            value = stack.pop()
            record = stack.pop()
            if not isinstance(record, CluRecord):
                raise CluRuntimeError(f"field update on non-record {record!r}")
            record.set(instr.arg, value)
        elif op == ops.NEWARR:
            count = instr.arg2
            values = [stack.pop() for _ in range(count)][::-1]
            stack.append(CluArray(values))
        elif op == ops.GETIDX:
            index = stack.pop()
            array = stack.pop()
            if not isinstance(array, CluArray):
                raise CluRuntimeError(f"indexing non-array {array!r}")
            stack.append(array.get(index))
        elif op == ops.SETIDX:
            value = stack.pop()
            index = stack.pop()
            array = stack.pop()
            if not isinstance(array, CluArray):
                raise CluRuntimeError(f"index update on non-array {array!r}")
            array.set(index, value)
        elif op == ops.SEMWAIT:
            self._do_semwait(frame)
            return
        elif op == ops.SEMSIGNAL:
            sem = stack.pop()
            _expect_sem(sem)
            sem.signal()
        elif op == ops.REGENTER:
            self._do_region_enter(frame)
            return
        elif op == ops.REGEXIT:
            region = stack.pop()
            region.exit(self.process)
        elif op == ops.CONDWAIT:
            self._do_cond_wait(frame)
            return
        elif op == ops.CONDSIG:
            cond_name = stack.pop()
            monitor = stack.pop()
            _expect_monitor(monitor)
            if instr.arg:
                monitor.cond_broadcast(cond_name)
            else:
                monitor.cond_signal(cond_name)
        elif op == ops.DUP:
            stack.append(stack[-1])
        elif op == ops.SWAP:
            stack[-1], stack[-2] = stack[-2], stack[-1]
        elif op == ops.SLEEPI:
            self._do_sleep(frame)
            return
        elif op == ops.SPAWNP:
            nargs = instr.arg2
            args = [stack.pop() for _ in range(nargs)][::-1]
            child = self._spawn(instr.arg, args)
            stack.append(child.pid)
        elif op == ops.RCALL:
            self._do_rcall(instr, frame)
            return
        elif op == ops.PRINTI:
            value = stack.pop()
            self.output(self.image.render(value))
        elif op == ops.POP:
            stack.pop()
        elif op == ops.NOP:
            pass
        elif op == ops.HALTP:
            self.frames.clear()
            self._finished = True
            return
        else:
            raise CluRuntimeError(f"unknown opcode {op}")
        frame.pc += 1

    # ------------------------------------------------------------------
    # Control transfers and blocking operations
    # ------------------------------------------------------------------

    def _do_call(self, name: str, nargs: int, frame: Frame) -> None:
        args = [frame.stack.pop() for _ in range(nargs)][::-1]
        func = self.image.function(name)
        if len(args) != len(func.params):
            raise CluRuntimeError(
                f"{name} expects {len(func.params)} args, got {len(args)}"
            )
        frame.pc += 1  # return address
        callee = Frame(func)
        callee.locals.update(zip(func.params, args))
        self.frames.append(callee)
        # callee.under_construction stays True until its first instruction.

    def _do_return(self, value: Any) -> None:
        self.frames.pop()
        if not self.frames:
            self._finished = True
            self.result = value
            if self.process is not None:
                self.process.result = value
            return
        self.frames[-1].stack.append(value)

    def _do_semwait(self, frame: Frame) -> None:
        timeout = frame.stack.pop()
        sem = frame.stack.pop()
        _expect_sem(sem)
        if not isinstance(timeout, int):
            raise CluRuntimeError(f"wait timeout must be int, got {timeout!r}")
        timeout_us = None if timeout < 0 else timeout
        frame.pc += 1
        result = sem.wait(self.process, timeout_us)
        if result is None:
            self._awaiting = frame.stack.append  # push True/False on wake
        else:
            frame.stack.append(result)

    def _do_region_enter(self, frame: Frame) -> None:
        region = frame.stack.pop()
        frame.pc += 1
        result = region.enter(self.process)
        if result is None:
            self._awaiting = lambda _value: None  # nothing to push

    def _do_cond_wait(self, frame: Frame) -> None:
        cond_name = frame.stack.pop()
        monitor = frame.stack.pop()
        _expect_monitor(monitor)
        if not isinstance(cond_name, str):
            raise CluRuntimeError(f"condition name must be a string, got {cond_name!r}")
        frame.pc += 1
        monitor.cond_release_and_wait(self.process, cond_name, None)
        self._awaiting = frame.stack.append  # push True on signal

    def _do_sleep(self, frame: Frame) -> None:
        duration = frame.stack.pop()
        if not isinstance(duration, int) or duration < 0:
            raise CluRuntimeError(f"sleep duration must be >= 0, got {duration!r}")
        frame.pc += 1
        supervisor = self.node.supervisor
        supervisor.block(
            self.process,
            f"sleep({duration})",
            duration,
            lambda proc: supervisor.unblock(proc, value=True),
        )
        self._awaiting = lambda _value: None

    def _do_rcall(self, instr: Instr, frame: Frame) -> None:
        service, proc_name, protocol = instr.arg
        nargs = instr.arg2
        args = [frame.stack.pop() for _ in range(nargs)][::-1]
        frame.pc += 1
        if self.image.rpc_hook is None:
            frame.stack.append(RpcFailure("no RPC runtime attached"))
            return
        # The hook pushes the synthetic frame via begin_rpc, blocks the
        # process, and later unblocks it with the result value.
        self.image.rpc_hook(self, self.process, service, proc_name, args, protocol)

    def _hit_trap(self, frame: Frame) -> None:
        supervisor = self.node.supervisor
        wait = BreakpointWait(frame.func, frame.pc)
        supervisor.block(self.process, wait, None, lambda proc: None)
        self._awaiting = lambda _value: None  # resume re-fetches the pc
        if self.image.trap_handler is not None:
            self.image.trap_handler(self.process, self, frame)

    def _spawn(self, name: str, args: list) -> Process:
        executor = VmExecutor(self.image, name, args)
        return self.node.supervisor.spawn(executor, name=name)

    # ------------------------------------------------------------------
    # Builtins
    # ------------------------------------------------------------------

    def _builtin(self, name: str, args: list) -> Any:
        if name == "str":
            return self.image.render(args[0])
        if name == "semaphore":
            count = args[0] if args else 0
            return self.node.semaphore(count=count, name=f"usersem.p{self._pid()}")
        if name == "region":
            return self.node.region(name=f"userregion.p{self._pid()}")
        if name == "monitor":
            return self.node.monitor(name=f"usermon.p{self._pid()}")
        if name == "now":
            return self.node.clock.logical_now()
        if name == "self":
            return self._pid()
        return pure_builtin(name, args)

    def _pid(self) -> int:
        return self.process.pid if self.process is not None else 0


# ----------------------------------------------------------------------
# Shared pure helpers
# ----------------------------------------------------------------------

_BINARY_OPS = {
    ops.ADD, ops.SUB, ops.MUL, ops.DIV, ops.MOD,
    ops.EQ, ops.NE, ops.LT, ops.LE, ops.GT, ops.GE,
    ops.AND, ops.OR,
}


def _expect_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise CluRuntimeError(f"{where}: expected int, got {value!r}")
    return value


def _expect_bool(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise CluRuntimeError(f"{where}: expected bool, got {value!r}")
    return value


def _expect_sem(value: Any) -> None:
    from repro.mayflower.sync import Semaphore

    if not isinstance(value, Semaphore):
        raise CluRuntimeError(f"expected semaphore, got {value!r}")


def _expect_monitor(value: Any) -> None:
    from repro.mayflower.sync import Monitor

    if not isinstance(value, Monitor):
        raise CluRuntimeError(f"expected monitor, got {value!r}")


def apply_binary(op: str, left: Any, right: Any) -> Any:
    if op == ops.ADD:
        if isinstance(left, str) and isinstance(right, str):
            return left + right
        return _expect_int(left, "+") + _expect_int(right, "+")
    if op == ops.SUB:
        return _expect_int(left, "-") - _expect_int(right, "-")
    if op == ops.MUL:
        return _expect_int(left, "*") * _expect_int(right, "*")
    if op == ops.DIV:
        divisor = _expect_int(right, "/")
        if divisor == 0:
            raise CluRuntimeError("division by zero")
        quotient = _expect_int(left, "/") // divisor
        # CLU int division truncates toward zero.
        if quotient < 0 and quotient * divisor != left:
            quotient += 1
        return quotient
    if op == ops.MOD:
        divisor = _expect_int(right, "%")
        if divisor == 0:
            raise CluRuntimeError("mod by zero")
        return _expect_int(left, "%") - divisor * apply_binary(ops.DIV, left, right)
    if op == ops.EQ:
        return left == right
    if op == ops.NE:
        return left != right
    if op in (ops.LT, ops.LE, ops.GT, ops.GE):
        if isinstance(left, str) and isinstance(right, str):
            pass
        else:
            _expect_int(left, "comparison")
            _expect_int(right, "comparison")
        if op == ops.LT:
            return left < right
        if op == ops.LE:
            return left <= right
        if op == ops.GT:
            return left > right
        return left >= right
    if op == ops.AND:
        return _expect_bool(left, "and") and _expect_bool(right, "and")
    if op == ops.OR:
        return _expect_bool(left, "or") or _expect_bool(right, "or")
    raise CluRuntimeError(f"unknown binary op {op}")


def pure_builtin(name: str, args: list) -> Any:
    """Builtins with no node-side effects."""
    if name == "len":
        value = args[0]
        if isinstance(value, (CluArray, str)):
            return len(value)
        raise CluRuntimeError(f"len of {value!r}")
    if name == "append":
        array, value = args
        if not isinstance(array, CluArray):
            raise CluRuntimeError("append target must be an array")
        array.append(value)
        return array
    if name == "abs":
        return abs(_expect_int(args[0], "abs"))
    if name == "min":
        return min(_expect_int(args[0], "min"), _expect_int(args[1], "min"))
    if name == "max":
        return max(_expect_int(args[0], "max"), _expect_int(args[1], "max"))
    if name == "failed":
        return isinstance(args[0], RpcFailure)
    if name == "substr":
        text, start, count = args
        if not isinstance(text, str):
            raise CluRuntimeError("substr needs a string")
        return text[start : start + count]
    if name == "itoa":
        return str(_expect_int(args[0], "itoa"))
    raise CluRuntimeError(f"unknown builtin {name!r}")


#: Opcodes a print operation may not execute: each writes node state,
#: blocks, talks to another node, writes output or ends the process.
_EFFECTS = frozenset({
    ops.STOREG, ops.SEMWAIT, ops.SEMSIGNAL, ops.REGENTER, ops.REGEXIT,
    ops.CONDWAIT, ops.CONDSIG, ops.SLEEPI, ops.SPAWNP, ops.RCALL,
    ops.PRINTI, ops.TRAP, ops.HALTP,
})

#: Builtins that make node objects or read node state.
_NODE_BUILTINS = frozenset({"semaphore", "region", "monitor", "now", "self"})


def run_pure(
    image: NodeImage, func_name: str, args: list, max_instructions: int = 20_000
) -> Any:
    """Run a procedure with *no* effects allowed (print operations).

    The procedure runs on a :class:`VmExecutor` that belongs to no
    process, one ``commit()`` per instruction, so it takes no virtual
    time and fails with the VM's own errors.  Before each instruction an
    opcode in ``_EFFECTS`` or a builtin in ``_NODE_BUILTINS`` is refused,
    and execution is bounded so a buggy print op cannot wedge the agent.
    """
    executor = VmExecutor(image, func_name, args)
    frames = executor.frames
    for _ in range(max_instructions):
        frame = frames[-1]
        if frame.pc < len(frame.func.code):
            instr = frame.func.code[frame.pc]
            if instr.op in _EFFECTS:
                raise CluRuntimeError(
                    f"opcode {instr.op} not allowed in a print operation")
            if instr.op == ops.CALLB and instr.arg in _NODE_BUILTINS:
                raise CluRuntimeError(
                    f"builtin {instr.arg!r} not allowed in a print operation")
        executor.commit()
        if not frames:
            return executor.result
    raise CluRuntimeError(f"{func_name}: print operation ran too long")
