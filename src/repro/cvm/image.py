"""Programs and per-node linked images.

A :class:`Program` is the compiler's output: procedures, record types and
print-operation registrations.  Each node *links* its own
:class:`NodeImage` — a private copy of every code array — so breakpoint
patching on one node never affects another (separately linked binaries in
the paper's environment).

The image also carries the node-side hooks the VM needs (spawn, RPC,
output) and the print-operation dispatch used to display values (paper §3:
"the print operations must reside in the user program and be invoked by
the agent").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.cvm.instructions import FuncCode
from repro.cvm.values import CluRuntimeError, default_print, printed_text, printop_for

if TYPE_CHECKING:
    from repro.mayflower.node import Node


class Program:
    """A compiled Concurrent CLU module (master copy).

    Read-only once compiled (``compile_program`` shares one object per
    source); :class:`NodeImage` copies what a node may patch or mutate.
    """

    def __init__(self, module: str = "main"):
        self.module = module
        self.functions: dict[str, FuncCode] = {}
        self.records: dict[str, list[str]] = {}
        #: type name -> procedure name implementing its print operation.
        self.printops: dict[str, str] = {}
        #: Source text by line number, for debugger listings.
        self.source_lines: dict[int, str] = {}
        #: Module-global initial values (literals), set at link time.
        self.globals_init: dict[str, Any] = {}

    def add_function(self, func: FuncCode) -> None:
        self.functions[func.name] = func

    def link(self, node: "Node") -> "NodeImage":
        """Produce this node's private image of the program."""
        return NodeImage(self, node)


class NodeImage:
    """One node's linked copy of a program."""

    def __init__(self, program: Program, node: "Node"):
        self.program = program
        self.node = node
        self.module = program.module
        # Private code arrays: the unit of breakpoint patching.
        self.functions: dict[str, FuncCode] = {}
        for name, func in program.functions.items():
            self.functions[name] = FuncCode(
                func.name,
                list(func.params),
                [instr.copy() for instr in func.code],
                module=func.module,
                source_lines=func.source_lines,
            )
        self.records = dict(program.records)
        self.printops = dict(program.printops)
        self.globals: dict[str, Any] = dict(program.globals_init)
        #: Node console: default destination of `print` statements.
        self.console: list[str] = []
        #: Trap hook installed by the agent: fn(process, executor, frame).
        self.trap_handler: Optional[Callable] = None
        #: RPC hook installed by the cluster builder:
        #: fn(executor, process, service, proc, args, protocol).
        self.rpc_hook: Optional[Callable] = None

    # ------------------------------------------------------------------

    def function(self, name: str) -> FuncCode:
        func = self.functions.get(name)
        if func is None:
            raise CluRuntimeError(f"unknown procedure {name!r}")
        return func

    def render(self, value: Any, max_instructions: int = 20_000) -> str:
        """Apply the value's print operation (paper §3).

        User-defined print ops are CCLU procedures; they run here on the
        VM's own executor, outside any process (:func:`run_pure`): bounded,
        taking no virtual time, and refusing effectful opcodes and node
        builtins.  Their type errors are the VM's.  The agent's remote
        display path spawns a process to invoke the print op instead.
        """
        printop = printop_for(value, self.printops)
        if printop is None:
            return default_print(value)
        from repro.cvm.interp import run_pure

        result = run_pure(self, printop, [value], max_instructions)
        return printed_text(result)

    def __repr__(self) -> str:
        return f"<NodeImage {self.module} on node {self.node.node_id}>"
