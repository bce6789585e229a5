"""Code generator: CCLU AST -> CVM object code.

Every emitted instruction carries its source line, building the
source-to-object mapping the debugger uses to plant breakpoints at source
lines (paper §3: "access to the source-to-object mapping information
produced by the compiler and linker").
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from repro.cclu import ast
from repro.cclu.lexer import CluCompileError
from repro.cclu.parser import STATEMENT_INTRINSICS, parse
from repro.cvm import instructions as ops
from repro.cvm.image import Program
from repro.cvm.instructions import FuncCode, Instr

#: builtin name -> (opcode-or-None, allowed arities).  None opcode means a
#: CALLB; otherwise the call compiles to the dedicated instruction.
BUILTINS: dict[str, tuple[Optional[str], set[int]]] = {
    "str": (None, {1}),
    "len": (None, {1}),
    "append": (None, {2}),
    "abs": (None, {1}),
    "min": (None, {2}),
    "max": (None, {2}),
    "failed": (None, {1}),
    "substr": (None, {3}),
    "itoa": (None, {1}),
    "now": (None, {0}),
    "self": (None, {0}),
    "semaphore": (None, {0, 1}),
    "region": (None, {0}),
    "wait": ("SEMWAIT", {1, 2}),
    "signal": (ops.SEMSIGNAL, {1}),
    "sleep": (ops.SLEEPI, {1}),
    "enter": (ops.REGENTER, {1}),
    "leave": (ops.REGEXIT, {1}),
    "monitor": (None, {0}),
    # Monitor condition operations (Mesa semantics); mwait is an
    # expression compiled specially, msignal/mbroadcast are statements.
    "msignal": ("CONDSIG", {2}),
    "mbroadcast": ("CONDSIG_ALL", {2}),
}

_CMP_OPS = {
    "=": ops.EQ, "~=": ops.NE, "<": ops.LT, "<=": ops.LE,
    ">": ops.GT, ">=": ops.GE,
    "+": ops.ADD, "-": ops.SUB, "*": ops.MUL, "/": ops.DIV, "%": ops.MOD,
    "and": ops.AND, "or": ops.OR,
}


class FunctionCompiler:
    """Compiles one procedure body."""

    def __init__(self, compiler: "ModuleCompiler", decl: ast.ProcDecl):
        self.compiler = compiler
        self.decl = decl
        self.code: list[Instr] = []
        self.locals: set[str] = {name for name, _ in decl.params}
        self._temp_counter = 0

    def emit(self, op: str, arg=None, arg2=None, line: int = 0) -> int:
        self.code.append(Instr(op, arg, arg2, line))
        return len(self.code) - 1

    def compile(self) -> FuncCode:
        for stmt in self.decl.body:
            self.compile_stmt(stmt)
        return FuncCode(
            self.decl.name,
            [name for name, _ in self.decl.params],
            self.code,
            module=self.compiler.module_name,
            source_lines=self.compiler.source_lines,
        )

    def _temp(self) -> str:
        self._temp_counter += 1
        return f"__t{self._temp_counter}"

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def compile_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.VarDecl):
            if stmt.name in self.locals:
                raise CluCompileError(
                    f"variable {stmt.name!r} declared twice", stmt.line
                )
            self.locals.add(stmt.name)
            if stmt.init is not None:
                self.compile_expr(stmt.init)
                self.emit(ops.STOREL, stmt.name, line=stmt.line)
        elif isinstance(stmt, ast.Assign):
            self.compile_assign(stmt)
        elif isinstance(stmt, ast.If):
            self.compile_if(stmt)
        elif isinstance(stmt, ast.While):
            self.compile_while(stmt)
        elif isinstance(stmt, ast.For):
            self.compile_for(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.compile_expr(stmt.value)
            else:
                self.emit(ops.CONST, None, line=stmt.line)
            self.emit(ops.RET, line=stmt.line)
        elif isinstance(stmt, ast.Print):
            self.compile_expr(stmt.value)
            self.emit(ops.PRINTI, line=stmt.line)
        elif isinstance(stmt, ast.SpawnStmt):
            self.compile_spawn(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self.compile_expr_stmt(stmt)
        else:
            raise CluCompileError(f"cannot compile statement {stmt!r}", stmt.line)

    def compile_assign(self, stmt: ast.Assign) -> None:
        target = stmt.target
        if isinstance(target, ast.Name):
            self.compile_expr(stmt.value)
            if target.ident in self.locals:
                self.emit(ops.STOREL, target.ident, line=stmt.line)
            elif target.ident in self.compiler.global_names:
                self.emit(ops.STOREG, target.ident, line=stmt.line)
            else:
                raise CluCompileError(
                    f"assignment to undeclared variable {target.ident!r}", stmt.line
                )
        elif isinstance(target, ast.FieldAccess):
            self.compile_expr(target.target)
            self.compile_expr(stmt.value)
            self.emit(ops.SETF, target.fieldname, line=stmt.line)
        elif isinstance(target, ast.IndexAccess):
            self.compile_expr(target.target)
            self.compile_expr(target.index)
            self.compile_expr(stmt.value)
            self.emit(ops.SETIDX, line=stmt.line)
        else:
            raise CluCompileError("invalid assignment target", stmt.line)

    def compile_if(self, stmt: ast.If) -> None:
        end_jumps: list[int] = []
        for condition, body in stmt.arms:
            if condition is None:
                for inner in body:
                    self.compile_stmt(inner)
                break
            self.compile_expr(condition)
            jf = self.emit(ops.JF, line=condition.line)
            for inner in body:
                self.compile_stmt(inner)
            end_jumps.append(self.emit(ops.JUMP, line=stmt.line))
            self.code[jf].arg = len(self.code)
        for jump in end_jumps:
            self.code[jump].arg = len(self.code)

    def compile_while(self, stmt: ast.While) -> None:
        top = len(self.code)
        self.compile_expr(stmt.condition)
        jf = self.emit(ops.JF, line=stmt.condition.line)
        for inner in stmt.body:
            self.compile_stmt(inner)
        self.emit(ops.JUMP, top, line=stmt.line)
        self.code[jf].arg = len(self.code)

    def compile_for(self, stmt: ast.For) -> None:
        self.locals.add(stmt.var)
        stop_var = self._temp()
        self.locals.add(stop_var)
        self.compile_expr(stmt.start)
        self.emit(ops.STOREL, stmt.var, line=stmt.line)
        self.compile_expr(stmt.stop)
        self.emit(ops.STOREL, stop_var, line=stmt.line)
        top = len(self.code)
        self.emit(ops.LOADL, stmt.var, line=stmt.line)
        self.emit(ops.LOADL, stop_var, line=stmt.line)
        self.emit(ops.LE, line=stmt.line)
        jf = self.emit(ops.JF, line=stmt.line)
        for inner in stmt.body:
            self.compile_stmt(inner)
        self.emit(ops.LOADL, stmt.var, line=stmt.line)
        self.emit(ops.CONST, 1, line=stmt.line)
        self.emit(ops.ADD, line=stmt.line)
        self.emit(ops.STOREL, stmt.var, line=stmt.line)
        self.emit(ops.JUMP, top, line=stmt.line)
        self.code[jf].arg = len(self.code)

    def compile_spawn(self, stmt: ast.SpawnStmt) -> None:
        self.compiler.check_proc_call(stmt.proc, len(stmt.args), stmt.line)
        for arg in stmt.args:
            self.compile_expr(arg)
        self.emit(ops.SPAWNP, stmt.proc, len(stmt.args), line=stmt.line)
        self.emit(ops.POP, line=stmt.line)  # discard the pid

    def compile_expr_stmt(self, stmt: ast.ExprStmt) -> None:
        expr = stmt.expr
        if isinstance(expr, ast.CallExpr) and expr.name in STATEMENT_INTRINSICS:
            opcode, arities = BUILTINS[expr.name]
            if len(expr.args) not in arities:
                raise CluCompileError(
                    f"{expr.name} takes {sorted(arities)} args", stmt.line
                )
            for arg in expr.args:
                self.compile_expr(arg)
            if opcode == "CONDSIG":
                self.emit(ops.CONDSIG, False, line=stmt.line)
            elif opcode == "CONDSIG_ALL":
                self.emit(ops.CONDSIG, True, line=stmt.line)
            else:
                self.emit(opcode, line=stmt.line)
            return
        self.compile_expr(expr)
        self.emit(ops.POP, line=stmt.line)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def compile_expr(self, expr: ast.Expr) -> None:
        if isinstance(expr, ast.Literal):
            self.emit(ops.CONST, expr.value, line=expr.line)
        elif isinstance(expr, ast.Name):
            if expr.ident in self.locals:
                self.emit(ops.LOADL, expr.ident, line=expr.line)
            elif expr.ident in self.compiler.global_names:
                self.emit(ops.LOADG, expr.ident, line=expr.line)
            else:
                raise CluCompileError(
                    f"undeclared variable {expr.ident!r}", expr.line
                )
        elif isinstance(expr, ast.Unary):
            self.compile_expr(expr.operand)
            self.emit(ops.NEG if expr.op == "-" else ops.NOT, line=expr.line)
        elif isinstance(expr, ast.Binary):
            self.compile_expr(expr.left)
            self.compile_expr(expr.right)
            self.emit(_CMP_OPS[expr.op], line=expr.line)
        elif isinstance(expr, ast.CallExpr):
            self.compile_call(expr)
        elif isinstance(expr, ast.RemoteCall):
            for arg in expr.args:
                self.compile_expr(arg)
            self.emit(
                ops.RCALL,
                (expr.service, expr.proc, expr.protocol),
                len(expr.args),
                line=expr.line,
            )
        elif isinstance(expr, ast.FieldAccess):
            self.compile_expr(expr.target)
            self.emit(ops.GETF, expr.fieldname, line=expr.line)
        elif isinstance(expr, ast.IndexAccess):
            self.compile_expr(expr.target)
            self.compile_expr(expr.index)
            self.emit(ops.GETIDX, line=expr.line)
        elif isinstance(expr, ast.ArrayLiteral):
            for item in expr.items:
                self.compile_expr(item)
            self.emit(ops.NEWARR, None, len(expr.items), line=expr.line)
        elif isinstance(expr, ast.RecordLiteral):
            self.compile_record_literal(expr)
        else:
            raise CluCompileError(f"cannot compile expression {expr!r}", expr.line)

    def compile_call(self, expr: ast.CallExpr) -> None:
        name = expr.name
        if name in STATEMENT_INTRINSICS:
            raise CluCompileError(
                f"{name} is a statement, not an expression", expr.line
            )
        if name == "wait":
            if len(expr.args) not in (1, 2):
                raise CluCompileError("wait takes 1 or 2 args", expr.line)
            self.compile_expr(expr.args[0])
            if len(expr.args) == 2:
                self.compile_expr(expr.args[1])
            else:
                self.emit(ops.CONST, -1, line=expr.line)
            self.emit(ops.SEMWAIT, line=expr.line)
            return
        if name == "mwait":
            # Mesa condition wait: release monitor + wait, then re-enter.
            if len(expr.args) != 2:
                raise CluCompileError("mwait takes (monitor, condition)", expr.line)
            self.compile_expr(expr.args[0])
            self.emit(ops.DUP, line=expr.line)
            self.compile_expr(expr.args[1])
            self.emit(ops.CONDWAIT, line=expr.line)   # -> [m, signalled]
            self.emit(ops.SWAP, line=expr.line)       # -> [signalled, m]
            self.emit(ops.REGENTER, line=expr.line)   # re-acquire the mutex
            return
        if name in BUILTINS:
            opcode, arities = BUILTINS[name]
            if len(expr.args) not in arities:
                raise CluCompileError(
                    f"{name} takes {sorted(arities)} args, got {len(expr.args)}",
                    expr.line,
                )
            for arg in expr.args:
                self.compile_expr(arg)
            self.emit(ops.CALLB, name, len(expr.args), line=expr.line)
            return
        self.compiler.check_proc_call(name, len(expr.args), expr.line)
        for arg in expr.args:
            self.compile_expr(arg)
        self.emit(ops.CALL, name, len(expr.args), line=expr.line)

    def compile_record_literal(self, expr: ast.RecordLiteral) -> None:
        declared = self.compiler.records.get(expr.type_name)
        if declared is None:
            raise CluCompileError(f"unknown record type {expr.type_name!r}", expr.line)
        given = [name for name, _ in expr.fields]
        if sorted(given) != sorted(declared):
            raise CluCompileError(
                f"record {expr.type_name} literal must set exactly "
                f"{declared}, got {given}",
                expr.line,
            )
        # Evaluate in declared order for a canonical field layout.
        by_name = dict(expr.fields)
        for fname in declared:
            self.compile_expr(by_name[fname])
        self.emit(ops.NEWREC, expr.type_name, list(declared), line=expr.line)


class ModuleCompiler:
    def __init__(self, source: str, module_name: str = "main"):
        self.source = source
        self.module_name = module_name
        self.module = parse(source)
        self.records: dict[str, list[str]] = {}
        self.global_names: set[str] = set()
        self.proc_arities: dict[str, int] = {}
        self.source_lines = {
            i + 1: text for i, text in enumerate(source.splitlines())
        }

    def check_proc_call(self, name: str, nargs: int, line: int) -> None:
        if name not in self.proc_arities:
            raise CluCompileError(f"unknown procedure {name!r}", line)
        expected = self.proc_arities[name]
        if nargs != expected:
            raise CluCompileError(
                f"{name} expects {expected} args, got {nargs}", line
            )

    def compile(self) -> Program:
        program = Program(self.module_name)
        program.source_lines = self.source_lines

        for record in self.module.records:
            if record.name in self.records:
                raise CluCompileError(
                    f"record {record.name!r} declared twice", record.line
                )
            names = [name for name, _ in record.fields]
            if len(set(names)) != len(names):
                raise CluCompileError(
                    f"record {record.name} has duplicate fields", record.line
                )
            self.records[record.name] = names
        program.records = dict(self.records)

        for decl in self.module.globals:
            if decl.name in self.global_names:
                raise CluCompileError(
                    f"global {decl.name!r} declared twice", decl.line
                )
            self.global_names.add(decl.name)
            if decl.init is None:
                continue
            if not isinstance(decl.init, ast.Literal):
                raise CluCompileError(
                    "global initializers must be literals", decl.line
                )
            program.globals_init[decl.name] = decl.init.value

        for proc in self.module.procs:
            if proc.name in self.proc_arities:
                raise CluCompileError(
                    f"procedure {proc.name!r} declared twice", proc.line
                )
            self.proc_arities[proc.name] = len(proc.params)

        for proc in self.module.procs:
            func = FunctionCompiler(self, proc).compile()
            program.add_function(func)

        for printop in self.module.printops:
            if printop.proc_name not in self.proc_arities:
                raise CluCompileError(
                    f"printop references unknown procedure {printop.proc_name!r}",
                    printop.line,
                )
            if self.proc_arities[printop.proc_name] != 1:
                raise CluCompileError(
                    "a print operation takes exactly one argument", printop.line
                )
            program.printops[printop.type_name] = printop.proc_name

        return program


#: Compiled programs kept per process.  A campaign compiles the same few
#: scenario modules for every cell; the bound only stops a process that
#: compiles generated sources from growing without limit.
COMPILE_MEMO_SIZE = 64


@lru_cache(maxsize=COMPILE_MEMO_SIZE)
def compile_program(source: str, module_name: str = "main") -> Program:
    """Compile CCLU source text into a linkable :class:`Program`.

    Memoised on ``(source, module_name)``: a :class:`Program` is a
    read-only master that ``link`` copies from, so callers may share it
    (forked workers inherit the memo); a compile error is never cached.
    """
    return ModuleCompiler(source, module_name).compile()
