"""Unit tests for the CCLU compiler (lexer, parser, codegen diagnostics)."""

import pytest

from repro.cclu import CluCompileError, compile_program, tokenize


def test_tokenize_basics():
    tokens = tokenize('proc main() var x: int := 42 -- comment\nend')
    kinds = [(t.kind, t.value) for t in tokens[:4]]
    assert kinds == [("kw", "proc"), ("ident", "main"), ("op", "("), ("op", ")")]
    values = [t.value for t in tokens]
    assert "42" in values
    assert "comment" not in values  # comments stripped


def test_tokenize_string_escapes():
    tokens = tokenize('"a\\nb\\"c"')
    assert tokens[0].value == 'a\nb"c'


def test_tokenize_line_numbers():
    tokens = tokenize("proc\nmain\n(")
    assert [t.line for t in tokens[:3]] == [1, 2, 3]


def test_tokenize_errors():
    with pytest.raises(CluCompileError):
        tokenize('"unterminated')
    with pytest.raises(CluCompileError):
        tokenize("@")
    with pytest.raises(CluCompileError):
        tokenize("12abc")


def test_compile_smallest_program():
    program = compile_program("proc main()\nend")
    assert "main" in program.functions
    assert program.functions["main"].params == []


def test_compile_arith_and_control_flow():
    program = compile_program(
        """
proc fib(n: int) returns int
  if n < 2 then
    return n
  end
  return fib(n - 1) + fib(n - 2)
end
"""
    )
    assert "fib" in program.functions


def test_line_table_maps_source_lines():
    program = compile_program(
        """proc main()
  var x: int := 1
  x := x + 1
end"""
    )
    func = program.functions["main"]
    assert func.first_pc_for_line(2) is not None
    assert func.first_pc_for_line(3) is not None
    pcs2 = func.pcs_for_line(2)
    pcs3 = func.pcs_for_line(3)
    assert max(pcs2) < min(pcs3)


def test_unknown_variable_rejected():
    with pytest.raises(CluCompileError, match="undeclared"):
        compile_program("proc main()\n  print y\nend")


def test_assignment_to_undeclared_rejected():
    with pytest.raises(CluCompileError, match="undeclared"):
        compile_program("proc main()\n  y := 1\nend")


def test_duplicate_variable_rejected():
    with pytest.raises(CluCompileError, match="twice"):
        compile_program("proc main()\n  var x: int\n  var x: int\nend")


def test_unknown_procedure_rejected():
    with pytest.raises(CluCompileError, match="unknown procedure"):
        compile_program("proc main()\n  var x: int := nothere(1)\nend")


def test_wrong_arity_rejected():
    with pytest.raises(CluCompileError, match="expects 2 args"):
        compile_program(
            "proc two(a: int, b: int)\nend\nproc main()\n  two(1)\nend"
        )


def test_record_declaration_and_literal():
    program = compile_program(
        """
record point
  x: int
  y: int
end
proc main()
  var p: point := point{x: 1, y: 2}
end
"""
    )
    assert program.records == {"point": ["x", "y"]}


def test_record_literal_missing_field_rejected():
    with pytest.raises(CluCompileError, match="must set exactly"):
        compile_program(
            """
record point
  x: int
  y: int
end
proc main()
  var p: point := point{x: 1}
end
"""
        )


def test_unknown_type_rejected():
    with pytest.raises(CluCompileError, match="unknown type"):
        compile_program("proc main()\n  var x: wibble\nend")


def test_printop_registration():
    program = compile_program(
        """
record point
  x: int
  y: int
end
printop point show
proc show(p: point) returns string
  return itoa(p.x)
end
"""
    )
    assert program.printops == {"point": "show"}


def test_printop_arity_enforced():
    with pytest.raises(CluCompileError, match="exactly one argument"):
        compile_program(
            """
record point
  x: int
end
printop point show
proc show(p: point, q: int) returns string
  return "x"
end
"""
        )


def test_printop_unknown_proc_rejected():
    with pytest.raises(CluCompileError, match="unknown procedure"):
        compile_program("record r\n x: int\nend\nprintop r nope")


def test_globals_literal_initializers():
    program = compile_program('var greeting: string := "hi"\nproc main()\nend')
    assert program.globals_init == {"greeting": "hi"}


def test_globals_non_literal_initializer_rejected():
    with pytest.raises(CluCompileError, match="literals"):
        compile_program("var x: int := 1 + 2\nproc main()\nend")


def test_signal_as_expression_rejected():
    with pytest.raises(CluCompileError, match="statement"):
        compile_program(
            "proc main()\n  var s: sem := semaphore(0)\n  var x: int := signal(s)\nend"
        )


def test_remote_call_syntax():
    program = compile_program(
        """
proc main()
  var a: int := remote calc.add(1, 2)
  var b: int := remote maybe calc.add(3, 4)
end
"""
    )
    code = program.functions["main"].code
    rcalls = [i for i in code if i.op == "RCALL"]
    assert rcalls[0].arg == ("calc", "add", "once")
    assert rcalls[1].arg == ("calc", "add", "maybe")


def test_duplicate_procedure_rejected():
    with pytest.raises(CluCompileError, match="twice"):
        compile_program("proc a()\nend\nproc a()\nend")


def test_parse_error_reports_line():
    with pytest.raises(CluCompileError, match="line 3"):
        compile_program("proc main()\n  var x: int := 1\n  var y int\nend")


# ----------------------------------------------------------------------
# The compile memo is invisible: one shared read-only Program, private
# NodeImages
# ----------------------------------------------------------------------

LOOP = """var hits: int := 0
proc main()
  var i: int := 0
  while i < 1000 do
    i := i + 1
    hits := hits + 1
    sleep(1000)
  end
  print i
end
"""


def test_compile_memo_returns_one_program_per_source_and_module():
    assert compile_program(LOOP, "app") is compile_program(LOOP, "app")
    assert compile_program(LOOP, "app") is not compile_program(LOOP, "other")
    assert compile_program(LOOP, "other").module == "other"
    assert compile_program(LOOP + "\n", "app") is not compile_program(LOOP, "app")


def test_compile_error_is_raised_again_not_cached():
    bad = "proc main()\n  var y int\nend"
    for _ in range(2):
        with pytest.raises(CluCompileError, match="line 2"):
            compile_program(bad, "app")


def test_images_linked_from_a_memoised_program_are_independent():
    from repro import Cluster, Pilgrim

    def session():
        cluster = Cluster(names=["app", "debugger"], seed=0)
        image = cluster.load_program(LOOP, "app")
        cluster.spawn_vm("app", image, "main")
        return cluster, image

    (patched_cluster, patched), (_, untouched) = session(), session()
    program = compile_program(LOOP, "app")
    assert patched.program is program and untouched.program is program

    dbg = Pilgrim(patched_cluster, home="debugger")
    dbg.connect("app")
    bp = dbg.set_breakpoint("app", "app", line=5)
    assert dbg.wait_for_breakpoint()["line"] == 5
    # The TRAP went into one node's private code array and nowhere else.
    assert patched.functions[bp.func].code[bp.pc].op == "TRAP"
    assert untouched.functions[bp.func].code[bp.pc].op != "TRAP"
    assert program.functions[bp.func].code[bp.pc].op != "TRAP"

    # Node-private state does not leak through the shared master either.
    patched.globals["hits"] = 99
    patched.console.append("only here")
    assert untouched.globals == {"hits": 0} and untouched.console == []
    assert program.globals_init == {"hits": 0}
    fresh = Cluster(names=["app"], seed=1).load_program(LOOP, "app")
    assert fresh.globals == {"hits": 0} and fresh.console == []
    assert all(i.op != "TRAP" for i in fresh.functions[bp.func].code)
