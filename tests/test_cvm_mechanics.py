"""Direct tests of the CVM's debugging mechanics: trap patching, image
isolation, frame well-formedness, print-op sub-interpretation."""

import pytest

from repro.cclu import compile_program
from repro.cvm import (
    CluRecord,
    CluRuntimeError,
    FuncCode,
    Instr,
    VmExecutor,
    interp,
    run_pure,
)
from repro.cvm import instructions as ops
from repro.cvm.interp import BreakpointWait
from repro.mayflower import Node, ProcessState
from repro.params import Params
from repro.sim import MS, World

SOURCE = """
proc helper(x: int) returns int
  var y: int := x * 2
  return y + 1
end
proc main()
  var a: int := helper(10)
  var b: int := helper(a)
  print b
end
"""


def make_node():
    world = World()
    node = Node(0, "n", world, Params())
    return world, node


def test_trap_patching_stops_process():
    world, node = make_node()
    image = compile_program(SOURCE).link(node)
    func = image.function("helper")
    original = func.code[0]
    func.code[0] = Instr(ops.TRAP, line=original.line)
    trapped = []
    image.trap_handler = lambda proc, executor, frame: trapped.append(
        (proc.pid, frame.pc)
    )
    process = node.spawn(VmExecutor(image, "main", []), name="main")
    world.run(until=50 * MS)
    assert trapped == [(process.pid, 0)]
    assert process.state == ProcessState.WAITING
    assert isinstance(process.waiting_on, BreakpointWait)
    assert image.console == []  # never got to print


def test_trap_restore_and_resume():
    world, node = make_node()
    image = compile_program(SOURCE).link(node)
    func = image.function("helper")
    original = func.code[0]
    func.code[0] = Instr(ops.TRAP, line=original.line)
    stopped = {}
    image.trap_handler = lambda proc, ex, frame: stopped.update(proc=proc)
    process = node.spawn(VmExecutor(image, "main", []), name="main")
    world.run(until=50 * MS)
    # Restore the original instruction and wake the process: it re-fetches
    # the same pc and proceeds (the 68000 trap model).
    func.code[0] = original
    node.supervisor.unblock(stopped["proc"], None)
    world.run()
    assert image.console == ["43"]


def test_after_step_hook_fires_once():
    world, node = make_node()
    image = compile_program(SOURCE).link(node)
    executor = VmExecutor(image, "main", [])
    fired = []
    executor.after_step = lambda: fired.append(world.now)
    node.spawn(executor, name="main")
    world.run()
    assert len(fired) == 1


def test_images_are_isolated_per_node():
    world = World()
    node_a = Node(0, "a", world, Params())
    node_b = Node(1, "b", world, Params())
    program = compile_program(SOURCE)
    image_a = program.link(node_a)
    image_b = program.link(node_b)
    # Patch a trap on node A only.
    image_a.function("main").code[0] = Instr(ops.TRAP)
    assert image_b.function("main").code[0].op != ops.TRAP
    # And the master program is untouched.
    assert program.functions["main"].code[0].op != ops.TRAP
    # Globals are also per-node.
    image_a.globals["x"] = 1
    assert "x" not in image_b.globals


def test_under_construction_frames_hidden_from_backtrace():
    world, node = make_node()
    image = compile_program(SOURCE).link(node)
    executor = VmExecutor(image, "main", [])
    node.spawn(executor, name="main")
    # Drive instruction by instruction; at every point the backtrace must
    # contain only well-formed frames.
    for _ in range(200):
        if not world.step():
            break
        for frame in executor.backtrace():
            assert frame["well_formed"]


def test_backtrace_locals_reflect_execution_point():
    world, node = make_node()
    source = """
proc main()
  var a: int := 1
  var s: sem := semaphore(0)
  var got: bool := wait(s, 1000000)
end
"""
    image = compile_program(source).link(node)
    executor = VmExecutor(image, "main", [])
    node.spawn(executor, name="main")
    world.run(until=10 * MS)  # blocked on the wait
    trace = executor.backtrace()
    assert trace[0]["locals"]["a"] == 1
    assert "s" in trace[0]["locals"]
    assert "got" not in trace[0]["locals"]  # not assigned yet


def test_run_pure_rejects_blocking_ops():
    world, node = make_node()
    source = """
proc bad(x: int) returns string
  sleep(100)
  return "no"
end
"""
    image = compile_program(source).link(node)
    with pytest.raises(CluRuntimeError, match="not allowed"):
        run_pure(image, "bad", [1])


def test_run_pure_bounded():
    world, node = make_node()
    source = """
proc spin(x: int) returns string
  while true do
    x := x + 1
  end
  return "never"
end
"""
    image = compile_program(source).link(node)
    with pytest.raises(CluRuntimeError, match="too long"):
        run_pure(image, "spin", [1], max_instructions=1000)


def test_run_pure_evaluates_printop_with_helpers():
    world, node = make_node()
    source = """
record money
  pounds: int
  pence: int
end
printop money show_money
proc pad(p: int) returns string
  if p < 10 then
    return "0" + itoa(p)
  end
  return itoa(p)
end
proc show_money(m: money) returns string
  return itoa(m.pounds) + "." + pad(m.pence)
end
proc main()
end
"""
    image = compile_program(source).link(node)
    value = CluRecord("money", {"pounds": 12, "pence": 5})
    assert image.render(value) == "12.05"


def test_printop_failure_falls_back_gracefully():
    """A buggy print operation must not take the agent down."""
    world, node = make_node()
    source = """
record thing
  n: int
end
printop thing show
proc show(t: thing) returns string
  return itoa(1 / 0)
end
proc main()
end
"""
    image = compile_program(source).link(node)
    value = CluRecord("thing", {"n": 1})
    with pytest.raises(CluRuntimeError):
        image.render(value)


def test_printop_type_errors_are_the_vms():
    """A print op fails with the VM's own error, not a Python one."""
    world, node = make_node()
    source = """
record thing
  n: int
end
printop thing show
proc show(t: thing) returns string
  var a: int := t.n
  return itoa(a[0])
end
proc poke(t: thing) returns string
  var a: int := t.n
  a.n := 5
  return "no"
end
proc main()
end
"""
    image = compile_program(source).link(node)
    value = CluRecord("thing", {"n": 1})
    with pytest.raises(CluRuntimeError, match="indexing non-array 1"):
        image.render(value)
    image.printops["thing"] = "poke"
    with pytest.raises(CluRuntimeError, match="field update on non-record 1"):
        image.render(value)


#: For each effect a print op may not have, code that would have it: the
#: operands the instruction pops, then the instruction (hand-assembled:
#: no CLU syntax emits TRAP or HALTP).
_EFFECTFUL_CODE = {
    ops.STOREG: [Instr(ops.CONST, 2), Instr(ops.STOREG, "g")],
    ops.SEMWAIT: [Instr(ops.LOADG, "s"), Instr(ops.CONST, 0), Instr(ops.SEMWAIT)],
    ops.SEMSIGNAL: [Instr(ops.LOADG, "s"), Instr(ops.SEMSIGNAL)],
    ops.REGENTER: [Instr(ops.LOADG, "r"), Instr(ops.REGENTER)],
    ops.REGEXIT: [Instr(ops.LOADG, "r"), Instr(ops.REGEXIT)],
    ops.CONDWAIT: [Instr(ops.LOADG, "m"), Instr(ops.CONST, "c"), Instr(ops.CONDWAIT)],
    ops.CONDSIG: [Instr(ops.LOADG, "m"), Instr(ops.CONST, "c"), Instr(ops.CONDSIG)],
    ops.SLEEPI: [Instr(ops.CONST, 10), Instr(ops.SLEEPI)],
    ops.SPAWNP: [Instr(ops.SPAWNP, "main", 0)],
    ops.RCALL: [Instr(ops.RCALL, ("svc", "p", "maybe"), 0)],
    ops.PRINTI: [Instr(ops.CONST, "x"), Instr(ops.PRINTI)],
    ops.TRAP: [Instr(ops.TRAP)],
    ops.HALTP: [Instr(ops.HALTP)],
    "semaphore": [Instr(ops.CONST, 0), Instr(ops.CALLB, "semaphore", 1)],
    "region": [Instr(ops.CALLB, "region", 0)],
    "monitor": [Instr(ops.CALLB, "monitor", 0)],
    "now": [Instr(ops.CALLB, "now", 0)],
    "self": [Instr(ops.CALLB, "self", 0)],
}


def test_every_effect_is_refused():
    assert set(_EFFECTFUL_CODE) == interp._EFFECTS | interp._NODE_BUILTINS


@pytest.mark.parametrize("effect", sorted(_EFFECTFUL_CODE))
def test_a_print_op_effect_is_refused_and_leaves_the_node_untouched(effect):
    world, node = make_node()
    image = compile_program(SOURCE).link(node)
    image.globals.update(g=1, s=node.semaphore(count=1), r=node.region(),
                         m=node.monitor())
    calls = []
    image.trap_handler = image.rpc_hook = lambda *args: calls.append(args)
    image.functions["bad"] = FuncCode(
        "bad", ["v"], [Instr(ops.NOP), *_EFFECTFUL_CODE[effect],
                       Instr(ops.CONST, "ok"), Instr(ops.RET)])
    image.printops["thing"] = "bad"

    def state():
        s, r, m = image.globals["s"], image.globals["r"], image.globals["m"]
        return (dict(image.globals), list(image.console),
                list(node.supervisor.processes), s.count, r.holder,
                m.mutex.holder, dict(m.conditions), world.pending_count(),
                list(calls))

    before = state()
    with pytest.raises(CluRuntimeError, match="not allowed in a print operation"):
        image.render(CluRecord("thing", {}))
    assert state() == before


def test_line_table_round_trip():
    program = compile_program(SOURCE)
    func = program.functions["helper"]
    for pc, instr in enumerate(func.code):
        assert func.line_for_pc(pc) == instr.line
        assert pc in func.pcs_for_line(instr.line)
    assert func.line_for_pc(10_000) == 0


def test_registers_report_position():
    world, node = make_node()
    source = "proc main()\n  sleep(1000000)\nend"
    image = compile_program(source).link(node)
    executor = VmExecutor(image, "main", [])
    process = node.spawn(executor, name="main")
    world.run(until=10 * MS)
    regs = process.registers()
    assert regs["kind"] == "vm"
    assert regs["proc"] == "main"
    assert regs["state"] == "waiting"
    assert "sleep" in regs["waiting_on"]


def test_vm_executor_rejects_bad_arity():
    world, node = make_node()
    image = compile_program(SOURCE).link(node)
    with pytest.raises(CluRuntimeError, match="expects 1 args"):
        VmExecutor(image, "helper", [])


def test_output_redirection():
    world, node = make_node()
    image = compile_program('proc main()\n  print "hello"\nend').link(node)
    collected = []
    executor = VmExecutor(image, "main", [], output=collected.append)
    node.spawn(executor, name="main")
    world.run()
    assert collected == ["hello"]
    assert image.console == []  # redirected away from the console
