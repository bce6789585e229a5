"""The examples are part of the public API surface: run each end-to-end
and check its key output lines."""

import pathlib
import subprocess
import sys

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: int = 120) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "attached, session" in out
    assert "breakpoint: pid" in out
    assert "req = factorial(" in out
    assert "distributed backtrace" in out
    assert "<rpc runtime>" in out
    assert "program still running after detach" in out


def test_distributed_breakpoint():
    out = run_example("distributed_breakpoint.py")
    assert "outcome for Q: signalled  (typical computation preserved)" in out
    assert "outcome for Q: timed_out  (atypical: Q observed P's halt)" in out


def test_shared_server_debugging():
    out = run_example("shared_server_debugging.py")
    # Naive server loses the TUID during the halt...
    assert "mid-halt: TUID valid = False" in out
    # ...the Figure-4 server keeps it alive.
    assert "mid-halt: TUID valid = True" in out
    assert "reclaims by contention: 1" in out


def test_maybe_rpc_postmortem():
    out = run_example("maybe_rpc_postmortem.py")
    assert "call packet lost" in out
    assert "reply packet lost" in out
    assert "recent-call buffer" in out


def test_repl_session():
    out = run_example("repl_session.py")
    assert "* breakpoint: node 0" in out
    assert "j = job#" in out
    assert "recent outcomes:" in out
    assert "disconnected; program continues" in out


def test_live_python_debugging():
    out = run_example("live_python_debugging.py")
    assert "attached; threads: ['producer', 'consumer']" in out
    assert "breakpoint: thread 'producer'" in out
    assert "ledger frozen = True" in out
    assert "single step -> line" in out
    assert "detached; program still running" in out


def test_branching():
    out = run_example("branching.py")
    assert "forked branch" in out
    assert "parent untouched: True" in out
    assert "identical fork deduped: True" in out
    assert "parent vs partitioned: first divergence at event #" in out
    assert "partitioned vs crashed: first divergence at event #" in out
    assert "counts.rpc_failed" in out
    assert "branches recorded: 3" in out


def test_time_travel():
    out = run_example("time_travel.py")
    assert "replay byte-identical: True" in out
    assert "at 150ms: cursor #" in out
    assert "reverse_step: now before event #" in out
    assert "causal history of first delivery" in out
    assert "races between seeds 1 and 5: 1" in out
    assert "races between seed 1 and itself: 0" in out


def test_every_example_is_run():
    """Each ``examples/*.py`` has its test above, named after it."""
    tested = {name.removeprefix("test_") + ".py" for name in globals()
              if name.startswith("test_") and name != "test_every_example_is_run"}
    assert tested == {path.name for path in EXAMPLES.glob("*.py")}
