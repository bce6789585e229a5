"""The committed golden-trace scenario.

One fixed recipe — chaos echo workload, seed 7 — whose recorded trace is
committed at ``tests/golden/echo_chaos_seed7.trace.bin`` (with its
JSONL export next to it, for reading diffs).  CI replays
the committed file against this builder on every push: any change that
shifts event timing, ordering, normalization, or RNG consumption shows
up as a ``ReplayDivergence`` with the first drifted event, instead of as
a silent determinism break.

Regenerate (only when a change *intentionally* alters the stream, and
say so in the commit message)::

    PYTHONPATH=src python -m tests.golden_scenario
"""

from pathlib import Path

from repro import MS, SEC, FaultPlan, record_run

#: The JSONL export of the golden recording (human-readable, not loadable).
GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "echo_chaos_seed7.trace.jsonl"
#: The golden recording itself, in the trace container; CI byte-checks
#: its export against :data:`GOLDEN_PATH`.
GOLDEN_BINARY_PATH = GOLDEN_PATH.with_name("echo_chaos_seed7.trace.bin")
GOLDEN_SEED = 7
GOLDEN_NAMES = ["client", "server", "debugger"]
GOLDEN_RUN_UNTIL = 4 * SEC
GOLDEN_CHECKPOINT_EVERY = 100 * MS

ECHO_SERVER = "proc echo(x: int) returns int\n  return x\nend"

CHAOS_CLIENT = """
proc main()
  var total: int := 0
  for i := 1 to 12 do
    var r: int := remote svc.echo(i)
    if failed(r) then
      total := total - 100
    else
      total := total + r
    end
  end
  print total
end
"""


def build(cluster):
    server_image = cluster.load_program(ECHO_SERVER, "server")
    cluster.rpc("server").export_vm("svc", server_image, {"echo": "echo"})
    client_image = cluster.load_program(CHAOS_CLIENT, "client")
    cluster.spawn_vm("client", client_image, "main")


def plan():
    # client=0, server=1 in GOLDEN_NAMES order.
    return (FaultPlan()
            .crash(at=60 * MS, node="server")
            .reboot(at=200 * MS, node="server")
            .partition(at=250 * MS, groups=[[0], [1]], duration=100 * MS)
            .delay(at=360 * MS, duration=400 * MS, extra=5 * MS, jitter=2 * MS)
            .duplicate(at=360 * MS, duration=400 * MS, probability=0.5))


def record():
    return record_run(
        build,
        GOLDEN_NAMES,
        seed=GOLDEN_SEED,
        plan=plan(),
        checkpoint_every=GOLDEN_CHECKPOINT_EVERY,
        run_until=GOLDEN_RUN_UNTIL,
        meta={"golden": True},
    )


if __name__ == "__main__":
    from repro.replay.format import export_jsonl

    trace = record()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    trace.save(GOLDEN_BINARY_PATH)
    export_jsonl(trace, GOLDEN_PATH)
    print(f"wrote {GOLDEN_PATH} and {GOLDEN_BINARY_PATH} "
          f"({len(trace.events)} events, fingerprint {trace.fingerprint()})")
