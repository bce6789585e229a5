#!/usr/bin/env python3
"""Branching time travel: fork a recording and explore what-if futures.

Records a seeded client/server run once, then forks it at a checkpoint
into two divergent futures — one where the client is partitioned away
mid-conversation, one where the server crashes outright — without ever
touching the original recording.  Each fork re-executes the recorded
recipe deterministically with the perturbation merged into the fault
plan, so everything before the injected fault is byte-identical to the
parent and everything after is a faithful alternate history.  Branches
are content-addressed (an identical fork spec dedupes) and any two can
be diffed: first divergent event, per-node divergence times, and
halt-state deltas.

Run:  python examples/branching.py
"""

from repro import MS, SEC, FaultPlan, record_run
from repro.replay import BranchTree, Perturbation

ECHO_SERVER = "proc echo(x: int) returns int\n  return x\nend"

CLIENT = """
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
    image = cluster.load_program(ECHO_SERVER, "server")
    cluster.rpc("server").export_vm("svc", image, {"echo": "echo"})
    cluster.spawn_vm("client", cluster.load_program(CLIENT, "client"), "main")


def describe(diff, side_a, side_b):
    fd = diff.first_divergence
    print(f"{side_a} vs {side_b}: first divergence at event #{fd['index']}")
    print(f"  {side_a}: {fd['a']}")
    print(f"  {side_b}: {fd['b']}")
    for node, times in sorted(diff.per_node.items()):
        where = "bus" if node == -1 else f"node {node}"
        t_a = "-" if times["time_a"] is None else f"{times['time_a']}us"
        t_b = "-" if times["time_b"] is None else f"{times['time_b']}us"
        print(f"  {where} diverges at {side_a}:{t_a} {side_b}:{t_b}")
    for counter, (in_a, in_b) in sorted(diff.count_delta.items()):
        print(f"  counts.{counter}: {side_a}={in_a} {side_b}={in_b}")
    print(f"  events: {side_a}={diff.events_a} {side_b}={diff.events_b}")


def main():
    # -- record the baseline once --------------------------------------
    trace = record_run(build, ["client", "server", "debugger"], seed=7,
                       checkpoint_every=100 * MS, run_until=2 * SEC)
    print(f"recorded {len(trace.events)} events, "
          f"{len(trace.checkpoints)} checkpoints, seed {trace.seed}")
    baseline = trace.fingerprint()

    # -- future #1: partition the client away mid-conversation ---------
    tree = BranchTree(trace, build)
    partition = Perturbation.from_plan(
        FaultPlan().partition(at=110 * MS, groups=[[0], [1]],
                              duration=400 * MS),
        kind="partition", note="client cut off for 400ms")
    cut_off = tree.fork(partition, checkpoint=1)
    print(f"forked branch {cut_off.id[:12]} at checkpoint 1 "
          f"(t={cut_off.fork_time}us)")

    # Forking never writes the parent: the recording is untouched, and an
    # identical fork spec hands back the recorded branch instead of
    # re-executing (branch points are content-addressed).
    print(f"parent untouched: {trace.fingerprint() == baseline}")
    print(f"identical fork deduped: {tree.fork(partition, checkpoint=1) is cut_off}")

    describe(tree.diff("root", cut_off.id), "parent", "partitioned")

    # -- future #2: crash the server outright ---------------------------
    crash = tree.fork(
        Perturbation.from_plan(FaultPlan().crash(at=110 * MS, node="server"),
                               kind="crash", note="server dies instead"),
        checkpoint=1)
    describe(tree.diff(cut_off.id, crash.id), "partitioned", "crashed")

    print(f"branches recorded: {len(tree.branches())}")
    for info in tree.branches():
        parent = info.parent[:12] if info.parent else "-"
        print(f"  {info.id[:12]} <- {parent:<12} {info.kind:<10} "
              f"events={info.events}")


if __name__ == "__main__":
    main()
