"""Chaos soak: seeded nemesis schedules over an exactly-once workload.

Marked ``chaos`` and excluded from the tier-1 run (see pyproject's
addopts); CI runs it in a dedicated job with ``-m chaos``.

The workload is 30 exactly-once calls whose values are distinct powers
of two, so the client's printed total is a bitmask identifying exactly
which calls succeeded — cross-checkable bit-by-bit against the
server-side execution log.  Invariants, per schedule:

* the server never executes one call twice (the duplicate/retransmit
  dedup and the stale-rejection on reboot hold);
* every call reaches a verdict (success or failure) — the client
  finishes all 30;
* every success the client counted was really executed (its bit is in
  the server's log);
* the attached debugger keeps polling throughout and never wedges,
  reattaching after reboots.
"""

import pytest

from repro import MS, SEC, AgentError, Cluster, FaultPlan, Nemesis, Pilgrim

pytestmark = pytest.mark.chaos

#: 30 calls with values 1, 2, 4, ... 2^29: the printed total is the
#: bitmask of the successful subset.
CLIENT_30 = """
proc main()
  var total: int := 0
  var done: int := 0
  var p: int := 1
  for i := 1 to 30 do
    var r: int := remote svc.echo(p)
    if failed(r) then
      done := done + 1
    else
      total := total + r
      done := done + 1
    end
    p := p * 2
  end
  print total
  print done
end
"""


def _soak(plan: FaultPlan, seed: int = 7):
    cluster = Cluster(names=["client", "server", "debugger"], seed=seed)
    executed: list[int] = []

    def echo(ctx, x):
        executed.append(x)
        return x

    cluster.rpc("server").export_native("svc", {"echo": echo})
    client_image = cluster.load_program(CLIENT_30, "client")
    cluster.spawn_vm("client", client_image, "main")
    dbg = Pilgrim(cluster, home="debugger")
    dbg.connect("client", "server")
    Nemesis(cluster, plan)

    # Drive the run in slices, polling the debugger between them; the
    # debugger must survive the whole schedule without wedging.
    polls = 0
    for _ in range(40):
        cluster.run_for(200 * MS)
        try:
            survey = dbg.all_processes()
        except AgentError:
            # A rebooted node rejected the stale session id: re-adopt it
            # and retry the poll.
            for address in list(dbg.connected_nodes):
                node = cluster.nodes[address]
                if dbg.node_epochs.get(address, 0) != node.epoch:
                    dbg.reattach(address)
            survey = dbg.all_processes()
        assert isinstance(survey["nodes"], dict)
        polls += 1
        if len(client_image.console) == 2:
            break
    cluster.run(until=cluster.world.now + 5 * SEC)

    assert polls > 0
    assert len(client_image.console) == 2, "client never finished"
    total, done = int(client_image.console[0]), int(client_image.console[1])
    assert done == 30, "some call reached no verdict"
    # No duplicated server executions: all logged values distinct.
    assert len(executed) == len(set(executed))
    # Every success the client saw is backed by a real execution.
    executed_mask = sum(set(executed))
    assert total & ~executed_mask == 0
    return cluster, total, executed


def test_soak_crash_and_reboot():
    plan = (FaultPlan()
            .crash(at=100 * MS, node="server")
            .reboot(at=300 * MS, node="server")
            .crash(at=900 * MS, node="server")
            .reboot(at=1100 * MS, node="server"))
    cluster, total, executed = _soak(plan)
    assert cluster.node("server").epoch == 2
    # The workload rode through two reboots and still made progress.
    assert total > 0


def test_soak_partition_and_heal():
    plan = (FaultPlan()
            .partition(at=80 * MS, groups=[[0, 2], [1]], duration=180 * MS)
            .partition(at=600 * MS, groups=[[0, 2], [1]], duration=120 * MS))
    cluster, total, executed = _soak(plan)
    # Both cuts healed inside the retransmission budget: nothing is lost.
    assert total == 2**30 - 1
    assert len(executed) == 30
    assert cluster.net.total_nacked > 0


def test_soak_delay_and_duplicate():
    plan = (FaultPlan()
            .delay(at=50 * MS, duration=1 * SEC, extra=4 * MS, jitter=2 * MS)
            .duplicate(at=50 * MS, duration=1500 * MS, probability=0.5)
            .reorder(at=300 * MS, duration=500 * MS, probability=0.3))
    cluster, total, executed = _soak(plan)
    # Delay/duplication/reordering never lose or double anything.
    assert total == 2**30 - 1
    assert len(executed) == 30


def test_soak_schedules_are_deterministic():
    plan = (FaultPlan()
            .crash(at=100 * MS, node="server")
            .reboot(at=300 * MS, node="server")
            .delay(at=400 * MS, duration=600 * MS, extra=3 * MS, jitter=1 * MS))
    _, total_a, executed_a = _soak(plan, seed=21)
    _, total_b, executed_b = _soak(plan, seed=21)
    assert total_a == total_b
    assert executed_a == executed_b
