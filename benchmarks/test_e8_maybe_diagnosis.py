"""E8 — diagnosing maybe-protocol failures and the recent-call buffer
(paper §4.1, §4.3).

Paper: "The failure of a call performed with the maybe protocol could be
due to either the call or reply packet being lost.  The debugger ought to
allow the programmer to find out which is the case." and "I added a
ten-slot cyclic buffer describing the outcome of ten most recent RPCs."

Reproduced shape: the debugger's post-mortem correctly classifies
call-loss vs reply-loss by asking the server's agent whether the call id
was ever seen/executed; the buffer holds exactly the ten most recent
outcomes.
"""

from repro import SEC, Cluster, Pilgrim
from repro.faults.shaper import LOSS, FaultRule, LinkShaper
from repro.rpc.runtime import remote_call
from benchmarks.common import print_table


def run_trial(drop: str, seed: int = 0) -> dict:
    """drop in {'none', 'call', 'reply'}; returns diagnosis info."""
    cluster = Cluster(names=["client", "server", "debugger"], seed=seed)
    cluster.rpc("server").export_native("svc", {"op": lambda ctx: 42})
    if drop != "none":
        kind = f"rpc_{drop}"
        LinkShaper(cluster.net).add_rule(
            FaultRule(LOSS, match=lambda p: p.kind == kind)
        )
    out = {}

    def caller(node):
        out["result"] = yield from remote_call(
            node.rpc, "svc", "op", protocol="maybe"
        )

    node = cluster.node("client")
    node.spawn(caller(node), name="caller")
    cluster.run_for(2 * SEC)
    dbg = Pilgrim(cluster, home="debugger")
    dbg.connect("client", "server")
    history = cluster.rpc("client").client_history
    call_id = history[-1].call_id
    out["diagnosis"] = dbg.diagnose_maybe_failure("client", call_id)
    return out


def buffer_experiment() -> dict:
    """25 calls through a 10-slot buffer, with two failures mixed in."""
    cluster = Cluster(names=["client", "server", "debugger"], seed=1)
    cluster.rpc("server").export_native("svc", {"op": lambda ctx, n: n})
    failures_at = {7, 18}
    drop_next = {"armed": False}

    def armed_call(packet):
        return packet.kind == "rpc_call" and drop_next["armed"]

    LinkShaper(cluster.net).add_rule(FaultRule(LOSS, match=armed_call))
    outcomes = []

    def caller(node):
        for i in range(25):
            drop_next["armed"] = i in failures_at
            result = yield from remote_call(
                node.rpc, "svc", "op", [i], protocol="maybe"
            )
            outcomes.append(result)

    node = cluster.node("client")
    node.spawn(caller(node), name="caller")
    cluster.run(until=30 * SEC)
    buffer = cluster.rpc("client").recent_outcomes()
    return {"buffer": buffer, "outcomes": outcomes}


def run_experiment() -> dict:
    rows = []
    for drop in ("none", "call", "reply"):
        result = run_trial(drop)
        rows.append([drop, str(result["result"]), result["diagnosis"]])
    buf = buffer_experiment()
    return {"rows": rows, "buffer": buf}


def test_e8_maybe_diagnosis(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = result["rows"]
    print_table(
        "E8: maybe-protocol failure diagnosis (paper §4.1)",
        ["packet dropped", "client saw", "debugger diagnosis"],
        rows,
    )
    by_drop = {r[0]: r[2] for r in rows}
    assert by_drop["none"] == "call succeeded"
    assert "call packet lost" in by_drop["call"]
    assert "reply packet lost" in by_drop["reply"]

    buffer = result["buffer"]["buffer"]
    print(f"\nrecent-call buffer after 25 calls: {buffer}")
    # Exactly ten slots, the ten most recent outcomes, oldest first.
    assert len(buffer) == 10
    succeeded = [ok for _cid, ok in buffer]
    # Calls 15..24; call 18 failed.
    assert succeeded == [True, True, True, False, True,
                         True, True, True, True, True]
