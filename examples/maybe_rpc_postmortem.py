#!/usr/bin/env python3
"""Post-mortem of failed *maybe* RPCs on a lossy network (paper §4.1).

The maybe protocol sends one call packet and waits once: "The failure of
a call performed with the maybe RPC protocol could be due to either the
call or reply packet being lost.  The debugger ought to allow the
programmer to find out which is the case."

We run a client making maybe calls over a ring that drops specific
packets, then connect Pilgrim and use the ten-slot recent-call buffer
plus the server's call table to classify each failure.

Run:  python examples/maybe_rpc_postmortem.py
"""

from repro import SEC, Cluster, Pilgrim
from repro.faults.shaper import LOSS, FaultRule, LinkShaper
from repro.rpc.runtime import remote_call


def main() -> None:
    cluster = Cluster(names=["client", "server", "debugger"])
    cluster.rpc("server").export_native("store", {"put": lambda ctx, k: k})

    # Fault injection: two silent-loss rules drop the call packet of
    # request 2 and the reply packet of request 4.
    state = {"i": 0}
    shaper = LinkShaper(cluster.net)
    shaper.add_rule(FaultRule(
        LOSS, match=lambda p: p.kind == "rpc_call" and state["i"] == 2
    ))
    shaper.add_rule(FaultRule(
        LOSS, match=lambda p: p.kind == "rpc_reply" and state["i"] == 4
    ))

    results = []

    def client(node):
        for i in range(6):
            state["i"] = i
            result = yield from remote_call(
                node.rpc, "store", "put", [i], protocol="maybe"
            )
            results.append(result)

    node = cluster.node("client")
    node.spawn(client(node), name="client")
    cluster.run_for(3 * SEC)

    print("client-side results:")
    for i, result in enumerate(results):
        print(f"  put({i}) -> {result!r}")

    # Connect the debugger after the fact and diagnose.
    dbg = Pilgrim(cluster, home="debugger")
    dbg.connect("client", "server")

    info = dbg.rpc_info("client")
    print("\nrecent-call buffer (ten most recent outcomes):")
    for call_id, ok in info["recent"]:
        print(f"  call #{call_id}: {'ok' if ok else 'FAILED'}")

    print("\ndiagnosis of the failures:")
    for call_id, ok in info["recent"]:
        if ok:
            continue
        verdict = dbg.diagnose_maybe_failure("client", call_id)
        print(f"  call #{call_id}: {verdict}")

    dbg.disconnect()


if __name__ == "__main__":
    main()
