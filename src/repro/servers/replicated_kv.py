"""A replicated KV store with naive lease-based leader election.

The campaign's ``kv`` scenario: three replicas (``kv0``..``kv2``) each
export a native RPC service with client-facing ``put``/``get`` and
replica-facing ``hb`` (heartbeat) / ``repl`` (async replication) procs.
``kv0`` boots as leader of term 1 and heartbeats the others; a follower
that misses heartbeats past its *staggered* takeover timeout claims
``last seen term + 1``.  The stagger (kv1 fires before kv2) means a
clean leader crash produces exactly one successor — but the election is
deliberately naive: a partition that isolates the two followers from
the leader *and from each other* makes both time out blind and claim
the same term.  That split brain is precisely what the
``single_leader`` contract (:mod:`repro.contracts.dsl`) detects, and
what the shrinker reduces :func:`leader_partition_plan` down to.

Every leadership claim and every client operation is emitted as an
:class:`~repro.obs.events.Observation` (``kind`` = ``leader`` /
``invoke`` / ``return``), which is all the event-backed contracts need
— the checkers read observations, never server internals.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.contracts.dsl import (
    CLOCK_MONOTONICITY,
    EXACTLY_ONCE_DELIVERY,
    REGISTER_LINEARIZABILITY,
    SINGLE_LEADER,
    ContractSet,
)
from repro.faults.plan import FaultPlan
from repro.mayflower.syscalls import Self, Sleep
from repro.obs import events as ev
from repro.rpc.runtime import RpcFailure, remote_call
from repro.sim.units import MS, SEC

if TYPE_CHECKING:
    from repro.cluster import Cluster
    from repro.mayflower.node import Node

#: Node layout the scenario pins (client is node 0; replicas 1..3).
KV_NODE_NAMES = ("client", "kv0", "kv1", "kv2")

#: The replica service names, in the order the client tries them.
KV_REPLICAS = ("kv0", "kv1", "kv2")

#: Scenario horizon: the client workload finishes well inside it.
KV_RUN_UNTIL = 4 * SEC

#: Leader heartbeat period; must beat the takeover stagger so a live
#: successor's heartbeats reach the slower follower before it times out.
HEARTBEAT_EVERY = 150 * MS

#: Base follower takeover timeout; replica ``kvN`` waits
#: ``TAKEOVER_BASE + (N - 1) * TAKEOVER_STAGGER`` without heartbeats.
TAKEOVER_BASE = 600 * MS
TAKEOVER_STAGGER = 300 * MS

#: put/get rounds the client performs, one op per OP_GAP tick.
CLIENT_ROUNDS = 6
OP_GAP = 250 * MS

#: Sentinel a non-leader replica answers with (client values are >= 0).
NOT_LEADER = -1

#: The scenario's verdict oracle — all event-backed, so the online
#: monitor and the offline trace fold judge it identically.
KV_CONTRACT_SET = ContractSet(
    name="kv",
    contracts=(
        SINGLE_LEADER,
        REGISTER_LINEARIZABILITY,
        EXACTLY_ONCE_DELIVERY,
        CLOCK_MONOTONICITY,
    ),
)


def _observe(node: "Node", kind: str, op: str = "", key: str = "",
             value: int = 0, pid: int = 0) -> None:
    """Emit one Observation on the node's bus (dormant when unwatched)."""
    node.world.bus.emit(ev.Observation, node.supervisor.current_time(), node.node_id,
                        kind, op, key, value, pid)


class KvReplica:
    """One replica: a store, a term, and two keeper processes.

    The *watch* keeper (every replica) polls for missed heartbeats and
    claims leadership past its takeover timeout; the *heartbeat* keeper
    (leaders only) fans ``hb`` calls out to the peers via spawned
    one-shot sender processes — the keeper itself never blocks on a
    partitioned peer, which is what keeps a split-brain leader alive
    and detectable instead of wedged.
    """

    def __init__(self, node: "Node", peers: tuple, takeover_after: int):
        self.node = node
        self.peers = peers
        self.takeover_after = takeover_after
        self.store: dict = {}
        self.term = 0
        self.leader = False
        self.seen_term = 0
        self.last_hb = node.clock.real_now()
        node.rpc.export_native(node.name, {
            "put": self.put, "get": self.get,
            "hb": self.hb, "repl": self.repl,
        })
        node.spawn(self._watch_body(), name=f"{node.name}.watch")

    # -- client-facing procs -------------------------------------------

    def put(self, ctx, key, value):
        """Store ``key`` and replicate asynchronously (leader only)."""
        if not self.leader:
            return NOT_LEADER
        self.store[key] = value
        for peer in self.peers:
            self.node.spawn(
                self._send_body(peer, "repl", [key, value, self.term]),
                name=f"{self.node.name}.repl.{peer}",
            )
        return value

    def get(self, ctx, key):
        """Read ``key`` from the local store (leader only)."""
        if not self.leader:
            return NOT_LEADER
        return self.store.get(key, 0)

    # -- replica-facing procs ------------------------------------------

    def hb(self, ctx, term, leader_id):
        """Accept a heartbeat; step down under a strictly newer term."""
        if term >= self.seen_term:
            self.seen_term = term
            self.last_hb = self.node.clock.real_now()
        if self.leader and term > self.term:
            self.leader = False
        return 1

    def repl(self, ctx, key, value, term):
        """Apply replicated state; replication doubles as a heartbeat."""
        if term >= self.seen_term:
            self.seen_term = term
            self.last_hb = self.node.clock.real_now()
            self.store[key] = value
        return 1

    # -- leadership ----------------------------------------------------

    def claim(self, term: int) -> None:
        """Become leader of ``term`` (observed on the bus) and start
        heartbeating."""
        self.term = term
        self.seen_term = term
        self.leader = True
        _observe(self.node, "leader", key=str(term))
        self.node.spawn(self._heartbeat_body(),
                        name=f"{self.node.name}.heartbeat")

    def _heartbeat_body(self):
        while self.leader and not self.node.crashed:
            for peer in self.peers:
                self.node.spawn(
                    self._send_body(peer, "hb",
                                    [self.term, self.node.node_id]),
                    name=f"{self.node.name}.hb.{peer}",
                )
            yield Sleep(HEARTBEAT_EVERY)

    def _send_body(self, peer: str, proc: str, args: list):
        """One best-effort ("maybe" protocol) call to a peer service."""
        def body():
            yield from remote_call(self.node.rpc, peer, proc, args,
                                   protocol="maybe")
        return body()

    def _watch_body(self):
        while True:
            yield Sleep(50 * MS)
            if self.leader:
                continue
            if (self.node.clock.real_now() - self.last_hb
                    > self.takeover_after):
                # Timed out blind: claim the next term.  Without a vote
                # round, a symmetrically isolated peer does the same —
                # the split brain single_leader exists to catch.
                self.claim(self.seen_term + 1)


def _client_op(node: "Node", pid: int, op: str, key: str, value: int):
    """One linearizability-observed client operation.

    Tries the replicas in fixed order until one answers as leader.  The
    ``return`` observation is only emitted on success — an op that never
    finds a leader stays *pending*, which the linearizability checker
    treats as unordered (it imposes no constraint), not as a violation.
    """
    _observe(node, "invoke", op=op, key=key, value=value, pid=pid)
    args = [key, value] if op == "put" else [key]
    for replica in KV_REPLICAS:
        result = yield from remote_call(node.rpc, replica, op, args,
                                        protocol="once")
        if isinstance(result, RpcFailure) or result == NOT_LEADER:
            continue
        _observe(node, "return", op=op, key=key,
                 value=value if op == "put" else result, pid=pid)
        return


def _client_body(node: "Node"):
    """Alternate put/get rounds against whichever replica leads."""
    me = yield Self()
    for round_no in range(1, CLIENT_ROUNDS + 1):
        yield Sleep(OP_GAP)
        yield from _client_op(node, me.pid, "put", "x", round_no)
        yield Sleep(OP_GAP)
        yield from _client_op(node, me.pid, "get", "x", 0)


def build_kv(cluster: "Cluster") -> dict:
    """Scenario builder: three replicas, an initial leader, one client."""
    replicas = {}
    for rank, name in enumerate(KV_REPLICAS):
        node = cluster.node(name)
        peers = tuple(peer for peer in KV_REPLICAS if peer != name)
        replicas[name] = KvReplica(
            node, peers,
            takeover_after=TAKEOVER_BASE + rank * TAKEOVER_STAGGER,
        )
    replicas["kv0"].claim(1)
    client = cluster.node("client")
    client.spawn(_client_body(client), name="client.workload")
    return {"replicas": replicas}


def leader_crash_plan() -> FaultPlan:
    """Crash the initial leader mid-workload.

    The stagger makes the handover clean: kv1 times out first, claims
    term 2, and its heartbeats reach kv2 before kv2's longer timeout
    fires — one leader per term throughout.
    """
    return FaultPlan().crash(at=500 * MS, node="kv0")


def leader_partition_plan() -> FaultPlan:
    """Isolate each replica from the others; split brain follows.

    The partition leaves the client with the old leader but cuts kv1
    and kv2 off from it *and from each other*, so both time out blind
    and claim term 2 — the ``single_leader`` violation.  The delay and
    duplication windows are deliberate noise: shrinking this plan
    against ``single_leader`` must strip them and keep exactly the
    partition action.
    """
    return (FaultPlan()
            .delay(at=100 * MS, duration=300 * MS, extra=2 * MS,
                   jitter=1 * MS)
            .duplicate(at=150 * MS, duration=300 * MS, probability=0.3)
            .partition(at=500 * MS, groups=((0, 1), (2,), (3,)),
                       duration=4 * SEC))
