"""E15 — halt transparency at scale: ring vs switched mesh.

The paper's §5.2 bound — "we could be confident of contacting only two
nodes in the time available for halting remote processes" — is a
property of the Cambridge Ring's serial sends, not of the debugging
methodology.  This experiment re-runs the E3 halt broadcast at 64 nodes
on both registered transports: the ring's staircase leaves the 63rd
peer running for ~220 ms, while the mesh's per-link transmitters halt
every peer one Basic Block after the broadcast starts — and still do
at 512 nodes, because the bound is per link, not per broadcast.

Both claims are exact in virtual time.  What the run costs in host time
is the ledger's business (``world_churn``: ``kernel.core_us_per_event``,
``sim.facade_us_per_event``, ``sim.window_for_us``).
"""

from repro import MS, US, Cluster, Pilgrim
from benchmarks.common import print_table

SPIN = "proc main()\n  while true do\n    sleep(1000)\n  end\nend"

N_NODES = 64
#: The mesh-only size: 8x the comparison above.
MESH_SCALE_NODES = 512

#: One Basic Block plus the 100 µs polling quantum of the probe.
ONE_BLOCK = 3_500 + 100

#: The paper's minimum RPC latency — the halt-transparency budget.
RPC_MIN = 8 * MS


def measure_halt_offsets(topology: str, n_nodes: int = N_NODES,
                         seed: int = 0) -> list[int]:
    """Offsets (µs) at which each peer halts, relative to the first."""
    names = [f"n{i}" for i in range(n_nodes)] + ["debugger"]
    cluster = Cluster(names=names, seed=seed, topology=topology)
    for i in range(n_nodes):
        image = cluster.load_program(SPIN, f"n{i}")
        cluster.spawn_vm(f"n{i}", image, "main")
    dbg = Pilgrim(cluster, home="debugger")
    dbg.connect(*[f"n{i}" for i in range(n_nodes)])
    world = cluster.world
    dbg.home.station.send(
        0,
        "agent",
        {
            "kind": "request",
            "session": dbg.session_id,
            "seq": 10_000,
            "op": "halt",
            "args": {},
            "reply_to": dbg.home.node_id,
        },
        kind="agent_request",
    )
    halt_times = {}
    deadline = world.now + 20 * MS + n_nodes * 4 * MS
    while len(halt_times) < n_nodes and world.now < deadline:
        world.run(until=world.now + 100 * US)
        for i in range(n_nodes):
            if i not in halt_times and cluster.node(f"n{i}").agent.halted:
                halt_times[i] = world.now
    t0 = halt_times[0]
    return sorted(t - t0 for i, t in halt_times.items() if i != 0)


def run_experiment() -> list[list]:
    rows = []
    for topology in ("ring", "mesh"):
        offsets = measure_halt_offsets(topology)
        within_rpc_min = sum(1 for off in offsets if off <= RPC_MIN)
        within_block = sum(1 for off in offsets if off <= ONE_BLOCK)
        rows.append([
            topology,
            len(offsets),
            f"{offsets[-1] / 1000:.1f}ms",
            within_rpc_min,
            within_block,
        ])
    return rows


def test_e15_scale(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table(
        f"E15: {N_NODES}-node halt broadcast, ring vs mesh "
        "(paper's 'only two nodes' bound is a ring property)",
        ["topology", "peers halted", "last peer halted at",
         "peers < 8ms", "peers < 3.5ms"],
        rows,
    )
    by_topology = {row[0]: row for row in rows}
    ring = by_topology["ring"]
    mesh = by_topology["mesh"]
    # Everyone halts eventually on both fabrics.
    assert ring[1] == N_NODES - 1 and mesh[1] == N_NODES - 1
    # Ring: the paper's bound holds unchanged at 64 nodes — two peers
    # inside the 8 ms RPC minimum, the last one ~63 serial blocks out.
    assert ring[3] == 2
    assert float(ring[2].rstrip("ms")) > 3.4 * (N_NODES - 1) - 1.0
    # Mesh: the bound dissolves — every peer halts within one Basic
    # Block of the first (and so well inside the RPC minimum).
    assert mesh[3] == N_NODES - 1
    assert mesh[4] == N_NODES - 1


def test_e15_mesh_bound_is_independent_of_n(benchmark):
    offsets = benchmark.pedantic(
        measure_halt_offsets, args=("mesh",),
        kwargs={"n_nodes": MESH_SCALE_NODES}, rounds=1, iterations=1,
    )
    within_block = sum(1 for off in offsets if off <= ONE_BLOCK)
    print_table(
        f"E15: {MESH_SCALE_NODES}-node mesh halt broadcast",
        ["peers halted", "last peer halted at", "peers < 3.6ms"],
        [[len(offsets), f"{offsets[-1] / 1000:.1f}ms", within_block]],
    )
    # Per-link transmitters keep the bound independent of n: every peer
    # halts within one Basic Block of the first.
    assert len(offsets) == MESH_SCALE_NODES - 1
    assert within_block == MESH_SCALE_NODES - 1
