"""Tests for the cluster assembly layer and the service registry."""

import pytest

from repro import MS, Cluster, Params
from repro.rpc import ServiceRegistry, Signature


def test_registry_register_lookup_unregister():
    registry = ServiceRegistry()
    registry.register("svc", 3, {"op": Signature(["int"], "int")})
    assert registry.lookup("svc") == 3
    assert registry.signature("svc", "op").arg_types == ["int"]
    assert registry.signature("svc", "other") is None
    assert registry.services() == ["svc"]
    registry.unregister("svc")
    assert registry.lookup("svc") is None


def test_cluster_node_lookup_by_name_and_index():
    cluster = Cluster(names=["alpha", "beta"])
    assert cluster.node(0).name == "alpha"
    assert cluster.node("beta").node_id == 1
    with pytest.raises(KeyError):
        cluster.node("gamma")


def test_cluster_default_names():
    cluster = Cluster(n_nodes=3)
    assert [n.name for n in cluster.nodes] == ["node0", "node1", "node2"]


def test_every_node_has_dormant_agent_and_rpc():
    cluster = Cluster(names=["a", "b"])
    for node in cluster.nodes:
        assert node.agent is not None
        assert node.rpc is not None
        assert node.station is not None
        assert not node.agent.connected()


def test_agents_optional():
    cluster = Cluster(names=["a"], agents=False)
    assert cluster.node("a").agent is None


def test_load_program_registers_with_agent_and_debugger_map():
    cluster = Cluster(names=["a", "dbg"])
    image = cluster.load_program("proc main()\nend", "a")
    assert image.module == "a"
    assert "a" in cluster.programs
    assert cluster.node("a").agent.images["a"] is image


def test_spawn_vm_runs_named_function():
    cluster = Cluster(names=["a"])
    image = cluster.load_program(
        "proc go(n: int)\n  print n * 2\nend\nproc main()\nend", "a"
    )
    cluster.spawn_vm("a", image, "go", args=[21])
    cluster.run_for(10 * MS)
    assert image.console == ["42"]


def test_shared_params_threaded_to_all_layers():
    params = Params(basic_block_latency=1000)
    cluster = Cluster(names=["a", "b"], params=params)
    assert cluster.net.params.basic_block_latency == 1000
    assert cluster.node("a").params is params
    assert cluster.node("a").rpc.params is params


def test_cluster_clock_skews():
    cluster = Cluster(names=["a", "b"], clock_skews=[0, 1500])
    assert cluster.node("b").clock.real_now() - cluster.node("a").clock.real_now() == 1500


def test_strategies_tolerate_clock_skew():
    """A lease for an undebugged-but-connected client must not be
    perturbed by clock skew within the §6.1 tolerance."""
    from repro import Pilgrim
    from repro.servers.leases import LeaseTable
    from repro.servers.strategies import make_strategy

    params = Params()
    skew = params.clock_tolerance // 2
    cluster = Cluster(
        names=["client", "server", "debugger"],
        clock_skews=[skew, 0, 0],
    )
    image = cluster.load_program(
        "proc main()\n  while true do\n    sleep(5000)\n  end\nend", "client"
    )
    cluster.spawn_vm("client", image, "main")
    dbg = Pilgrim(cluster, home="debugger")
    dbg.connect("client")
    for strategy_name in ("fig3", "fig4"):
        strategy = make_strategy(strategy_name)
        table = LeaseTable(cluster.node("server"))
        lease = table.create(
            cluster.node("client").node_id, 100 * MS, strategy
        )
        cluster.run_for(800 * MS)
        # The skewed-but-undisturbed lease expires normally (no premature
        # drop, no infinite extension).
        assert not lease.alive, strategy_name
