"""Unit tests for topologies and cluster deployment."""

import pytest

from repro.cluster import TopologyConfig, build_cluster, region_rtt_ms
from repro.cluster.topology import DataNodeSpec, MiddlewareSpec
from repro.middleware import ModuloPartitioner
from repro.sim import RandomLatency


def test_region_rtt_lookup():
    assert region_rtt_ms("beijing", "beijing") == 0.0
    assert region_rtt_ms("beijing", "london") == 251.0
    assert region_rtt_ms("London", "Beijing") == 251.0
    with pytest.raises(KeyError):
        region_rtt_ms("beijing", "mars")


def test_paper_default_topology_matches_paper_rtts():
    topology = TopologyConfig.paper_default()
    assert topology.node_names() == ["ds0", "ds1", "ds2", "ds3"]
    dm = topology.middlewares[0]
    rtts = [topology.middleware_link_model(dm, node).rtt_at(0)
            for node in topology.data_nodes]
    assert rtts == [0.0, 27.0, 73.0, 251.0]


def test_from_rtts_topology_and_validation():
    topology = TopologyConfig.from_rtts([10, 50, 90])
    dm = topology.middlewares[0]
    assert [topology.middleware_link_model(dm, n).rtt_at(0)
            for n in topology.data_nodes] == [10, 50, 90]
    with pytest.raises(ValueError):
        TopologyConfig.from_rtts([])
    with pytest.raises(ValueError):
        TopologyConfig.paper_default(num_nodes=9)
    with pytest.raises(ValueError):
        TopologyConfig(data_nodes=[])
    with pytest.raises(ValueError):
        TopologyConfig(data_nodes=[DataNodeSpec(name="a"), DataNodeSpec(name="a")])


def test_from_latency_models_uses_given_models():
    model = RandomLatency(40)
    topology = TopologyConfig.from_latency_models([model, model])
    dm = topology.middlewares[0]
    assert topology.middleware_link_model(dm, topology.data_nodes[0]) is model


def test_inter_node_rtt_is_the_region_matrix_else_the_larger_dm_rtt():
    paper = TopologyConfig.paper_default()
    ds0, ds1, _, ds3 = paper.data_nodes
    assert paper.inter_node_rtt_ms(ds0, ds3) == 251.0  # beijing <-> london
    assert paper.inter_node_rtt_ms(ds1, ds1) == 0.0
    # Synthetic regions are not in the matrix: the larger of the two RTTs
    # from the first middleware (not their sum).
    synthetic = TopologyConfig.from_rtts([10, 80])
    node_a, node_b = synthetic.data_nodes
    assert synthetic.inter_node_rtt_ms(node_a, node_b) == 80.0
    assert synthetic.inter_node_rtt_ms(node_b, node_a) == 80.0


def test_multi_middleware_topology_places_second_dm_remotely():
    topology = TopologyConfig.multi_middleware(["beijing", "london"])
    assert len(topology.middlewares) == 2
    dm2 = topology.middlewares[1]
    # dm2 is co-located with the last (London) data node.
    assert topology.middleware_link_model(dm2, topology.data_nodes[-1]).rtt_at(0) == 0.0
    assert topology.middleware_link_model(dm2, topology.data_nodes[0]).rtt_at(0) == 251.0


def test_multi_middleware_scales_to_k_coordinators():
    for k in (1, 2, 3, 4):
        topology = TopologyConfig.multi_middleware(["beijing"] * k)
        assert [m.name for m in topology.middlewares] == [
            f"dm{i + 1}" for i in range(k)]
        assert {m.region for m in topology.middlewares} == {"beijing"}
        assert topology.node_names() == ["ds0", "ds1", "ds2", "ds3"]
    with pytest.raises(ValueError, match="at least one middleware"):
        TopologyConfig.multi_middleware([])


def test_duplicate_middleware_names_are_rejected():
    # Txn-id prefixes key recovery ownership and per-middleware attribution,
    # so two coordinators must never share a name.
    with pytest.raises(ValueError, match="middleware names"):
        TopologyConfig(data_nodes=[DataNodeSpec(name="ds0")],
                       middlewares=[MiddlewareSpec(name="dm1"),
                                    MiddlewareSpec(name="dm1")])


def test_cluster_middleware_named_lookup():
    topology = TopologyConfig.multi_middleware(["beijing", "london"])
    cluster = build_cluster("ssp", topology,
                            ModuloPartitioner(topology.node_names()))
    assert cluster.middleware_named("dm2").name == "dm2"
    with pytest.raises(KeyError, match="dm9"):
        cluster.middleware_named("dm9")


def test_node_link_overrides_apply_to_the_first_middleware_only():
    model = RandomLatency(40)
    topology = TopologyConfig(
        data_nodes=[DataNodeSpec(name="ds0", region="london", rtt_to_dm_ms=40.0),
                    DataNodeSpec(name="ds1", region="london", rtt_to_dm_ms=40.0,
                                 latency_model=model)],
        middlewares=[MiddlewareSpec(name="dm1"), MiddlewareSpec(name="dm2")])
    dm1, dm2 = topology.middlewares
    ds0, ds1 = topology.data_nodes
    # A node's latency model beats its explicit RTT, which beats the regions.
    assert topology.middleware_link_model(dm1, ds1) is model
    assert topology.middleware_link_model(dm1, ds0).rtt_at(0) == 40.0
    # Later middlewares always use the region matrix.
    assert topology.middleware_link_model(dm2, ds0).rtt_at(0) == 251.0
    assert topology.middleware_link_model(dm2, ds1).rtt_at(0) == 251.0


def test_build_cluster_for_every_supported_system():
    from repro.cluster import SUPPORTED_SYSTEMS, get_system_plugin
    for system in SUPPORTED_SYSTEMS:
        topology = TopologyConfig.from_rtts([5, 30])
        partitioner = ModuloPartitioner(topology.node_names())
        cluster = build_cluster(system, topology, partitioner)
        assert cluster.system == system
        assert set(cluster.datasources) == {"ds0", "ds1"}
        assert len(cluster.middlewares) == 1
        # Geo-agents are wired exactly when the plugin's capability asks for
        # them — the deployment must not special-case any system name.
        if get_system_plugin(system).needs_agents:
            assert set(cluster.agents) == {"ds0", "ds1"}
        else:
            assert cluster.agents == {}


def test_build_cluster_accepts_aliases_and_rejects_unknown():
    topology = TopologyConfig.from_rtts([5])
    partitioner = ModuloPartitioner(topology.node_names())
    cluster = build_cluster("ScalarDB+", topology, partitioner)
    assert cluster.system == "scalardb_plus"
    cluster = build_cluster("YugabyteDB", topology, partitioner)
    assert cluster.system == "yugabyte"
    with pytest.raises(ValueError):
        build_cluster("oracle-rac", topology, partitioner)


def test_build_cluster_heterogeneous_dialects():
    topology = TopologyConfig.paper_default(dialects=["mysql", "postgresql",
                                                      "mysql", "postgresql"])
    partitioner = ModuloPartitioner(topology.node_names())
    cluster = build_cluster("ssp", topology, partitioner)
    assert cluster.datasources["ds0"].dialect == "mysql"
    assert cluster.datasources["ds1"].dialect == "postgresql"


def test_an_unknown_engine_fails_at_build_cluster():
    topology = TopologyConfig.paper_default(dialects=["mysql", "oracle"])
    partitioner = ModuloPartitioner(topology.node_names())
    with pytest.raises(ValueError, match=r"'oracle'.*mysql, postgresql"):
        build_cluster("ssp", topology, partitioner)


def test_yugabyte_coordinator_is_colocated_with_first_node():
    topology = TopologyConfig.paper_default()
    partitioner = ModuloPartitioner(topology.node_names())
    cluster = build_cluster("yugabyte", topology, partitioner)
    assert cluster.network.rtt("dm", "ds0") == 0.0
    assert cluster.network.rtt("dm", "ds3") == region_rtt_ms("beijing", "london")
