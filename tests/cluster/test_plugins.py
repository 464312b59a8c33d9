"""Unit tests for the system/workload plugin registries and canonicalization."""

from dataclasses import fields

import pytest

from repro.cluster import TopologyConfig, build_cluster
from repro.middleware import ModuloPartitioner
from repro.plugins import (
    PluginRegistry,
    SystemPlugin,
    WorkloadPlugin,
    canonical_key,
    get_system_plugin,
    get_workload_plugin,
    normalize_system,
    normalize_workload,
    system_names,
    system_plugins,
    workload_names,
)


def test_canonical_key_folds_case_hyphens_and_spaces():
    assert canonical_key(" ScalarDB-Plus ") == "scalardb_plus"
    assert canonical_key("TPC-C") == "tpc_c"
    assert canonical_key("ssp") == "ssp"


@pytest.mark.parametrize("spelling, expected", [
    ("geotp", "geotp"),
    ("GeoTP", "geotp"),
    ("ScalarDB+", "scalardb_plus"),
    ("ScalarDB-Plus", "scalardb_plus"),
    ("scalardbplus", "scalardb_plus"),
    ("YugabyteDB", "yugabyte"),
    ("ShardingSphere", "ssp"),
    ("SSP (local)", "ssp_local"),
    ("ssplocal", "ssp_local"),
    ("GeoTP(static)", "geotp_static"),
])
def test_normalize_system_resolves_every_alias(spelling, expected):
    assert normalize_system(spelling) == expected


def test_normalize_system_is_identical_at_every_entry_point():
    """The same canonicalizer runs in build_cluster and in scenario sweeps."""
    from repro.bench.scenarios import Axis

    topology = TopologyConfig.from_rtts([5])
    partitioner = ModuloPartitioner(topology.node_names())
    for spelling in ("ScalarDB+", "YugabyteDB", "GeoTP"):
        canonical = normalize_system(spelling)
        assert build_cluster(spelling, topology, partitioner).system == canonical
        assert Axis("system", (spelling,)).values == (canonical,)


def test_normalize_unknown_names_raise_with_known_list():
    with pytest.raises(ValueError, match="geotp"):
        normalize_system("oracle-rac")
    with pytest.raises(ValueError, match="ycsb"):
        normalize_workload("tpc-e")


def test_workload_aliases_resolve():
    assert normalize_workload("TPC-C") == "tpcc"
    assert normalize_workload("YCSB") == "ycsb"
    assert normalize_workload("small-bank") == "smallbank"
    assert get_workload_plugin("TPC-C").name == "tpcc"


def test_supported_systems_is_derived_from_the_registry():
    from repro.cluster.deployment import SUPPORTED_SYSTEMS

    assert SUPPORTED_SYSTEMS == tuple(system_names())
    assert {"ssp", "geotp", "yugabyte", "geotp_static"} <= set(SUPPORTED_SYSTEMS)
    assert {"ycsb", "tpcc", "smallbank"} <= set(workload_names())


def test_supported_systems_spellings_agree_and_stay_live():
    """All three public spellings are views of the same live registry."""
    import repro
    import repro.cluster
    from repro.cluster import deployment

    assert (repro.SUPPORTED_SYSTEMS == repro.cluster.SUPPORTED_SYSTEMS
            == deployment.SUPPORTED_SYSTEMS == tuple(system_names()))


def test_capability_flags_describe_the_builtin_systems():
    assert get_system_plugin("geotp").needs_agents
    assert get_system_plugin("yugabyte").colocated_with_ds0
    assert not get_system_plugin("ssp").needs_agents
    # Every capability is a deployment fact; Fig. 12's variants are the
    # scenario's own table, not a plugin capability.
    assert [f.name for f in fields(SystemPlugin)] == [
        "name", "coordinator", "description", "aliases", "needs_agents",
        "colocated_with_ds0"]


def test_plugins_round_trip_through_lookups():
    """Every registered plugin resolves to itself via name and every alias."""
    for plugin in system_plugins():
        assert get_system_plugin(plugin.name) is plugin
        for alias in plugin.aliases:
            assert normalize_system(alias) == plugin.name


def test_registry_rejects_non_canonical_names_and_alias_collisions():
    registry = PluginRegistry("demo")
    with pytest.raises(ValueError, match="not canonical"):
        registry.register(SystemPlugin(name="Bad-Name", coordinator=object))
    registry.register(SystemPlugin(name="one", coordinator=object,
                                   aliases=("uno",)))
    with pytest.raises(ValueError, match="collides"):
        registry.register(SystemPlugin(name="two", coordinator=object,
                                       aliases=("uno",)))
    with pytest.raises(ValueError, match="collides"):
        registry.register(SystemPlugin(name="three", coordinator=object,
                                       aliases=("one",)))
    # A name equal to an existing alias would register unreachably (normalize
    # consults aliases first), so it is rejected too.
    with pytest.raises(ValueError, match="alias of 'one'"):
        registry.register(SystemPlugin(name="uno", coordinator=object))
    # The colliding plugins were rejected atomically; re-registering the same
    # name replaces the plugin (last wins).
    assert registry.names() == ["one"]
    replacement = SystemPlugin(name="one", coordinator=object)
    registry.register(replacement)
    assert registry.get("one") is replacement


def test_workload_plugin_carries_config_construction():
    ycsb = get_workload_plugin("ycsb")
    assert ycsb.config_field == "ycsb"
    config = ycsb.config_factory()
    workload = ycsb.create(["ds0", "ds1"], config)
    assert workload.name == "ycsb"
    smallbank = get_workload_plugin("smallbank")
    assert smallbank.config_field is None  # rides ExperimentConfig.workload_config
