"""Unit tests for the system/workload plugin registries and canonicalization."""

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
    assert get_system_plugin("geotp").supports_active_probing
    assert get_system_plugin("yugabyte").colocated_with_ds0
    assert not get_system_plugin("ssp").needs_agents
    ssp = get_system_plugin("ssp")
    assert ssp.ablation_reference and not ssp.ablations
    assert set(get_system_plugin("geotp").ablations) == {"o1", "o1_o2", "o1_o3"}


def test_plugins_round_trip_through_lookups():
    """Every registered plugin resolves to itself via name and every alias."""
    for plugin in system_plugins():
        assert get_system_plugin(plugin.name) is plugin
        for alias in plugin.aliases:
            assert normalize_system(alias) == plugin.name


def test_registry_rejects_non_canonical_names_and_alias_collisions():
    registry = PluginRegistry("demo")
    with pytest.raises(ValueError, match="not canonical"):
        registry.register(SystemPlugin(name="Bad-Name", builder=lambda ctx: None))
    registry.register(SystemPlugin(name="one", builder=lambda ctx: None,
                                   aliases=("uno",)))
    with pytest.raises(ValueError, match="collides"):
        registry.register(SystemPlugin(name="two", builder=lambda ctx: None,
                                       aliases=("uno",)))
    with pytest.raises(ValueError, match="collides"):
        registry.register(SystemPlugin(name="three", builder=lambda ctx: None,
                                       aliases=("one",)))
    # A name equal to an existing alias would register unreachably (normalize
    # consults aliases first), so it is rejected too.
    with pytest.raises(ValueError, match="alias of 'one'"):
        registry.register(SystemPlugin(name="uno", builder=lambda ctx: None))
    # The colliding plugins were rejected atomically; re-registering the same
    # name replaces the plugin (last wins).
    assert registry.names() == ["one"]
    replacement = SystemPlugin(name="one", builder=lambda ctx: None)
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


def test_entry_points_are_scanned_on_a_miss_or_an_enumeration_never_on_a_hit(monkeypatch):
    """The scan walks every installed distribution, so a hit must not pay it."""
    from repro import plugins

    scans = []
    monkeypatch.setattr(plugins, "_entry_points_scanned", False)
    monkeypatch.setattr(plugins, "_load_entry_point_plugins",
                        lambda: scans.append("scan"))
    assert get_system_plugin("GeoTP").name == "geotp"
    assert normalize_workload("TPC-C") == "tpcc"
    assert scans == []                       # hits: builtins answered
    with pytest.raises(ValueError, match="geotp"):
        normalize_system("oracle-rac")
    assert scans == ["scan"]                 # a miss asks the entry points first
    assert "ssp" in system_names() and "ycsb" in workload_names()
    assert scans == ["scan"]                 # and only once

    monkeypatch.setattr(plugins, "_entry_points_scanned", False)
    assert system_names()                    # an enumeration scans too
    assert scans == ["scan", "scan"]


def test_a_broken_entry_point_plugin_raises_on_every_lookup_that_needs_it(monkeypatch):
    from repro import plugins

    def broken():
        raise ImportError("plugin module is broken")

    monkeypatch.setattr(plugins, "_entry_points_scanned", False)
    monkeypatch.setattr(plugins, "_load_entry_point_plugins", broken)
    assert get_system_plugin("ssp").name == "ssp"       # hits still work
    for _ in range(2):                                  # not swallowed, not cached
        with pytest.raises(ImportError):
            system_names()


def test_importing_the_bench_layer_does_not_scan_entry_points():
    import subprocess
    import sys

    from tests.conftest import subprocess_env

    code = ("import sys, repro.bench, repro.plugins as p; "
            "from repro import build_cluster; "
            "assert p.get_system_plugin('geotp').needs_agents; "
            "assert not p._entry_points_scanned; "
            "assert 'importlib.metadata' not in sys.modules; "
            "assert 'geotp' in p.system_names() and p._entry_points_scanned")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=subprocess_env())
