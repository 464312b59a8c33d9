"""Tests for the contrib ``geotp_static`` system variant (frozen adaptation)."""

from repro import protocol
from repro.bench.runner import ExperimentConfig, run_experiment
from repro.cluster import TopologyConfig, build_cluster, get_system_plugin
from repro.contrib.geotp_static import GeoTPStaticCoordinator
from repro.core.geotp import GeoTPCoordinator
from repro.core.latency_monitor import NetworkLatencyMonitor
from repro.middleware import ModuloPartitioner
from repro.workloads.ycsb import YCSBConfig


def _cluster(system="geotp_static", rtts=(5.0, 40.0)):
    topology = TopologyConfig.from_rtts(list(rtts))
    partitioner = ModuloPartitioner(topology.node_names())
    return build_cluster(system, topology, partitioner)


def test_plugin_builds_the_static_coordinator_with_agents():
    cluster = _cluster()
    assert isinstance(cluster.middleware, GeoTPStaticCoordinator)
    assert set(cluster.agents) == {"ds0", "ds1"}  # needs_agents capability
    plugin = get_system_plugin("geotp_static")
    assert plugin.needs_agents


def test_frozen_config_disables_forecasting_and_probing():
    middleware = _cluster().middleware
    assert middleware.geotp.enable_high_contention_optimization is False
    # Scheduling itself stays on (that is the point of the variant).
    assert middleware.geotp.enable_latency_aware_scheduling is True


def test_latency_estimates_never_move_from_the_primed_rtts():
    middleware = _cluster(rtts=(5.0, 40.0)).middleware
    before = middleware.latency_monitor.estimate("ds1")
    middleware.record_network_rtt("ds1", 500.0)
    middleware.record_network_rtt("ds1", 500.0)
    assert middleware.latency_monitor.estimate("ds1") == before

    # The adaptive coordinator, by contrast, moves with the observations.
    geotp = _cluster(system="geotp", rtts=(5.0, 40.0))
    assert isinstance(geotp.middleware, GeoTPCoordinator)
    assert not isinstance(geotp.middleware, GeoTPStaticCoordinator)
    moving = geotp.middleware.latency_monitor.estimate("ds1")
    geotp.middleware.record_network_rtt("ds1", 500.0)
    assert geotp.middleware.latency_monitor.estimate("ds1") != moving


def _pings_after_probing(system):
    cluster = _cluster(system=system)
    middleware = cluster.middleware
    middleware.start_probing()
    cluster.env.run(until=5 * NetworkLatencyMonitor.PROBE_INTERVAL_MS)
    return cluster.network.stats.messages_by_type.get(protocol.MSG_PING, 0)


def test_start_probing_is_a_no_op():
    # Five probe intervals pass without a single probe from the static variant,
    # while the adaptive coordinator pings every participant each interval.
    assert _pings_after_probing("geotp_static") == 0
    assert _pings_after_probing("geotp") >= 2 * 4


def test_static_variant_runs_an_experiment_outside_deployment_and_runner():
    """The acceptance check: the variant lives entirely in the plugin module."""
    config = ExperimentConfig(
        system="geotp_static", terminals=2, duration_ms=1_500.0, warmup_ms=300.0,
        topology=TopologyConfig.from_rtts([5.0, 30.0]),
        ycsb=YCSBConfig(records_per_node=500))
    result = run_experiment(config)
    assert result.system == "geotp_static"
    assert result.committed > 0


def test_registered_scenario_pairs_static_against_adaptive():
    from repro.bench.scenarios import get_scenario

    scenario = get_scenario("static_vs_adaptive")
    points = scenario.sweep(axes={"ratio": (0.2,), "repeat": (0,)}).points()
    assert [p.params["system"] for p in points] == ["geotp_static", "geotp"]
    for point in points:
        # fig11a-style randomized links, seeded from the repeat axis.
        assert point.config.topology is not None
        assert point.config.seed == point.params["repeat"]
