"""Integration tests: client terminals and the experiment runner."""

import pickle
from dataclasses import replace

import pytest

from repro import ExperimentConfig, GeoTPConfig, TPCCConfig, TopologyConfig, YCSBConfig, run_experiment
from repro import protocol
from repro.bench.runner import make_workload
from repro.bench.scenarios import FIG12_VARIANTS
from repro.cluster import RetryPolicy
from repro.cluster import TopologyConfig as ClusterTopology
from repro.cluster import build_cluster, start_terminals
from repro.metrics import MetricsCollector
from repro.recovery.invariants import all_passed
from repro.sim import DynamicLatency
from repro.workloads import YCSBWorkload


SMALL_YCSB = YCSBConfig(records_per_node=1000, skew=0.5, distributed_ratio=0.2)


def test_terminals_drive_transactions_closed_loop():
    topology = ClusterTopology.from_rtts([5, 30])
    workload = YCSBWorkload(topology.node_names(), SMALL_YCSB)
    cluster = build_cluster("ssp", topology, workload.make_partitioner())
    cluster.load_workload(workload)
    collector = MetricsCollector()
    terminals = start_terminals(cluster.env, cluster.middlewares, workload, collector,
                                terminal_count=4, duration_ms=3000,
                                retry=RetryPolicy())
    cluster.env.run(until=3000)
    assert len(terminals) == 4
    assert collector.committed_count() > 0
    assert all(t.transactions_run > 0 for t in terminals)


def test_start_terminals_validates_arguments():
    topology = ClusterTopology.from_rtts([5])
    workload = YCSBWorkload(topology.node_names(), SMALL_YCSB)
    cluster = build_cluster("ssp", topology, workload.make_partitioner())
    collector = MetricsCollector()
    with pytest.raises(ValueError):
        start_terminals(cluster.env, cluster.middlewares, workload, collector,
                        terminal_count=0, duration_ms=100, retry=RetryPolicy())
    with pytest.raises(ValueError):
        start_terminals(cluster.env, [], workload, collector,
                        terminal_count=1, duration_ms=100, retry=RetryPolicy())


def test_run_experiment_returns_consistent_metrics():
    config = ExperimentConfig(system="geotp", terminals=8, duration_ms=4000,
                              warmup_ms=500, ycsb=SMALL_YCSB)
    result = run_experiment(config)
    assert result.system == "geotp"
    assert result.committed > 0
    assert result.throughput_tps == pytest.approx(
        result.committed / ((4000 - 500) / 1000.0))
    assert 0 <= result.abort_rate <= 1
    assert result.average_latency_ms > 0
    assert "execution" in result.breakdown
    assert result.resources.committed >= result.committed


def test_run_experiment_returns_a_summary_with_live_handles():
    config = ExperimentConfig(system="geotp", terminals=4, duration_ms=2000,
                              warmup_ms=500, ycsb=SMALL_YCSB, seed=4)
    first = run_experiment(config)
    second = run_experiment(config, keep_cluster=True)
    assert first.invariants is not None and all_passed(first.invariants)
    assert first.collector.committed_count() == first.committed
    assert first.cluster is None and second.cluster is not None
    detached = second.summary()
    assert detached.collector is None and detached.cluster is None
    assert second.collector is not None  # detaching leaves the original alone
    # peak_rss_bytes is the process's high-water mark, which the first run
    # may have raised; every simulated field must match.
    assert first.summary() == replace(second, peak_rss_bytes=first.peak_rss_bytes)
    assert pickle.loads(pickle.dumps(detached)) == detached
    assert detached.to_dict(include_environment=True) \
        == second.to_dict(include_environment=True)
    second.cluster.close()


def _probe_pings(system, topology):
    """Probe pings sent during a run of a few probe intervals (1 s each)."""
    result = run_experiment(ExperimentConfig(
        system=system, terminals=2, duration_ms=3000, warmup_ms=500,
        ycsb=SMALL_YCSB, topology=topology), keep_cluster=True)
    pings = result.cluster.network.stats.messages_by_type.get(protocol.MSG_PING, 0)
    result.cluster.close()
    return pings


def test_probing_runs_exactly_when_a_link_follows_a_latency_schedule():
    def dynamic():
        return TopologyConfig.from_latency_models([
            DynamicLatency([(0.0, 20.0), (1000.0, 60.0)]),
            DynamicLatency([(0.0, 80.0), (2000.0, 30.0)])])

    # GeoTP probes every participant once per interval on a moving network...
    assert _probe_pings("geotp", dynamic()) >= 2 * 2
    # ...but not on constant links, where its passive samples suffice.
    assert _probe_pings("geotp", TopologyConfig.from_rtts([20.0, 80.0])) == 0
    # GeoTP(static) freezes its estimates and SSP has no latency monitor.
    assert _probe_pings("geotp_static", dynamic()) == 0
    assert _probe_pings("ssp", dynamic()) == 0


def test_zero_timeline_width_is_rejected_not_ignored():
    for width in (0.0, -1.0):
        with pytest.raises(ValueError, match="bucket_ms"):
            run_experiment(ExperimentConfig(
                system="ssp", terminals=2, duration_ms=1000, warmup_ms=100,
                ycsb=SMALL_YCSB, timeline_bucket_ms=width))


def test_make_workload_does_not_mutate_shared_workload_configs():
    """Regression: the runner used to stamp ``config.seed`` onto the shared
    YCSB/TPC-C config in place, so a config reused across experiments silently
    carried the last seed."""
    ycsb = YCSBConfig()
    workload = make_workload(ExperimentConfig(ycsb=ycsb, seed=7), ["ds0", "ds1"])
    assert workload.config.seed == 7
    assert ycsb.seed == 0
    assert workload.config is not ycsb

    tpcc = TPCCConfig()
    workload = make_workload(ExperimentConfig(workload="tpcc", tpcc=tpcc, seed=9),
                             ["ds0", "ds1"])
    assert workload.config.seed == 9
    assert tpcc.seed == 0


def test_shared_workload_config_keeps_per_experiment_seeds():
    """Two experiments sharing one YCSBConfig must generate from their own seeds."""
    shared = YCSBConfig(records_per_node=1000)
    first = make_workload(ExperimentConfig(ycsb=shared, seed=1), ["ds0", "ds1"])
    second = make_workload(ExperimentConfig(ycsb=shared, seed=2), ["ds0", "ds1"])
    specs_first = [first.next_transaction(0) for _ in range(5)]
    specs_second = [second.next_transaction(0) for _ in range(5)]
    assert first.config.seed == 1 and second.config.seed == 2

    def keys(specs):
        return [[op.key for op in spec.all_statements]
                for spec in specs]

    assert keys(specs_first) != keys(specs_second)


def test_run_experiment_rejects_bad_warmup_and_unknown_workload():
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(duration_ms=1000, warmup_ms=2000))
    with pytest.raises(ValueError):
        make_workload(ExperimentConfig(workload="nosuch"), ["ds0"])


def test_run_experiment_tpcc_reports_per_type_metrics():
    config = ExperimentConfig(
        system="ssp", workload="tpcc", terminals=8, duration_ms=4000, warmup_ms=500,
        tpcc=TPCCConfig(warehouses_per_node=2, customers_per_district=10,
                        item_count=50, mix={"payment": 1.0}))
    result = run_experiment(config)
    collector = result.collector
    assert result.committed > 0
    assert collector.throughput_tps(result.measured_duration_ms, "payment") \
        == pytest.approx(result.throughput_tps)
    assert collector.average_latency_ms(txn_type="payment") > 0
    assert collector.latency_distribution(txn_type="payment").samples \
        == result.latency_samples


def test_run_experiment_timeline_and_multi_middleware():
    config = ExperimentConfig(system="geotp", terminals=8, duration_ms=4000,
                              warmup_ms=500, ycsb=SMALL_YCSB,
                              topology=TopologyConfig.multi_middleware(
                                  ["beijing", "london"]),
                              timeline_bucket_ms=1000)
    result = run_experiment(config, keep_cluster=True)
    assert result.timeline["bucket_ms"] == 1000
    assert sum(tps for _, tps in result.timeline["series"]) >= result.committed
    assert len(result.cluster.middlewares) == 2


def test_middleware_count_builds_a_fleet_topology():
    config = ExperimentConfig(system="ssp", terminals=6, duration_ms=3000,
                              warmup_ms=500, ycsb=SMALL_YCSB,
                              middleware_count=3)
    result = run_experiment(config, keep_cluster=True)
    assert [m.name for m in result.cluster.middlewares] == ["dm1", "dm2", "dm3"]
    # One layout rule for every K: the fleet is co-located with the clients.
    assert {m.region for m in result.cluster.topology.middlewares} == {"beijing"}
    assert result.fleet is not None
    assert result.fleet["middlewares"] == ["dm1", "dm2", "dm3"]
    # Every coordinator served traffic under the default round-robin policy.
    assert all(counters["submitted"] > 0
               for counters in result.fleet["per_middleware"].values())


def test_middleware_count_must_match_an_explicit_topology():
    with pytest.raises(ValueError, match="middleware_count"):
        run_experiment(ExperimentConfig(
            system="ssp", duration_ms=3000, warmup_ms=500,
            topology=TopologyConfig.multi_middleware(["beijing", "london"]),
            middleware_count=3))
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(duration_ms=3000, warmup_ms=500,
                                        middleware_count=0))


def test_single_middleware_runs_report_no_fleet():
    config = ExperimentConfig(system="ssp", terminals=4, duration_ms=2000,
                              warmup_ms=500, ycsb=SMALL_YCSB)
    result = run_experiment(config)
    assert result.fleet is None
    assert "fleet" not in result.summary().to_dict()


def test_geotp_ablation_configs_run_via_runner():
    for variant, (system, switches) in FIG12_VARIANTS.items():
        config = ExperimentConfig(
            system=system, terminals=6, duration_ms=3000, warmup_ms=500,
            ycsb=SMALL_YCSB,
            geotp=None if switches is None else GeoTPConfig(**switches))
        result = run_experiment(config)
        assert result.committed > 0, variant
