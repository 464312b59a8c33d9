"""Unit and property tests for the metrics package."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import AbortReason, TransactionResult, TxnOutcome
from repro.metrics import (
    LatencyDistribution,
    MetricsCollector,
    PhaseBreakdown,
    ResourceUsage,
    ThroughputTimeline,
    percentile,
)


def make_result(txn_id="t1", committed=True, start=0.0, end=100.0,
                distributed=False, reason=None, breakdown=None):
    return TransactionResult(
        txn_id=txn_id,
        outcome=TxnOutcome.COMMITTED if committed else TxnOutcome.ABORTED,
        start_time=start, end_time=end, is_distributed=distributed,
        abort_reason=reason, phase_breakdown=breakdown or {})


# ------------------------------------------------------------------ percentiles
def test_percentile_basic_and_bounds():
    values = [10, 20, 30, 40, 50]
    assert percentile(values, 0.0) == 10
    assert percentile(values, 1.0) == 50
    assert percentile(values, 0.5) == 30
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile(values, 1.5)


def test_latency_distribution_stats_and_cdf():
    dist = LatencyDistribution([100, 200, 300, 400])
    assert dist.mean == 250
    assert dist.p50 == pytest.approx(250)
    assert dist.p99 <= 400
    cdf = dist.cdf(points=4)
    assert cdf[-1] == (400, 1.0)
    assert len(cdf) == 4
    assert LatencyDistribution([]).mean == 0.0
    assert LatencyDistribution([]).cdf() == []


def test_percentile_interpolation_never_leaves_the_sample_range():
    """Regression: v*(1-w) + v*w can round one ulp below v for tiny w."""
    value = 2.2313463813688646e-173
    result = percentile([value] * 3, 1.192092896e-07)
    assert result == value


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200),
       st.floats(min_value=0, max_value=1))
@settings(max_examples=60, deadline=None)
def test_property_percentile_within_range_and_monotone(values, fraction):
    result = percentile(values, fraction)
    assert min(values) <= result <= max(values)
    assert percentile(values, 1.0) >= percentile(values, 0.0)


# -------------------------------------------------------------------- collector
def test_collector_counts_and_throughput():
    collector = MetricsCollector()
    collector.record(make_result("a", committed=True, end=1000))
    collector.record(make_result("b", committed=False, end=2000,
                                 reason=AbortReason.LOCK_TIMEOUT))
    collector.record(make_result("c", committed=True, end=3000, distributed=True))
    assert collector.committed_count() == 2
    assert collector.aborted_count() == 1
    assert collector.abort_rate() == pytest.approx(1 / 3)
    assert collector.throughput_tps(10_000) == pytest.approx(0.2)
    assert collector.abort_reasons() == {"lock_timeout": 1}


def test_collector_warmup_excludes_early_samples():
    collector = MetricsCollector(warmup_ms=1000)
    collector.record(make_result("early", end=500))
    collector.record(make_result("late", end=1500))
    assert collector.committed_count() == 1
    assert collector.warmup_samples == 1


def test_collector_filters_by_type_and_distribution():
    collector = MetricsCollector()
    collector.record(make_result("a", end=1000, distributed=True), txn_type="payment")
    collector.record(make_result("b", end=2000, distributed=False), txn_type="new_order")
    assert collector.committed_count("payment") == 1
    assert len(collector.latency_distribution(distributed=True)) == 1
    assert collector.average_latency_ms(txn_type="new_order") == 2000.0
    assert collector.throughput_tps(0) == 0.0


# --------------------------------------------------------------------- timeline
def test_timeline_buckets_and_series():
    timeline = ThroughputTimeline(bucket_ms=1000)
    for t in (100, 900, 1500, 2500, 2600, 2700):
        timeline.record(t)
    series = dict(timeline.series())
    assert series[0.0] == 2.0
    assert series[1000.0] == 1.0
    assert series[2000.0] == 3.0
    assert timeline.total() == 6
    with pytest.raises(ValueError):
        ThroughputTimeline(bucket_ms=0)
    assert ThroughputTimeline().series() == []


def test_timeline_series_extends_to_requested_end():
    timeline = ThroughputTimeline(bucket_ms=1000)
    timeline.record(500)
    series = timeline.series(until_ms=3500)
    assert len(series) == 4
    assert series[-1][1] == 0.0


# -------------------------------------------------------------------- breakdown
def test_phase_breakdown_averages():
    breakdown = PhaseBreakdown()
    breakdown.record({"execution": 100, "commit": 50})
    breakdown.record({"execution": 200, "commit": 150, "prepare": 10})
    breakdown.record(None)
    averages = breakdown.average()
    assert averages["execution"] == 150
    assert averages["commit"] == 100
    assert averages["prepare"] == 5
    assert breakdown.transaction_count == 2
    assert PhaseBreakdown().average() == {}


# -------------------------------------------------------------------- resources
def test_resource_usage_per_commit_ratios():
    usage = ResourceUsage(work_units=100, wan_messages=60, metadata_bytes=5000,
                          committed=20)
    assert usage.work_per_commit == 5.0
    assert usage.wan_messages_per_commit == 3.0
    empty = ResourceUsage()
    assert empty.work_per_commit == 0.0
    assert empty.wan_messages_per_commit == 0.0


# --------------------------------------------------------- cached sorted view
def test_latency_distribution_cache_invalidated_on_add():
    dist = LatencyDistribution([30, 10, 20])
    assert dist.p50 == 20
    assert dist.p(1.0) == 30
    dist.add(5)
    assert dist.p(0.0) == 5
    assert dist.p(1.0) == 30
    assert dist.mean == pytest.approx((30 + 10 + 20 + 5) / 4)


def test_latency_distribution_samples_is_a_cached_readonly_view():
    dist = LatencyDistribution([3, 1, 2])
    view = dist.samples
    assert isinstance(view, tuple)
    assert view == (3, 1, 2)               # insertion order, not sorted
    assert dist.samples is view            # cached, no per-access copy
    dist.add(9)
    assert dist.samples == (3, 1, 2, 9)    # invalidated by add


def test_latency_distribution_summary_stats_matches_accessors():
    dist = LatencyDistribution([5, 1, 4, 2, 3])
    stats = dist.summary_stats()
    assert stats["count"] == 5
    assert stats["mean"] == dist.mean
    assert stats["min"] == 1 and stats["max"] == 5
    assert stats["p50"] == dist.p50
    assert stats["p99"] == dist.p99
    assert stats["p999"] == dist.p999
    assert LatencyDistribution().summary_stats()["count"] == 0


def test_latency_distribution_mean_is_the_sequential_fold_on_every_interpreter():
    # builtin sum() is compensated on CPython >= 3.12; the constructor must
    # accumulate like add() does or the golden means move with the interpreter.
    rng = random.Random(20250923)
    values = [rng.uniform(0.05, 900.0) for _ in range(5_000)]
    built = LatencyDistribution(values)
    added = LatencyDistribution()
    fold = 0.0
    for value in values:
        added.add(value)
        fold += value
    assert built.mean == added.mean == fold / len(values)
    assert built.summary_stats()["mean"] == added.summary_stats()["mean"] == built.mean


def test_collector_incremental_counters_match_scans():
    collector = MetricsCollector(warmup_ms=0.0)
    collector.record(make_result(txn_id="a", committed=True))
    collector.record(make_result(txn_id="b", committed=False,
                                 reason=AbortReason.LOCK_TIMEOUT))
    collector.record(make_result(txn_id="c", committed=False,
                                 reason=AbortReason.LOCK_TIMEOUT))
    collector.record(make_result(txn_id="d", committed=False,
                                 reason=AbortReason.PEER_ABORT))
    assert collector.committed_count() == 1
    assert collector.aborted_count() == 3
    assert collector.abort_rate() == 0.75
    assert collector.abort_reasons() == {"lock_timeout": 2, "peer_abort": 1}
    # Filtered queries still scan and agree with the running counters.
    assert collector.committed_count(txn_type="generic") == 1
    assert collector.aborted_count(txn_type="generic") == 3
