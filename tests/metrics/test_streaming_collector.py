"""Bounded-vs-unbounded collector equivalence and contract tests.

:class:`MetricsCollector` folds everything at record time; the reservoir
capacity is the only thing that differs between a closed and an open run.
This module feeds identical synthetic transaction streams into an unbounded
collector (``reservoir_size=None`` — keeps every sample, the exact reference)
and a bounded one and asserts every aggregate the runner and the
derived-metric consumers read is equal — then pins the failure modes
(combined filters, grid mismatches, untracked middlewares) so they raise
loudly instead of returning empty data, and the reservoir draw order.
"""

import random

import pytest

from repro.common import AbortReason, TransactionResult, TxnOutcome
from repro.metrics import (
    DEFAULT_RESERVOIR_SIZE,
    MetricsCollector,
)


def make_result(txn_id="mw-t1", committed=True, end=100.0, latency=50.0,
                distributed=False, reason=None, breakdown=None):
    return TransactionResult(
        txn_id=txn_id,
        outcome=TxnOutcome.COMMITTED if committed else TxnOutcome.ABORTED,
        start_time=end - latency, end_time=end, is_distributed=distributed,
        abort_reason=reason, phase_breakdown=breakdown or {})


def synthetic_stream(count=800, seed=4, middlewares=("geotp-0", "geotp-1")):
    """A deterministic mixed stream: commits/aborts, types, phases, warmup."""
    rng = random.Random(seed)
    reasons = [AbortReason.LOCK_TIMEOUT, AbortReason.ADMISSION_BLOCKED,
               AbortReason.PEER_ABORT]
    stream = []
    for i in range(count):
        committed = rng.random() < 0.7
        mw = middlewares[i % len(middlewares)]
        stream.append((make_result(
            txn_id=f"{mw}-t{i}",
            committed=committed,
            end=rng.uniform(0.0, 10_000.0),
            latency=rng.expovariate(1.0 / 120.0) + 1.0,
            distributed=rng.random() < 0.4,
            reason=None if committed else rng.choice(reasons),
            breakdown={"exec": rng.uniform(1, 5), "commit": rng.uniform(1, 5)}
            if committed else None,
        ), rng.choice(["read", "write", "scan"])))
    return stream


def build_pair(stream, warmup_ms=1_000.0, duration_ms=10_000.0,
               track_middlewares=True):
    retained, streaming = (
        MetricsCollector(warmup_ms=warmup_ms, duration_ms=duration_ms,
                         reservoir_size=reservoir_size, seed=11,
                         track_middlewares=track_middlewares)
        for reservoir_size in (None, DEFAULT_RESERVOIR_SIZE))
    for result, txn_type in stream:
        retained.record(result, txn_type)
        streaming.record(result, txn_type)
    return retained, streaming


# ----------------------------------------------------------------- equivalence
def test_counts_and_abort_accounting_match_retained():
    retained, streaming = build_pair(synthetic_stream())
    assert streaming.warmup_samples == retained.warmup_samples
    assert streaming.committed_count() == retained.committed_count()
    assert streaming.aborted_count() == retained.aborted_count()
    assert streaming.abort_rate() == pytest.approx(retained.abort_rate())
    assert streaming.abort_reasons() == retained.abort_reasons()
    assert streaming.throughput_tps(9_000.0) == retained.throughput_tps(9_000.0)
    for txn_type in ("read", "write", "scan", "never-seen"):
        assert streaming.committed_count(txn_type) == \
            retained.committed_count(txn_type)
        assert streaming.aborted_count(txn_type) == \
            retained.aborted_count(txn_type)
        assert streaming.abort_rate(txn_type) == \
            pytest.approx(retained.abort_rate(txn_type))


def test_latency_aggregates_match_retained_exactly_below_capacity():
    # 800 txns << 4096: the reservoirs hold every sample, so not just the
    # exact streaming aggregates but the percentiles must agree.
    retained, streaming = build_pair(synthetic_stream())
    for distributed in (None, True, False):
        exact = retained.latency_distribution(distributed=distributed)
        estimated = streaming.latency_distribution(distributed=distributed)
        assert len(estimated) == len(exact)
        assert estimated.mean == pytest.approx(exact.mean)
        if len(exact):
            assert estimated.p50 == exact.p50
            assert estimated.p99 == exact.p99
    assert streaming.average_latency_ms() == pytest.approx(
        retained.average_latency_ms())


def test_availability_timeline_matches_retained():
    retained, streaming = build_pair(synthetic_stream())
    ours = streaming.availability_report()
    theirs = retained.availability_report()
    assert ours.bucket_ms == theirs.bucket_ms
    assert ours.buckets == theirs.buckets


def test_attribution_and_per_middleware_timelines_match_retained():
    retained, streaming = build_pair(synthetic_stream())
    assert streaming.attribution() == retained.attribution()
    ours = streaming.per_middleware_availability()
    theirs = retained.per_middleware_availability()
    assert set(ours) == set(theirs)
    for name in ours:
        assert ours[name].buckets == theirs[name].buckets


def test_phase_breakdown_matches_retained():
    retained, streaming = build_pair(synthetic_stream())
    ours, theirs = streaming.phase_breakdown(), retained.phase_breakdown()
    assert ours.transaction_count == theirs.transaction_count
    assert ours.average() == pytest.approx(theirs.average())


def test_attribution_sums_to_collector_totals():
    _, streaming = build_pair(synthetic_stream())
    attribution = streaming.attribution()
    assert sum(c["committed"] for c in attribution.values()) == \
        streaming.committed_count()
    assert sum(c["aborted"] for c in attribution.values()) == \
        streaming.aborted_count()


# -------------------------------------------------------------- failure modes
def test_per_type_latency_matches_unbounded_below_capacity():
    retained, streaming = build_pair(synthetic_stream())
    for txn_type in ("read", "write", "scan", "never-seen"):
        exact = retained.latency_distribution(txn_type=txn_type)
        bounded = streaming.latency_distribution(txn_type=txn_type)
        assert len(bounded) == len(exact) == retained.committed_count(txn_type)
        assert bounded.samples == exact.samples
        assert bounded.summary_stats() == exact.summary_stats()
        assert streaming.average_latency_ms(txn_type=txn_type) == \
            retained.average_latency_ms(txn_type=txn_type)
    assert sum(len(retained.latency_distribution(txn_type=t))
               for t in ("read", "write", "scan")) == retained.committed_count()


def test_type_and_distribution_filters_cannot_be_combined():
    for collector in build_pair(synthetic_stream()):
        with pytest.raises(ValueError, match="txn_type"):
            collector.latency_distribution(txn_type="read", distributed=True)
        with pytest.raises(ValueError, match="txn_type"):
            collector.average_latency_ms(txn_type="read", distributed=False)


def test_no_duration_means_no_timeline():
    streaming = MetricsCollector(duration_ms=None)
    streaming.record(make_result())
    with pytest.raises(RuntimeError, match="without duration_ms"):
        streaming.availability_report()


def test_untracked_middlewares_raise():
    _, streaming = build_pair(synthetic_stream(), track_middlewares=False)
    with pytest.raises(RuntimeError, match="track_middlewares"):
        streaming.attribution()
    with pytest.raises(RuntimeError, match="track_middlewares"):
        streaming.per_middleware_availability()


# --------------------------------------------------------------------- memory
def test_reservoirs_stay_bounded_past_capacity():
    streaming = MetricsCollector(duration_ms=1_000.0, seed=1,
                                 reservoir_size=DEFAULT_RESERVOIR_SIZE)
    for i in range(DEFAULT_RESERVOIR_SIZE * 3):
        streaming.record(make_result(txn_id=f"mw-t{i}", end=500.0,
                                     latency=float(i % 300 + 1)))
    for distribution in (streaming.latency_distribution(),
                         streaming.latency_distribution(distributed=False),
                         streaming.latency_distribution(txn_type="generic")):
        assert len(distribution) == DEFAULT_RESERVOIR_SIZE * 3
        assert len(distribution.samples) == DEFAULT_RESERVOIR_SIZE
    # Nothing else accumulates per transaction.
    assert not hasattr(streaming, "samples")


# ------------------------------------------------------------------ time grid
def test_time_grid_counts_warmup_completions_the_collector_excludes():
    collector = MetricsCollector(warmup_ms=1_000.0, duration_ms=3_000.0)
    collector.record(make_result(txn_id="mw-t1", end=500.0))
    collector.record(make_result(txn_id="mw-t2", end=1_500.0))
    collector.record(make_result(txn_id="mw-t3", committed=False, end=1_600.0,
                                 reason=AbortReason.LOCK_TIMEOUT))
    assert collector.warmup_samples == 1
    assert collector.committed_count() == 1
    # The series covers the whole run; the report starts at the warm-up.
    assert collector.throughput_series() == [[0.0, 1.0], [1_000.0, 1.0]]
    assert collector.availability_report().buckets == [(1_000.0, 1, 1),
                                                       (2_000.0, 0, 0)]


# ------------------------------------------------------- reservoir stream pin
def test_reservoir_stream_is_pinned():
    # Captured from the bounded collector (reservoir_size=8, seed=11) before
    # it was merged into this one: guards the per-distribution seed salts and
    # the Algorithm R draw order (randrange(count), replace iff slot <
    # capacity) that keep every open-system percentile bit-identical.
    collector = MetricsCollector(reservoir_size=8, seed=11)
    for i in range(200):
        committed = i % 7 != 0
        latency = float((i * 7919) % 1009) + 1.0
        collector.record(make_result(
            txn_id=f"mw-t{i}", committed=committed, end=100.0 + i,
            latency=latency, distributed=i % 3 == 0,
            reason=None if committed else AbortReason.LOCK_TIMEOUT), "ycsb")
    pinned = {
        None: (171, (742.0, 200.0, 22.0, 365.0, 109.0, 477.0, 258.0, 349.0)),
        False: (114, (485.0, 196.0, 833.0, 386.0, 394.0, 423.0, 696.0, 787.0)),
        True: (57, (535.0, 812.0, 357.0, 895.0, 258.0, 76.0, 626.0, 270.0)),
    }
    for distributed, (count, samples) in pinned.items():
        distribution = collector.latency_distribution(distributed=distributed)
        assert len(distribution) == count
        assert distribution.samples == samples
