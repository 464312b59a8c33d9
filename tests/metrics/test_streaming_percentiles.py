"""Property tests for :class:`LatencyDistribution`, unbounded and bounded.

The reference is a *value*, not a class: ``capacity=None`` keeps every sample
and is exact, and :func:`percentile` is the independent oracle.  Two regimes
are pinned separately:

* **Exact regime** (no capacity, or the stream fits the reservoir): hypothesis
  drives arbitrary streams; the constructor and ``add()`` must agree bit for
  bit, both with the oracle, and a bounded instance with an unbounded one.
* **Sampling regime** (stream exceeds the reservoir): Algorithm R's kept
  indices are data-independent, so hypothesis over *values* cannot probe the
  error; instead fixed-seed random streams check the **rank error** — the
  fraction of the full stream below the estimate versus the target quantile —
  stays within 1 % at the default capacity of 4096.
"""

import bisect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.percentiles import (
    DEFAULT_RESERVOIR_SIZE,
    LatencyDistribution,
    percentile,
)

latencies = st.floats(min_value=0.0, max_value=1e6,
                      allow_nan=False, allow_infinity=False)


FRACTIONS = (0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0)


def assert_identical(left, right):
    assert len(left) == len(right)
    assert left.samples == right.samples
    assert (left.mean, left.min, left.max) == (right.mean, right.min, right.max)
    assert left.summary_stats() == right.summary_stats()
    assert left.cdf() == right.cdf()
    if len(left):
        for fraction in FRACTIONS:
            assert left.p(fraction) == right.p(fraction)


# ---------------------------------------------------------------- exact regime
@given(st.lists(latencies, max_size=200))
@settings(max_examples=200)
def test_constructor_and_add_agree_bit_for_bit_and_with_the_oracle(values):
    built = LatencyDistribution(values)
    added = LatencyDistribution()
    for value in values:
        added.add(value)
    assert_identical(built, added)
    assert built.samples == tuple(values)
    for fraction in FRACTIONS if values else ():
        assert built.p(fraction) == percentile(values, fraction)
    if values:
        assert (built.min, built.max) == (min(values), max(values))


@given(st.lists(latencies, min_size=1, max_size=200))
@settings(max_examples=200)
def test_exact_equivalence_while_stream_fits_reservoir(values):
    streaming = LatencyDistribution(capacity=200, seed=0)
    retained = LatencyDistribution()
    for value in values:
        streaming.add(value)
        retained.add(value)
    assert_identical(streaming, retained)
    assert_identical(LatencyDistribution(values, capacity=200), retained)
    for fraction in FRACTIONS:
        assert streaming.p(fraction) == percentile(values, fraction)


@given(st.lists(latencies, min_size=1, max_size=64))
@settings(max_examples=100)
def test_exact_aggregates_regardless_of_reservoir_size(values):
    # count/mean/min/max are streaming aggregates, exact even at capacity 1.
    streaming = LatencyDistribution(capacity=1, seed=0)
    for value in values:
        streaming.add(value)
    assert len(streaming) == len(values)
    assert len(streaming.samples) == 1
    exact = LatencyDistribution(values)
    assert (streaming.mean, streaming.min, streaming.max) == \
        (exact.mean, min(values), max(values))
    for key in ("count", "mean", "min", "max"):
        assert streaming.summary_stats()[key] == exact.summary_stats()[key]


# ------------------------------------------------------------- sampling regime
def test_rank_error_within_one_percent_at_default_capacity():
    # The rank standard error at capacity k is sqrt(p(1-p)/k) — 0.78 % on the
    # median at 4096 — so the 1 % bound is asserted on the *mean* absolute
    # rank error across seeds, with a flat 2 % cap on any single seed.
    errors = {0.5: [], 0.9: [], 0.99: []}
    for seed in (1, 2, 3, 4, 5):
        stream_rng = random.Random(1_000 + seed)
        streaming = LatencyDistribution(
            capacity=DEFAULT_RESERVOIR_SIZE, seed=seed)
        full = []
        for _ in range(100_000):
            # Long-tailed, like latency.
            value = stream_rng.expovariate(1.0 / 250.0)
            streaming.add(value)
            full.append(value)
        full.sort()
        assert len(streaming.samples) == DEFAULT_RESERVOIR_SIZE
        for fraction in errors:
            estimate = streaming.p(fraction)
            rank = bisect.bisect_left(full, estimate) / len(full)
            error = abs(rank - fraction)
            assert error <= 0.02, (
                f"seed {seed} p{fraction}: estimate {estimate} at rank {rank}")
            errors[fraction].append(error)
    for fraction, observed in errors.items():
        assert sum(observed) / len(observed) <= 0.01, (
            f"p{fraction}: mean rank error {observed}")


def test_reservoir_stays_uniform_over_the_stream():
    # Feed an increasing ramp: a uniform reservoir's mean index must be near
    # the middle of the stream, not biased toward the head or tail.
    streaming = LatencyDistribution(capacity=512, seed=9)
    n = 50_000
    for i in range(n):
        streaming.add(float(i))
    mean_index = sum(streaming.samples) / len(streaming.samples)
    assert abs(mean_index - n / 2) < 0.1 * n


# -------------------------------------------------------------------- contract
def test_same_seed_same_reservoir():
    def build(seed):
        streaming = LatencyDistribution(capacity=64, seed=seed)
        for i in range(5_000):
            streaming.add(float(i % 997))
        return streaming.samples

    assert build(7) == build(7)
    assert build(7) != build(8)


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        LatencyDistribution(capacity=0)


def test_empty_distribution_contract():
    for streaming in (LatencyDistribution(capacity=16), LatencyDistribution()):
        assert len(streaming) == 0
        assert streaming.samples == ()
        assert (streaming.mean, streaming.min, streaming.max) == (0.0, 0.0, 0.0)
        assert streaming.summary_stats()["count"] == 0
        assert streaming.cdf() == []
        with pytest.raises(ValueError):
            streaming.p50


def test_fraction_out_of_range_rejected():
    streaming = LatencyDistribution(capacity=16)
    streaming.add(1.0)
    with pytest.raises(ValueError):
        streaming.p(1.5)
