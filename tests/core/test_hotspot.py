"""Unit and property tests for the hotspot footprint (Eq. 4, 5, 9)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HotspotFootprint


R1 = ("usertable", 1)
R2 = ("usertable", 2)
R3 = ("orders", (1, 5))


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        HotspotFootprint(capacity=0)
    with pytest.raises(ValueError):
        HotspotFootprint(alpha=1.5)


def test_access_counters_track_start_end_commit():
    footprint = HotspotFootprint()
    footprint.on_access_start([R1, R2])
    entry = footprint.entry(R1)
    assert entry.t_cnt == 1
    assert entry.a_cnt == 1
    footprint.on_access_end([R1, R2], committed=True)
    assert entry.a_cnt == 0
    assert entry.c_cnt == 1

    footprint.on_access_start([R1])
    footprint.on_access_end([R1], committed=False)
    assert footprint.entry(R1).t_cnt == 2
    assert footprint.entry(R1).c_cnt == 1


def test_access_end_for_unknown_record_is_noop():
    footprint = HotspotFootprint()
    footprint.on_access_end([("nope", 1)], committed=True)
    assert footprint.entry(("nope", 1)) is None


def test_latency_update_bootstraps_with_uniform_shares():
    footprint = HotspotFootprint(alpha=0.5)
    footprint.update_latency([R1, R2], 100.0)
    # Each record gets half of the observation, folded with alpha = 0.5.
    assert footprint.entry(R1).w_lat == pytest.approx(25.0)
    assert footprint.entry(R2).w_lat == pytest.approx(25.0)


def test_latency_update_weights_by_existing_w_lat():
    footprint = HotspotFootprint(alpha=0.0)  # no smoothing: w_lat = new observation share
    footprint.update_latency([R1], 100.0)    # R1.w_lat = 100
    footprint.update_latency([R2], 20.0)     # R2.w_lat = 20
    footprint.update_latency([R1, R2], 60.0)
    # R1 share = 100/120, R2 share = 20/120.
    assert footprint.entry(R1).w_lat == pytest.approx(50.0)
    assert footprint.entry(R2).w_lat == pytest.approx(10.0)


def test_forecast_sums_w_lat_of_known_records_only():
    footprint = HotspotFootprint(alpha=0.0)
    footprint.update_latency([R1], 40.0)
    footprint.update_latency([R2], 10.0)
    assert footprint.forecast_local_latency([R1, R2]) == pytest.approx(50.0)
    assert footprint.forecast_local_latency([R1, ("unknown", 9)]) == pytest.approx(40.0)
    assert footprint.forecast_local_latency([]) == 0.0


def test_success_probability_follows_eq9():
    footprint = HotspotFootprint()
    # Record with 50% historical commit ratio and 3 concurrent accessors.
    entry = footprint.get_or_create(R1)
    entry.t_cnt, entry.c_cnt, entry.a_cnt = 10, 5, 3
    # (c/t)^(a-1) = 0.5^2 = 0.25
    assert footprint.success_probability([R1]) == pytest.approx(0.25)
    assert footprint.abort_probability([R1]) == pytest.approx(0.75)


def test_success_probability_is_one_without_contention():
    footprint = HotspotFootprint()
    entry = footprint.get_or_create(R1)
    entry.t_cnt, entry.c_cnt, entry.a_cnt = 10, 5, 1  # exponent max(0, 0) = 0
    assert footprint.success_probability([R1]) == 1.0
    # Unknown records contribute nothing.
    assert footprint.success_probability([("other", 1)]) == 1.0


def test_lru_eviction_respects_capacity_and_prefers_idle_records():
    footprint = HotspotFootprint(capacity=2)
    footprint.on_access_start([R1])          # R1 in use
    footprint.get_or_create(R2)
    footprint.get_or_create(R3)              # forces eviction; R2 idle -> evicted
    assert len(footprint) == 2
    assert R1 in footprint
    assert R3 in footprint
    assert R2 not in footprint
    assert footprint.evictions == 1


def test_memory_bytes_and_hottest():
    footprint = HotspotFootprint()
    footprint.on_access_start([R1, R2])
    footprint.on_access_start([R1])
    assert footprint.memory_bytes() == 2 * 96
    hottest = footprint.hottest(1)
    assert hottest[0].record_id == R1


@given(observations=st.lists(
    st.tuples(st.booleans(), st.floats(min_value=0, max_value=1000)), min_size=1))
@settings(max_examples=60, deadline=None)
def test_property_w_lat_never_negative_and_bounded(observations):
    footprint = HotspotFootprint(alpha=0.7)
    max_seen = 0.0
    for use_both, latency in observations:
        records = [R1, R2] if use_both else [R1]
        footprint.update_latency(records, latency)
        max_seen = max(max_seen, latency)
    for record in (R1, R2):
        entry = footprint.entry(record)
        if entry is not None:
            assert entry.w_lat >= 0
            assert entry.w_lat <= max_seen + 1e-6


@given(counts=st.lists(st.tuples(
    st.integers(min_value=0, max_value=50),   # commits
    st.integers(min_value=0, max_value=50),   # aborts
    st.integers(min_value=0, max_value=10)),  # concurrent accessors
    min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_property_abort_probability_in_unit_interval(counts):
    footprint = HotspotFootprint()
    records = []
    for index, (commits, aborts, active) in enumerate(counts):
        record = ("t", index)
        records.append(record)
        entry = footprint.get_or_create(record)
        entry.c_cnt = commits
        entry.t_cnt = commits + aborts
        entry.a_cnt = active
    probability = footprint.abort_probability(records)
    assert 0.0 <= probability <= 1.0
