"""Unit tests for network latency models."""

import pytest

from repro.sim import (
    ConstantLatency,
    DynamicLatency,
    RandomLatency,
    SeededRNG,
)


def test_constant_latency_rtt_and_one_way():
    model = ConstantLatency(100)
    assert model.rtt_at(0) == 100
    assert model.rtt_at(1e9) == 100
    assert model.sample_one_way(0) == 50


def test_constant_latency_rejects_negative():
    with pytest.raises(ValueError):
        ConstantLatency(-1)


def test_random_latency_samples_within_band():
    model = RandomLatency(100, max_factor=1.5, rng=SeededRNG(5))
    for _ in range(500):
        sample = model.sample_one_way(0)
        assert 50 <= sample <= 75


def test_random_latency_rejects_factor_below_one():
    with pytest.raises(ValueError):
        RandomLatency(100, max_factor=0.5)


def test_dynamic_latency_follows_schedule():
    model = DynamicLatency([(0, 50), (40_000, 150), (80_000, 20)])
    assert model.rtt_at(0) == 50
    assert model.rtt_at(39_999) == 50
    assert model.rtt_at(40_000) == 150
    assert model.rtt_at(79_999.9) == 150
    assert model.rtt_at(200_000) == 20


def test_dynamic_latency_before_first_entry_uses_first_value():
    model = DynamicLatency([(100, 30)])
    assert model.rtt_at(0) == 30


def test_dynamic_latency_equal_start_times_resolve_to_the_last_entry():
    # The bisect lookup must match the old linear scan: with duplicate start
    # times the later (sorted-last) entry wins from that time onward.
    model = DynamicLatency([(0, 50), (10, 70), (10, 90)])
    assert model.rtt_at(9.9) == 50
    assert model.rtt_at(10) == 90
    assert model.rtt_at(11) == 90


def test_dynamic_latency_fine_grained_schedule_lookup():
    # A fig11b_fine-style schedule: 320 one-second phases.  Every phase
    # boundary and interior point must resolve to its phase's RTT.
    schedule = [(phase * 1_000.0, float(10 + phase % 7)) for phase in range(320)]
    model = DynamicLatency(schedule)
    for phase in (0, 1, 5, 137, 318, 319):
        assert model.rtt_at(phase * 1_000.0) == 10 + phase % 7
        assert model.rtt_at(phase * 1_000.0 + 999.9) == 10 + phase % 7
    assert model.rtt_at(1e9) == 10 + 319 % 7


def test_dynamic_latency_empty_schedule_rejected():
    with pytest.raises(ValueError):
        DynamicLatency([])


def test_dynamic_latency_negative_rtt_rejected():
    with pytest.raises(ValueError):
        DynamicLatency([(0, -5)])


def test_describe_strings_are_informative():
    assert "constant" in ConstantLatency(10).describe()
    assert "random" in RandomLatency(10).describe()
    assert "dynamic" in DynamicLatency([(0, 10)]).describe()
