"""Unit tests for the geo-scheduler, forecaster, admission control and latency monitor."""

import pytest

from repro.core import (
    GeoScheduler,
    HotspotFootprint,
    LateTransactionScheduler,
    LocalExecutionForecaster,
    NetworkLatencyMonitor,
)
from repro.sim import Environment, SeededRNG


def make_monitor(env=None, estimates=None):
    monitor = NetworkLatencyMonitor(env or Environment(), alpha=0.8)
    for name, rtt in (estimates or {}).items():
        monitor.prime(name, rtt)
    return monitor


# --------------------------------------------------------------------- monitor
def test_latency_monitor_prime_and_estimate():
    monitor = make_monitor(estimates={"ds1": 10, "ds2": 100})
    assert monitor.estimate("ds1") == 10
    assert monitor.estimate("ds2") == 100
    assert monitor.estimate("unknown") == 0.0


def test_latency_monitor_ewma_smoothing():
    monitor = NetworkLatencyMonitor(Environment(), alpha=0.8)
    monitor.record("ds", 100.0)
    assert monitor.estimate("ds") == 100.0
    monitor.record("ds", 200.0)
    # 0.8 * 100 + 0.2 * 200 = 120
    assert monitor.estimate("ds") == pytest.approx(120.0)
    assert monitor.sample_count("ds") == 2


def test_latency_monitor_tracks_changes_over_time():
    monitor = NetworkLatencyMonitor(Environment(), alpha=0.5)
    for _ in range(20):
        monitor.record("ds", 50.0)
    assert monitor.estimate("ds") == pytest.approx(50.0)
    for _ in range(20):
        monitor.record("ds", 150.0)
    assert monitor.estimate("ds") == pytest.approx(150.0, rel=0.01)


def test_latency_monitor_ignores_negative_samples_and_rejects_bad_alpha():
    monitor = NetworkLatencyMonitor(Environment(), alpha=0.5)
    monitor.record("ds", -5)
    assert monitor.sample_count("ds") == 0
    with pytest.raises(ValueError):
        NetworkLatencyMonitor(Environment(), alpha=2.0)


# ------------------------------------------------------------------- scheduler
def test_scheduler_eq3_postpones_fast_links():
    """Figure 4c: tau = {10, 100} ms -> the fast subtransaction waits 90 ms."""
    monitor = make_monitor(estimates={"ds1": 10, "ds2": 100})
    scheduler = GeoScheduler(monitor)
    decision = scheduler.schedule({"ds1": [("t", 1)], "ds2": [("t", 2)]})
    assert decision.delays["ds1"] == pytest.approx(90.0)
    assert decision.delays["ds2"] == pytest.approx(0.0)
    assert decision.max_total_latency == pytest.approx(100.0)


def test_scheduler_never_returns_negative_delays():
    monitor = make_monitor(estimates={"a": 50, "b": 50, "c": 5})
    scheduler = GeoScheduler(monitor)
    decision = scheduler.schedule({"a": [], "b": [], "c": []})
    assert all(delay >= 0 for delay in decision.delays.values())
    assert decision.delays["a"] == 0.0
    assert decision.delays["c"] == pytest.approx(45.0)


def test_scheduler_with_forecast_uses_eq8():
    """Eq. 8: delays account for predicted local execution latency."""
    monitor = make_monitor(estimates={"fast": 10, "slow": 100})
    footprint = HotspotFootprint(alpha=0.0)
    # The fast node hosts a hotspot with 50 ms of expected local latency.
    footprint.update_latency([("t", "hot")], 50.0)
    forecaster = LocalExecutionForecaster(footprint, scale=1.0)
    scheduler = GeoScheduler(monitor, forecaster, use_forecast=True)
    decision = scheduler.schedule({
        "fast": [("t", "hot")],
        "slow": [("t", "cold")],
    })
    # Critical path = max(10 + 50, 100 + 0) = 100; fast delay = 100 - 60 = 40.
    assert decision.forecasts["fast"] == pytest.approx(50.0)
    assert decision.delays["fast"] == pytest.approx(40.0)
    assert decision.delays["slow"] == pytest.approx(0.0)


def test_scheduler_empty_round_yields_empty_decision():
    scheduler = GeoScheduler(make_monitor())
    decision = scheduler.schedule({})
    assert decision.delays == {}
    assert decision.max_total_latency == 0.0


# ------------------------------------------------------------------ forecaster
def test_forecaster_applies_scale_factor():
    footprint = HotspotFootprint(alpha=0.0)
    footprint.update_latency([("t", 1)], 100.0)
    forecaster = LocalExecutionForecaster(footprint, scale=0.5)
    assert forecaster.forecast([("t", 1)]) == pytest.approx(50.0)
    with pytest.raises(ValueError):
        LocalExecutionForecaster(footprint, scale=-1)


def test_forecaster_observe_updates_footprint_and_counters():
    """The forecaster observes what the coordinator feeds the footprint."""
    footprint = HotspotFootprint(alpha=0.0)
    forecaster = LocalExecutionForecaster(footprint)
    footprint.on_access_start([("t", 1)])
    footprint.update_latency([("t", 1)], 30.0)
    footprint.on_access_end([("t", 1)], committed=True)
    assert forecaster.forecast([("t", 1)]) == pytest.approx(30.0)
    assert footprint.entry(("t", 1)).c_cnt == 1


# ------------------------------------------------------------------- admission
def test_admission_accepts_when_no_contention():
    env = Environment()
    footprint = HotspotFootprint()
    admission = LateTransactionScheduler(footprint, SeededRNG(1))
    decisions = []

    def proc():
        decision = yield from admission.admit(env, [("t", 1)])
        decisions.append(decision)

    env.process(proc())
    env.run()
    assert decisions[0].admitted
    assert decisions[0].retries_used == 0
    assert admission.admitted_count == 1


def test_admission_rejects_hopeless_transactions_after_max_retries():
    env = Environment()
    footprint = HotspotFootprint()
    entry = footprint.get_or_create(("t", "hot"))
    entry.t_cnt, entry.c_cnt, entry.a_cnt = 100, 0, 5  # success probability 0
    admission = LateTransactionScheduler(footprint, SeededRNG(1),
                                         max_retries=3, backoff_ms=10)
    decisions = []

    def proc():
        decision = yield from admission.admit(env, [("t", "hot")])
        decisions.append((decision, env.now))

    env.process(proc())
    env.run()
    decision, finished_at = decisions[0]
    assert not decision.admitted
    assert decision.retries_used == 3
    assert finished_at == pytest.approx(30.0)  # three backoffs of 10 ms
    assert admission.rejected_count == 1


def test_admission_evaluate_single_draw():
    footprint = HotspotFootprint()
    entry = footprint.get_or_create(("t", "hot"))
    entry.t_cnt, entry.c_cnt, entry.a_cnt = 10, 0, 4
    admission = LateTransactionScheduler(footprint, SeededRNG(2))
    decision = admission.evaluate([("t", "hot")])
    assert not decision.admitted
    assert decision.success_probability == 0.0


def test_admission_parameter_validation():
    footprint = HotspotFootprint()
    with pytest.raises(ValueError):
        LateTransactionScheduler(footprint, SeededRNG(0), max_retries=-1)
    with pytest.raises(ValueError):
        LateTransactionScheduler(footprint, SeededRNG(0), backoff_ms=-1)
