"""Unit tests for the open-system arrival processes."""

import math
import statistics

import pytest

from repro.workloads.arrivals import (
    ARRIVAL_PROCESSES,
    ArrivalConfig,
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
    make_arrivals,
)


def drain(arrivals, horizon_ms):
    """Arrival timestamps up to ``horizon_ms`` (replays the runner's loop)."""
    now, stamps = 0.0, []
    while True:
        now += arrivals.next_gap_ms(now)
        if now >= horizon_ms:
            return stamps
        stamps.append(now)


# ------------------------------------------------------------------ validation
@pytest.mark.parametrize("bad", [
    dict(process="weibull"),
    dict(rate_tps=0.0),
    dict(rate_tps=-5.0),
    dict(max_clients=0),
    dict(period_ms=0.0),
])
def test_validate_rejects_out_of_range_knobs(bad):
    with pytest.raises(ValueError):
        ArrivalConfig(**bad).validate()


# The shape constants are not validated at run time, so each is held to the
# range its model needs here: a burst at least the mean rate, a burst share
# inside (0, 1), a positive dwell, and a wave that never reaches zero.
@pytest.mark.parametrize("value, in_range", [
    (MMPPArrivals.BURST_FACTOR, lambda v: v >= 1.0),
    (MMPPArrivals.BURST_FRACTION, lambda v: 0.0 < v < 1.0),
    (MMPPArrivals.MEAN_BURST_MS, lambda v: v > 0.0),
    (DiurnalArrivals.AMPLITUDE, lambda v: 0.0 <= v < 1.0),
], ids=["burst_factor", "burst_fraction", "mean_burst_ms", "amplitude"])
def test_shape_constants_lie_in_their_models_range(value, in_range):
    assert in_range(value)


def test_make_arrivals_covers_every_registered_process():
    classes = {"poisson": PoissonArrivals, "mmpp": MMPPArrivals,
               "diurnal": DiurnalArrivals}
    assert set(ARRIVAL_PROCESSES) == set(classes)
    for name in ARRIVAL_PROCESSES:
        arrivals = make_arrivals(ArrivalConfig(process=name))
        assert isinstance(arrivals, classes[name])
        assert arrivals.mean_rate_tps() == pytest.approx(200.0)


def test_stamped_copies_instead_of_mutating():
    config = ArrivalConfig(seed=0)
    stamped = config.stamped(99)
    assert stamped.seed == 99
    assert config.seed == 0
    assert stamped is not config


# ----------------------------------------------------------------- determinism
@pytest.mark.parametrize("process", ARRIVAL_PROCESSES)
def test_same_seed_reproduces_the_stream(process):
    config = ArrivalConfig(process=process, rate_tps=300.0, seed=17,
                           period_ms=5_000.0)
    first = drain(make_arrivals(config), 10_000.0)
    second = drain(make_arrivals(config), 10_000.0)
    assert first == second
    other = drain(make_arrivals(config.stamped(18)), 10_000.0)
    assert first != other


@pytest.mark.parametrize("process", ARRIVAL_PROCESSES)
def test_gaps_are_strictly_positive(process):
    arrivals = make_arrivals(ArrivalConfig(process=process, rate_tps=500.0,
                                           seed=3, period_ms=2_000.0))
    now = 0.0
    for _ in range(2_000):
        gap = arrivals.next_gap_ms(now)
        assert gap > 0.0
        now += gap


# ------------------------------------------------------------------- mean rate
@pytest.mark.parametrize("process", ARRIVAL_PROCESSES)
def test_long_run_mean_rate_matches_config(process):
    # 10 minutes of simulated time at 200 tps -> ~120k arrivals; the MMPP
    # stream has the widest variance (state dwells correlate arrivals), so the
    # tolerance is loose but still catches a mis-derated quiet rate (ratio
    # error 0.57 for the naive construction at the burst factor of 8).
    config = ArrivalConfig(process=process, rate_tps=200.0, seed=11,
                           period_ms=30_000.0)
    horizon_ms = 600_000.0
    stamps = drain(make_arrivals(config), horizon_ms)
    empirical_tps = len(stamps) / (horizon_ms / 1000.0)
    assert empirical_tps == pytest.approx(200.0, rel=0.08)


def test_mmpp_is_burstier_than_poisson():
    # Index of dispersion of per-second counts: ~1 for Poisson, >> 1 for MMPP.
    def dispersion(process):
        config = ArrivalConfig(process=process, rate_tps=200.0, seed=7)
        stamps = drain(make_arrivals(config), 120_000.0)
        counts = [0] * 120
        for t in stamps:
            counts[int(t // 1000.0)] += 1
        return statistics.pvariance(counts) / statistics.fmean(counts)

    assert dispersion("poisson") < 2.0
    assert dispersion("mmpp") > 5.0


# --------------------------------------------------------------------- diurnal
def test_diurnal_rate_at_follows_the_wave():
    assert DiurnalArrivals.AMPLITUDE == 0.8
    config = ArrivalConfig(process="diurnal", rate_tps=100.0, period_ms=1_000.0)
    arrivals = make_arrivals(config)
    assert arrivals.rate_at(0.0) == pytest.approx(100.0)
    assert arrivals.rate_at(250.0) == pytest.approx(180.0)   # peak
    assert arrivals.rate_at(750.0) == pytest.approx(20.0)    # trough
    assert arrivals.rate_at(1_000.0) == pytest.approx(100.0)


def test_diurnal_arrivals_concentrate_at_the_peak():
    config = ArrivalConfig(process="diurnal", rate_tps=200.0,
                           period_ms=10_000.0, seed=5)
    stamps = drain(make_arrivals(config), 200_000.0)
    # Split each period into the rising half (around the peak at T/4) and the
    # falling half (around the trough at 3T/4).
    peak_half = sum(1 for t in stamps if (t % 10_000.0) < 5_000.0)
    trough_half = len(stamps) - peak_half
    # With amplitude 0.8 the halves integrate to 1 ± 2·0.8/π of the mean.
    expected_ratio = (1 + 2 * 0.8 / math.pi) / (1 - 2 * 0.8 / math.pi)
    assert peak_half / trough_half == pytest.approx(expected_ratio, rel=0.1)
