"""Figure 10 — sensitivity to the mean and standard deviation of network latency."""

from repro.bench import SweepRunner, get_scenario, print_table, sweep_table
from repro.bench.scenarios import BENCH_SCALE


def _improvement(scenario, axis, values):
    """GeoTP/SSP throughput ratio per axis value, at the figure's two decimals."""
    out = SweepRunner().run(get_scenario(scenario).sweep(
        axes={axis: values},
        duration_ms=BENCH_SCALE.duration_ms, terminals=BENCH_SCALE.terminals))
    print_table(f"Fig 10 — {scenario}", *sweep_table(out))
    return {value: round(out.get(system="geotp", **{axis: value}).throughput_tps
                         / out.get(system="ssp", **{axis: value}).throughput_tps, 2)
            for value in values}


def test_fig10_latency_mean_and_std():
    mean_sweep = _improvement("fig10_mean_sweep", "mean_rtt_ms", (20, 80))
    std_sweep = _improvement("fig10_std_sweep", "std_ms", (0, 40))
    # GeoTP improves on SSP (clearly so at the larger mean latency, where the
    # paper's improvement also peaks) and benefits from latency variance.
    assert all(improvement > 0.9 for improvement in mean_sweep.values())
    assert mean_sweep[80] > 1.0
    assert mean_sweep[80] >= mean_sweep[20] * 0.7
    assert all(improvement > 0.9 for improvement in std_sweep.values())
    assert std_sweep[max(std_sweep)] >= 1.0
