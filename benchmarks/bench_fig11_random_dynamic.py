"""Figure 11 — random per-message latency and online adaptivity to latency changes."""

from repro.bench import SweepRunner, get_scenario, print_table, sweep_table
from repro.bench.scenarios import BENCH_SCALE


def test_fig11a_random_latency():
    out = SweepRunner().run(get_scenario("fig11a_random_latency").sweep(
        axes={"ratio": (0.2, 1.0), "repeat": (0, 1)},
        duration_ms=BENCH_SCALE.duration_ms, terminals=BENCH_SCALE.terminals))
    print_table("Fig 11a — random latency", *sweep_table(out))

    def mean_tput(system, ratio):
        samples = [point.summary.throughput_tps
                   for point in out.select(system=system, ratio=ratio)]
        return round(sum(samples) / len(samples), 1)

    for ratio in (0.2, 1.0):
        assert mean_tput("geotp", ratio) > mean_tput("ssp", ratio)


def test_fig11b_dynamic_latency():
    out = SweepRunner().run(get_scenario("fig11b_dynamic_latency").sweep(
        fixed={"phase_ms": 5_000.0, "phases": 3}, terminals=BENCH_SCALE.terminals))
    print_table("Fig 11b — dynamic latency", *sweep_table(out))
    geotp = out.get(system="geotp")
    assert geotp.throughput_tps > out.get(system="ssp").throughput_tps
    assert len(geotp.timeline["series"]) > 0
