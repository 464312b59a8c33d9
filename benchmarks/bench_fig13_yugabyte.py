"""Figure 13 — comparison with a YugabyteDB-like distributed database."""

from repro.bench import SweepRunner, get_scenario, print_table, sweep_table
from repro.bench.scenarios import BENCH_SCALE


def test_fig13_vs_yugabyte():
    out = SweepRunner().run(get_scenario("fig13_yugabyte").sweep(
        axes={"contention": ("low", "medium")},
        duration_ms=BENCH_SCALE.duration_ms, terminals=BENCH_SCALE.terminals))
    print_table("Fig 13 — vs YugabyteDB", *sweep_table(out))

    def tput(system, contention):
        return round(out.get(system=system, contention=contention).throughput_tps, 1)

    # GeoTP keeps up with (or beats) the distributed database once contention
    # appears, and beats SSP everywhere; the extreme-skew crossover the paper
    # highlights needs longer windows (see EXPERIMENTS.md).
    assert tput("geotp", "medium") >= tput("yugabyte", "medium") * 0.8
    assert tput("geotp", "low") > tput("ssp", "low")
    assert tput("geotp", "medium") > tput("ssp", "medium")
