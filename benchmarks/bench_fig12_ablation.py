"""Figure 12 — ablation of the three GeoTP optimizations across skew factors."""

from repro.bench import SweepRunner, get_scenario, print_table, sweep_table
from repro.bench.scenarios import BENCH_SCALE


def test_fig12_ablation():
    out = SweepRunner().run(get_scenario("fig12_ablation").sweep(
        axes={"skew": (0.3, 0.9, 1.5)},
        duration_ms=BENCH_SCALE.duration_ms, terminals=BENCH_SCALE.terminals))
    print_table("Fig 12 — ablation (50% distributed)", *sweep_table(out))

    def tput(variant, skew):
        return round(out.get(variant=variant, skew=skew).throughput_tps, 1)

    # Every GeoTP variant beats SSP at low and medium contention; at the most
    # extreme skew all systems can collapse within a short window, so the
    # comparison there is non-strict.
    for skew in (0.3, 0.9):
        assert tput("geotp_o1", skew) > tput("ssp", skew)
        assert tput("geotp_o1_o2", skew) > tput("ssp", skew)
        assert tput("geotp_o1_o3", skew) > tput("ssp", skew)
    assert tput("geotp_o1_o3", 1.5) >= tput("ssp", 1.5)
    # The high-contention optimizations matter most at high skew: O1~O3 should
    # not lose to O1 alone there.
    assert tput("geotp_o1_o3", 1.5) >= tput("geotp_o1", 1.5) * 0.9
