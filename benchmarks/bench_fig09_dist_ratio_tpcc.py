"""Figure 9 — TPC-C Payment and NewOrder under varying distributed ratios."""

from repro.bench import SweepRunner, get_scenario, print_table, sweep_table
from repro.bench.scenarios import BENCH_SCALE


def test_fig9_tpcc_payment_neworder():
    out = SweepRunner().run(get_scenario("fig9_dist_ratio_tpcc").sweep(
        axes={"system": ("ssp", "geotp"), "ratio": (0.2, 1.0)},
        duration_ms=BENCH_SCALE.duration_ms, terminals=BENCH_SCALE.terminals))
    print_table("Fig 9 — TPC-C vs distributed ratio", *sweep_table(out))
    for txn_type in ("payment", "new_order"):
        for ratio in (0.2, 1.0):
            geotp = out.get(txn_type=txn_type, system="geotp", ratio=ratio)
            ssp = out.get(txn_type=txn_type, system="ssp", ratio=ratio)
            assert round(geotp.throughput_tps, 1) > round(ssp.throughput_tps, 1)
            assert round(geotp.average_latency_ms, 1) < round(ssp.average_latency_ms, 1)
