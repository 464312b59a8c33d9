"""Figure 15 — single- versus multi-middleware deployment."""

from repro.bench import SweepRunner, get_scenario, print_table, sweep_table
from repro.bench.scenarios import BENCH_SCALE


def test_fig15_multi_region():
    out = SweepRunner().run(get_scenario("fig15_multi_region").sweep(
        duration_ms=BENCH_SCALE.duration_ms, terminals=BENCH_SCALE.terminals))
    print_table("Fig 15 — clients in multiple regions", *sweep_table(out))

    def tput(system, deployment):
        return round(out.get(system=system, deployment=deployment).throughput_tps, 1)

    # GeoTP beats SSP in both deployments.  (The paper's multi-DM setup also
    # gains total throughput because its clients favour region-local data; the
    # YCSB generator here has no such affinity, so we only require that the
    # multi-DM deployment works and keeps GeoTP's advantage.)
    assert tput("geotp", "single") > tput("ssp", "single")
    assert tput("geotp", "multi") > tput("ssp", "multi")
    assert tput("geotp", "multi") > 0
