"""Table I — heterogeneous MySQL / PostgreSQL deployments."""

from repro.bench import SweepRunner, get_scenario, print_table, sweep_table
from repro.bench.scenarios import BENCH_SCALE


def test_table1_heterogeneous_deployments():
    out = SweepRunner().run(get_scenario("table1_heterogeneous").sweep(
        axes={"ratio": (0.25, 0.75)},
        duration_ms=BENCH_SCALE.duration_ms, terminals=BENCH_SCALE.terminals))
    print_table("Table I — heterogeneous deployments", *sweep_table(out))
    for deployment in ("S1", "S2", "S3"):
        for ratio in (0.25, 0.75):
            geotp = out.get(deployment=deployment, system="geotp", ratio=ratio)
            ssp = out.get(deployment=deployment, system="ssp", ratio=ratio)
            # GeoTP wins on throughput and latency in every deployment, as in Table I.
            assert round(geotp.throughput_tps, 1) > round(ssp.throughput_tps, 1)
            assert round(geotp.average_latency_ms, 1) < round(ssp.average_latency_ms, 1)
