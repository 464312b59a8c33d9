"""Figure 5 — overall throughput comparison on YCSB and TPC-C."""

from repro.bench import SweepRunner, get_scenario, print_table, sweep_table
from repro.bench.scenarios import BENCH_SCALE, OVERALL_SYSTEMS


def _final_throughput(workload, systems=OVERALL_SYSTEMS):
    out = SweepRunner().run(get_scenario("fig5_overall").sweep(
        axes={"system": systems, "terminals": (16, 64)},
        workload=workload, duration_ms=BENCH_SCALE.duration_ms))
    print_table(f"Fig 5 — throughput vs terminals ({workload})", *sweep_table(out))
    return {system: round(out.get(system=system, terminals=64).throughput_tps, 1)
            for system in systems}


def test_fig5a_overall_ycsb():
    tput = _final_throughput("ycsb")
    # GeoTP dominates SSP and ScalarDB; ScalarDB+ clearly improves on ScalarDB.
    assert tput["geotp"] > tput["ssp"]
    assert tput["geotp"] > tput["scalardb"]
    assert tput["scalardb_plus"] > tput["scalardb"]


def test_fig5b_overall_tpcc():
    tput = _final_throughput(
        "tpcc", systems=("ssp", "scalardb", "scalardb_plus", "geotp"))
    assert tput["geotp"] > tput["ssp"]
    assert tput["scalardb_plus"] > tput["scalardb"]
