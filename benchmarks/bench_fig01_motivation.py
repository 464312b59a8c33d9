"""Figure 1b — impact of the DM-DS2 latency on centralized transactions."""

from repro.bench import SweepRunner, get_scenario, print_table, sweep_table
from repro.bench.scenarios import BENCH_SCALE


def _centralized_ms(summary):
    return summary.latency_for(distributed=False).mean


def test_fig1b_motivation():
    out = SweepRunner().run(get_scenario("fig1b").sweep(
        axes={"ds2_latency_ms": (20, 60, 100)},
        duration_ms=BENCH_SCALE.duration_ms, terminals=8))
    print_table("Fig 1b — centralized txn latency vs DM-DS2 latency (SSP)",
                *sweep_table(out, extra={
                    "avg centralized latency (ms)": _centralized_ms}))

    def centralized_ms(contention, ds2_latency_ms):
        return _centralized_ms(out.get(contention=contention,
                                       ds2_latency_ms=ds2_latency_ms))

    # Centralized transactions must be hurt more by the distant DS2 latency
    # under medium contention than under low contention (the paper's motivation).
    lc_growth = centralized_ms("low", 100) - centralized_ms("low", 20)
    mc_growth = centralized_ms("medium", 100) - centralized_ms("medium", 20)
    assert mc_growth > lc_growth
    assert centralized_ms("medium", 100) > centralized_ms("medium", 20)
