"""Design-choice ablations beyond the paper's figures (EWMA alpha, footprint size, retries)."""

from repro.bench import SweepRunner, get_scenario, print_table, sweep_table
from repro.bench.scenarios import BENCH_SCALE


def test_extra_design_ablations():
    for name in ("extra_ewma_alpha", "extra_hotspot_capacity",
                 "extra_admission_retries"):
        out = SweepRunner().run(get_scenario(name).sweep(
            duration_ms=BENCH_SCALE.duration_ms, terminals=BENCH_SCALE.terminals))
        print_table(f"Design ablation — {name}", *sweep_table(out))
        # Every configuration must still produce useful throughput — these knobs
        # trade accuracy for overhead, they must not break the system.
        for point in out:
            assert round(point.summary.throughput_tps, 1) > 0, \
                f"{name} {point.params} produced zero throughput"
