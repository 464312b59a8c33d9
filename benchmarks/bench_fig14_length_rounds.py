"""Figure 14 — impact of transaction length and client interaction rounds."""

from repro.bench import SweepRunner, get_scenario, print_table, sweep_table
from repro.bench.scenarios import BENCH_SCALE


def _run(scenario, axes):
    """Run one Fig. 14 sweep; returns the lookup of its rounded throughputs."""
    out = SweepRunner().run(get_scenario(scenario).sweep(
        axes=axes,
        duration_ms=BENCH_SCALE.duration_ms, terminals=BENCH_SCALE.terminals))
    print_table(f"Fig 14 — {scenario}", *sweep_table(out))
    return lambda **params: round(out.get(**params).throughput_tps, 1)


def test_fig14_length_and_rounds():
    tput = _run("fig14_length", {"length": (5, 25)})
    # Throughput decreases with transaction length for both systems; GeoTP stays ahead.
    assert tput(system="geotp", length=25) <= tput(system="geotp", length=5)
    assert tput(system="ssp", length=25) <= tput(system="ssp", length=5)
    assert tput(system="geotp", length=5) > tput(system="ssp", length=5)

    tput = _run("fig14_rounds", {"rounds": (1, 6)})
    # With many interaction rounds GeoTP's advantage persists (Fig. 14c).
    assert tput(contention="medium", system="geotp", rounds=6) \
        > tput(contention="medium", system="ssp", rounds=6)
