"""Figure 6 — resource proxies and per-phase latency breakdown."""

from repro.bench import SweepRunner, get_scenario, print_table, sweep_table
from repro.bench.scenarios import BENCH_SCALE


def test_fig6_resources_and_breakdown():
    out = SweepRunner().run(get_scenario("fig6_breakdown").sweep(
        duration_ms=BENCH_SCALE.duration_ms, terminals=BENCH_SCALE.terminals))
    print_table("Fig 6 — resource proxies and phase breakdown", *sweep_table(
        out, extra={
            "work/commit": lambda s: s.resources.work_per_commit,
            "wan msgs/commit": lambda s: s.resources.wan_messages_per_commit,
            "metadata bytes": lambda s: s.resources.metadata_bytes,
            **{f"{phase} (ms)": lambda s, phase=phase: s.breakdown[phase]
               for phase in out[0].summary.breakdown}}))
    ssp, geotp = out.get(system="ssp"), out.get(system="geotp")
    # GeoTP does less WAN coordination per committed transaction (the paper's
    # "higher CPU efficiency") but keeps extra metadata (hotspot footprint).
    assert (geotp.resources.wan_messages_per_commit
            < ssp.resources.wan_messages_per_commit)
    assert geotp.resources.metadata_bytes > ssp.resources.metadata_bytes
    # GeoTP's average latency is well below SSP's (the paper reports -66.6%).
    assert geotp.average_latency_ms < ssp.average_latency_ms
    # The decentralized prepare keeps the prepare wait tiny compared to the
    # commit round trip (Figure 6c: 3.5 ms wait vs ~75 ms network phases).
    assert geotp.breakdown["prepare"] < geotp.breakdown["commit"]
