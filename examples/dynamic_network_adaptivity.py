"""Online adaptivity: GeoTP reacting to changing WAN latencies (Figure 11b).

Link latencies between the middleware and the data sources are re-drawn every
ten simulated seconds.  GeoTP's EWMA latency monitor (fed passively by commit
acknowledgements and actively by probe pings) keeps its scheduling decisions in
step with the network, while the XA baseline has no notion of latency at all.
The script prints the per-interval throughput time series for both systems.

Usage::

    python examples/dynamic_network_adaptivity.py
"""

from repro import ExperimentConfig, TopologyConfig, YCSBConfig, run_experiment
from repro.bench.report import print_table
from repro.sim import DynamicLatency, SeededRNG


def build_dynamic_topology(phase_ms: float, phases: int) -> TopologyConfig:
    """Four links whose RTTs are re-drawn uniformly from [10, 200] ms per phase."""
    rng = SeededRNG(2024)
    models = []
    for _node in range(4):
        schedule = [(index * phase_ms, rng.uniform(10.0, 200.0))
                    for index in range(phases)]
        models.append(DynamicLatency(schedule))
    return TopologyConfig.from_latency_models(models)


def main() -> None:
    phase_ms = 10_000.0
    phases = 4
    duration_ms = phase_ms * phases
    timelines = {}
    totals = {}
    for system in ("ssp", "geotp"):
        config = ExperimentConfig(
            system=system,
            ycsb=YCSBConfig(skew=0.9, distributed_ratio=0.5),
            topology=build_dynamic_topology(phase_ms, phases),
            terminals=32,
            duration_ms=duration_ms,
            # As in the Fig. 11b scenario: the warm-up is one bucket of the
            # throughput series, so it ends on a bucket edge.
            warmup_ms=phase_ms / 4,
            timeline_bucket_ms=phase_ms / 4,
        )
        result = run_experiment(config)
        timelines[system] = dict(result.timeline["series"])
        totals[system] = result.throughput_tps

    buckets = sorted(set(timelines["ssp"]) | set(timelines["geotp"]))
    rows = [(f"{bucket / 1000:g}s",
             round(timelines["ssp"].get(bucket, 0.0), 1),
             round(timelines["geotp"].get(bucket, 0.0), 1)) for bucket in buckets]
    print_table("Throughput over time while link latencies change every 10 s",
                ["interval start", "SSP (txn/s)", "GeoTP (txn/s)"], rows)
    print(f"\nOverall: SSP {totals['ssp']:.1f} txn/s vs GeoTP {totals['geotp']:.1f} txn/s")


if __name__ == "__main__":
    main()
