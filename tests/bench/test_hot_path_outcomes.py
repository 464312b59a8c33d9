"""Outcome pins for the no-ghost-work hot path.

In-place grants, the round fan-out and the timer-served verbs may not add,
remove or reorder one observable simulated outcome: for each run below the
committed/aborted counts, the abort reasons, the throughput and the p99 equal
the values captured on the commit before the change, while
``events_processed`` — which counted every grant dispatched to nobody and
every forwarding process — is strictly lower than it was there.
"""

import pytest

from repro.bench.runner import ExperimentConfig, run_experiment
from repro.workloads.arrivals import ArrivalConfig
from repro.workloads.ycsb import YCSBConfig


def _config(name: str, system: str) -> ExperimentConfig:
    if name == "ycsb_contended":
        return ExperimentConfig(
            system=system, workload="ycsb", terminals=24, duration_ms=8_000.0,
            warmup_ms=1_000.0, seed=11,
            ycsb=YCSBConfig(skew=1.2, operations_per_transaction=5))
    if name == "tpcc":
        return ExperimentConfig(
            system=system, workload="tpcc", terminals=16, duration_ms=10_000.0,
            warmup_ms=1_000.0, seed=11)
    return ExperimentConfig(          # toy open loop past the knee: it sheds
        system=system, workload="ycsb", duration_ms=10_000.0, warmup_ms=500.0,
        seed=11,
        ycsb=YCSBConfig(skew=0.9, operations_per_transaction=5,
                        records_per_node=2_000, preload_rows_per_node=2_000),
        arrival=ArrivalConfig(process="poisson", rate_tps=400.0, max_clients=32))


#: (run, system) -> the parent commit's summary of it.
PARENT = {
    ("ycsb_contended", "ssp"): dict(
        committed=20, aborted=15, abort_reasons={"lock_timeout": 15},
        throughput_tps=2.857142857142857, p99_latency_ms=5414.0149999999985,
        events_processed=1663),
    ("ycsb_contended", "geotp"): dict(
        committed=62, aborted=25,
        abort_reasons={"admission_blocked": 10, "lock_timeout": 15},
        throughput_tps=8.857142857142858, p99_latency_ms=5802.737999999999,
        events_processed=5619),
    ("tpcc", "ssp"): dict(
        committed=339, aborted=0, abort_reasons={},
        throughput_tps=37.666666666666664, p99_latency_ms=2041.8159999999984,
        events_processed=24004),
    ("tpcc", "geotp"): dict(
        committed=521, aborted=5, abort_reasons={"admission_blocked": 5},
        throughput_tps=57.888888888888886, p99_latency_ms=1206.4989310728172,
        events_processed=47449),
    ("open_overload", "ssp"): dict(
        committed=241, aborted=13, abort_reasons={"lock_timeout": 13},
        throughput_tps=25.36842105263158, p99_latency_ms=5967.227325100484,
        events_processed=12720),
    ("open_overload", "geotp"): dict(
        committed=184, aborted=24,
        abort_reasons={"admission_blocked": 18, "lock_timeout": 6},
        throughput_tps=19.36842105263158, p99_latency_ms=5307.152900446155,
        events_processed=14829),
}


@pytest.mark.parametrize("name, system", list(PARENT),
                         ids=[f"{name}-{system}" for name, system in PARENT])
def test_outcome_equals_the_parents_with_fewer_events(name, system):
    parent = PARENT[(name, system)]
    summary = run_experiment(_config(name, system)).summary()
    assert summary.committed == parent["committed"]
    assert summary.aborted == parent["aborted"]
    assert dict(summary.abort_reasons) == parent["abort_reasons"]
    assert summary.throughput_tps == parent["throughput_tps"]
    assert summary.p99_latency_ms == pytest.approx(parent["p99_latency_ms"],
                                                   rel=1e-9)
    assert summary.events_processed < parent["events_processed"]
