"""Outcome pins for the no-ghost-work hot path.

In-place grants, the round fan-out and the timer-served verbs may not add,
remove or reorder one observable simulated outcome: for each run below the
committed/aborted counts, the abort reasons, the throughput and the p99 equal
the values captured on the commit before the change, while
``events_processed`` — which counted every grant dispatched to nobody and
every forwarding process — is strictly lower than it was there.

The ScalarDB runs pin the key-value verbs' timer pairs the same way: their
outcomes equal the values captured while those verbs were still processes,
and no event was added.  Only a statement batch, the one verb body that can
wait on a lock, may spawn a process on a data source or a geo-agent, and a
coordinator spawns only the transaction's own process: every N-way wait of a
round gathers through ``Replies`` callbacks.
"""

import pytest

from repro.bench.runner import ExperimentConfig, run_experiment
from repro.plugins import system_plugins
from repro.sim._kernel.process import Process
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
                        records_per_node=2_000),
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
    # Captured while ScalarDB+ spawned a process per read batch.
    ("ycsb_contended", "scalardb_plus"): dict(
        committed=613, aborted=321,
        abort_reasons={"admission_blocked": 64, "prepare_failed": 257},
        throughput_tps=87.57142857142857, p99_latency_ms=554.163474531205,
        events_processed=44611),
}

#: (run, system) -> its summary while the key-value verbs were processes.
PARENT_KV = {
    ("open_overload", "scalardb_plus"): dict(
        committed=987, aborted=210,
        abort_reasons={"admission_blocked": 24, "prepare_failed": 186},
        throughput_tps=103.89473684210526, p99_latency_ms=626.9380820104385,
        events_processed=59097),
    ("ycsb_contended", "scalardb"): dict(
        committed=239, aborted=85, abort_reasons={"prepare_failed": 85},
        throughput_tps=34.142857142857146, p99_latency_ms=1511.9,
        events_processed=14638),
}


def _assert_outcome(summary, parent):
    assert summary.committed == parent["committed"]
    assert summary.aborted == parent["aborted"]
    assert dict(summary.abort_reasons) == parent["abort_reasons"]
    assert summary.throughput_tps == parent["throughput_tps"]
    assert summary.p99_latency_ms == pytest.approx(parent["p99_latency_ms"],
                                                   rel=1e-9)


@pytest.mark.parametrize("name, system", list(PARENT),
                         ids=[f"{name}-{system}" for name, system in PARENT])
def test_outcome_equals_the_parents_with_fewer_events(name, system):
    parent = PARENT[(name, system)]
    summary = run_experiment(_config(name, system)).summary()
    _assert_outcome(summary, parent)
    assert summary.events_processed < parent["events_processed"]


@pytest.mark.parametrize("name, system", list(PARENT_KV),
                         ids=[f"{name}-{system}" for name, system in PARENT_KV])
def test_kv_verb_timers_keep_the_outcome_and_add_no_event(name, system):
    parent = PARENT_KV[(name, system)]
    summary = run_experiment(_config(name, system)).summary()
    _assert_outcome(summary, parent)
    assert summary.events_processed <= parent["events_processed"]


def test_only_a_statement_batch_spawns_a_process_on_a_node(monkeypatch):
    spawned = []
    spawn = Process.__init__

    def spy(self, env, generator, *args, **kwargs):
        spawned.append(generator.__qualname__)
        spawn(self, env, generator, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", spy)
    # Contended YCSB takes the rollback, lock-timeout and peer-rollback paths.
    run_experiment(_config("ycsb_contended", "ssp"))
    run_experiment(_config("ycsb_contended", "geotp"))
    run_experiment(ExperimentConfig(
        system="scalardb_plus", workload="ycsb", terminals=8,
        duration_ms=1_500.0, warmup_ms=0.0, seed=11, ycsb=YCSBConfig(skew=1.2)))
    on_nodes = {name for name in spawned
                if name.startswith(("DataSource.", "GeoAgent."))}
    assert on_nodes == {"DataSource._execute"}
    coordinator_classes = {cls.__name__ for plugin in system_plugins()
                           for cls in plugin.coordinator.__mro__}
    on_coordinators = {name for name in spawned
                       if name.split(".")[0] in coordinator_classes}
    assert "MiddlewareBase._coordinate" in on_coordinators
    assert on_coordinators <= {"MiddlewareBase._coordinate",
                               "MiddlewareBase._refuse"}
