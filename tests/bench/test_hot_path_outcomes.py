"""Outcome pins for the no-ghost-work hot path.

In-place grants, the round fan-out and the timer-served verbs may not add,
remove or reorder one observable simulated outcome: for each run below the
committed/aborted counts, the abort reasons, the throughput and the p99 equal
the values captured on the commit before the change (the run's pin in
``tests/bench/data/pins.json``), while the events dispatched per committed
transaction — which counted every grant dispatched to nobody and every
forwarding process — are strictly fewer than they were there.

The ScalarDB runs pin the key-value verbs' timer pairs the same way: their
outcomes equal the values captured while those verbs were still processes,
and no event per commit was added.  Only a statement batch, the one verb body
that can wait on a lock, may spawn a process on a data source or a geo-agent,
and a coordinator spawns only the transaction's own process: every N-way wait
of a round gathers through ``Replies`` callbacks.

Each event bound is stated per committed transaction: the captured
``events_processed`` divided by the pin's ``committed``, compared in integers
(by cross-multiplying).  So a fidelity fix that commits more in the same
simulated time is judged per unit of work, not by its total event count.
"""

import pytest

from repro.bench.equivalence import reduce
from repro.bench.runner import ExperimentConfig, run_experiment
from repro.plugins import system_plugins
from repro.sim._kernel.process import Process
from repro.workloads.arrivals import ArrivalConfig
from repro.workloads.ycsb import YCSBConfig
from tests.bench.pins import assert_pinned, load_pins


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


#: pin -> the ``events_processed`` captured on the commit before the change;
#: per committed transaction, the run must now stay strictly below it.
FEWER_EVENTS_THAN = {
    "hot_path.ycsb_contended.ssp": 1663,
    "hot_path.ycsb_contended.geotp": 5619,
    "hot_path.tpcc.ssp": 24004,
    "hot_path.tpcc.geotp": 47449,
    "hot_path.open_overload.ssp": 12720,
    "hot_path.open_overload.geotp": 14829,
    # Captured while ScalarDB+ spawned a process per read batch.
    "hot_path.ycsb_contended.scalardb_plus": 44611,
}
#: pin -> ``events_processed`` while the key-value verbs were processes; per
#: committed transaction, the run may not exceed it.
NO_MORE_EVENTS_THAN = {
    "hot_path.open_overload.scalardb_plus": 59097,
    "hot_path.ycsb_contended.scalardb": 14638,
}


@pytest.fixture(scope="module")
def contended_runs():
    """The ``ycsb_contended`` runs, made once with every process spawn
    recorded: the pins read their summaries, the spawn test their spawns."""
    spawned = []
    spawn = Process.__init__

    def spy(self, env, generator, *args, **kwargs):
        spawned.append(generator.__qualname__)
        spawn(self, env, generator, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Process, "__init__", spy)
        # Contended YCSB takes the rollback, lock-timeout and peer-rollback
        # paths, and ScalarDB(+)'s aborted prepares.
        summaries = {system: run_experiment(_config("ycsb_contended", system))
                     for system in ("ssp", "geotp", "scalardb", "scalardb_plus")}
    return summaries, spawned


def _per_commit(pin, summary, captured_events):
    """The run's events per commit and ``captured_events`` per the pin's
    ``committed``, each multiplied by both commit counts: integers that
    compare exactly as the two ratios do."""
    return (summary.events_processed * load_pins()[pin]["committed"],
            captured_events * summary.committed)


def _pinned_run(pin, request):
    _, name, system = pin.split(".")
    if name == "ycsb_contended":
        return request.getfixturevalue("contended_runs")[0][system]
    return run_experiment(_config(name, system))


@pytest.mark.parametrize("pin", list(FEWER_EVENTS_THAN))
def test_outcome_equals_the_parents_with_fewer_events(pin, request):
    summary = _pinned_run(pin, request)
    assert_pinned(pin, reduce(summary))
    run, captured = _per_commit(pin, summary, FEWER_EVENTS_THAN[pin])
    assert run < captured


@pytest.mark.parametrize("pin", list(NO_MORE_EVENTS_THAN))
def test_kv_verb_timers_keep_the_outcome_and_add_no_event(pin, request):
    summary = _pinned_run(pin, request)
    assert_pinned(pin, reduce(summary))
    run, captured = _per_commit(pin, summary, NO_MORE_EVENTS_THAN[pin])
    assert run <= captured


def test_only_a_statement_batch_spawns_a_process_on_a_node(contended_runs):
    _, spawned = contended_runs
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
