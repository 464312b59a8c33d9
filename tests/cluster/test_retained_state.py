"""Retained-state census: what a finished run still holds is O(in-flight + caps).

A simulation point's resident memory must not grow with its history.  After a
run (``keep_cluster=True``) :func:`census` walks every long-lived structure of
the statement path and reports, by name, each one that outgrew its structural
bound: the retention caps the structures declare themselves, plus whatever is
still in flight.  A table's overlay is bounded by the keys written: a read
stores nothing, so no record in it may still sit at its loaded version.  The
caps are shrunk for the test so a few simulated seconds overrun each of them
many times.
"""

from dataclasses import replace
from functools import partial

import pytest

from repro import ExperimentConfig, TopologyConfig, YCSBConfig, run_experiment
from repro.cluster import deployment
from repro.core import GeoAgentConfig, GeoTPConfig
from repro.middleware import middleware as middleware_module
from repro.storage import datasource as datasource_module
from repro.storage.datasource import DataSource, DataSourceConfig
from repro.storage.transaction import LocalTransaction
from repro.storage.wal import WriteAheadLog
from repro.workloads.arrivals import ArrivalConfig

RETENTION = 16          # finished branches per data source
CHECKPOINT = 32         # WAL retention horizon
XID_RETENTION = 32      # agent id maps
HOTSPOT_CAPACITY = 64

GEOTP = GeoTPConfig(hotspot_capacity=HOTSPOT_CAPACITY)
CLOSED_TPCC = ExperimentConfig(
    system="geotp", workload="tpcc", terminals=8, duration_ms=3_000.0,
    warmup_ms=300.0, seed=1, geotp=GEOTP)
#: Far past the knee on a small hot table with a short lock-wait timeout:
#: waits, timeouts, shedding and admission control are all active.
OPEN_YCSB = ExperimentConfig(
    system="geotp", duration_ms=3_000.0, warmup_ms=300.0, seed=1, geotp=GEOTP,
    topology=replace(TopologyConfig.paper_default(), lock_wait_timeout_ms=300.0),
    ycsb=YCSBConfig(skew=1.2, records_per_node=200),
    arrival=ArrivalConfig(process="poisson", rate_tps=400.0, max_clients=32))


@pytest.fixture
def small_caps(monkeypatch):
    """Build clusters whose retention caps a toy run overruns many times."""
    monkeypatch.setattr(deployment, "DataSourceConfig", partial(
        DataSourceConfig, finished_txn_retention=RETENTION))
    monkeypatch.setattr(deployment, "GeoAgentConfig", partial(
        GeoAgentConfig, xid_retention=XID_RETENTION))
    small_wal = partial(WriteAheadLog, checkpoint_records=CHECKPOINT)
    monkeypatch.setattr(datasource_module, "WriteAheadLog", small_wal)
    monkeypatch.setattr(middleware_module, "WriteAheadLog", small_wal)


def _wal_problem(name, wal):
    in_doubt = len(wal.prepared_xids())
    if len(wal) > 2 * wal.checkpoint_records + in_doubt:
        return [(name, f"{len(wal)} records > 2 x {wal.checkpoint_records} "
                       f"+ {in_doubt} in doubt")]
    return []


def census(cluster, clients):
    """``[(structure, detail)]`` for every structure past its bound."""
    problems = []
    for ds in cluster.datasources.values():
        where = f"datasource[{ds.name}]"
        finished = sum(1 for txn in ds.transactions.values() if txn.is_finished)
        in_flight = len(ds.transactions) - finished
        retention = ds.config.finished_txn_retention
        if finished > retention:
            problems.append((f"{where}.transactions",
                             f"{finished} finished branches > retention "
                             f"{retention} ({in_flight} in flight)"))
        for txn in ds.transactions.values():
            for field in LocalTransaction.__slots__:
                value = getattr(txn, field)
                if isinstance(value, (list, tuple, set, frozenset, dict)):
                    problems.append((f"{where}.transactions.{field}",
                                     f"{txn.xid} holds a {type(value).__name__}"))
        problems += _wal_problem(f"{where}.wal", ds.wal)
        locks = ds.lock_manager
        held = sum(len(keys) for keys in locks._held_by_txn.values())
        waited = sum(len(requests) for requests in locks._pending_by_txn.values())
        if len(locks._locks) > held + waited:
            problems.append((f"{where}.locks", f"{len(locks._locks)} entries > "
                                               f"{held} held + {waited} waited on"))
        for key, entry in locks._locks.items():
            if not entry.holders and not entry.queue:
                problems.append((f"{where}.locks",
                                 f"entry {key!r} has neither holder nor waiter"))
        # An overlay row at its loaded version (1 for a base row, 0 for an
        # absent one) holds nothing a write left: it reads like no record.
        unwritten = sum(record.version <= (key in table._base)
                        for table in ds.engine._tables.values()
                        for key, record in table._records.items())
        if unwritten:
            problems.append((f"{where}.tables",
                             f"{unwritten} records at their loaded version"))
        if len(ds.engine._write_sets) > in_flight:
            problems.append((f"{where}.write_sets",
                             f"{len(ds.engine._write_sets)} write sets > "
                             f"{in_flight} branches in flight"))
    for agent in cluster.agents.values():
        retention = agent.config.xid_retention
        for field in ("_local_xids", "_poisoned", "_xid_order"):
            if len(getattr(agent, field)) > retention:
                problems.append((f"agent[{agent.name}].{field}",
                                 f"{len(getattr(agent, field))} ids > {retention}"))
    for mw in cluster.middlewares:
        where = f"middleware[{mw.name}]"
        problems += _wal_problem(f"{where}.wal", mw.wal)
        for field in ("active_contexts", "active_processes", "_vote_boxes"):
            size = len(getattr(mw, field, ()))
            if size > clients:
                problems.append((f"{where}.{field}", f"{size} > {clients} clients"))
        footprint = getattr(mw, "footprint", None)
        if footprint is not None:
            if len(footprint) > footprint.capacity:
                problems.append((f"{where}.footprint", f"{len(footprint)} entries "
                                                       f"> {footprint.capacity}"))
            if len(footprint._idle) > 8 * footprint.capacity:
                problems.append((f"{where}.footprint._idle",
                                 f"{len(footprint._idle)} items > 8 x "
                                 f"{footprint.capacity}"))
    return problems


def _run(config):
    result = run_experiment(config, keep_cluster=True)
    clients = (config.arrival.max_clients if config.arrival is not None
               else config.terminals)
    try:
        return result, census(result.cluster, clients)
    finally:
        result.cluster.close()


@pytest.mark.parametrize("config", [CLOSED_TPCC, OPEN_YCSB],
                         ids=["closed_tpcc", "open_ycsb_overload"])
def test_a_finished_run_holds_in_flight_state_plus_caps(small_caps, config):
    result, problems = _run(config)
    assert problems == []
    # The caps were really overrun: the bounds held because state was dropped.
    assert result.committed + result.aborted > 4 * RETENTION
    assert result.committed > 2 * CHECKPOINT


def test_the_caps_are_the_ones_the_census_reads(small_caps):
    result = run_experiment(CLOSED_TPCC, keep_cluster=True)
    cluster = result.cluster
    try:
        assert {ds.config.finished_txn_retention
                for ds in cluster.datasources.values()} == {RETENTION}
        assert {ds.wal.checkpoint_records
                for ds in cluster.datasources.values()} == {CHECKPOINT}
        assert cluster.middleware.wal.checkpoint_records == CHECKPOINT
        assert {agent.config.xid_retention
                for agent in cluster.agents.values()} == {XID_RETENTION}
        assert cluster.middleware.footprint.capacity == HOTSPOT_CAPACITY
        assert any(ds.wal.checkpoints for ds in cluster.datasources.values())
        assert cluster.middleware.footprint.evictions > 0
    finally:
        cluster.close()


def test_a_branch_that_is_never_retired_trips_the_census_by_name(
        small_caps, monkeypatch):
    monkeypatch.setattr(DataSource, "_retire", lambda self, txn: None)
    _result, problems = _run(CLOSED_TPCC)
    names = {name for name, _detail in problems}
    assert any(name.startswith("datasource[") and name.endswith(".transactions")
               for name in names), problems
    # Only the broken structure is reported, not its neighbours.
    assert all(name.endswith(".transactions") for name in names), problems


def test_a_per_record_collection_on_a_branch_trips_the_census_by_name(small_caps):
    result = run_experiment(CLOSED_TPCC, keep_cluster=True)
    cluster = result.cluster
    try:
        ds = next(iter(cluster.datasources.values()))
        txn = next(iter(ds.transactions.values()))
        txn.first_lock_at = [("warehouse", (1,))]      # a per-record collection
        names = {name for name, _detail in census(cluster, CLOSED_TPCC.terminals)}
        assert names == {f"datasource[{ds.name}].transactions.first_lock_at"}
    finally:
        cluster.close()
