"""Preloaded tables are read-only views that answer like the dicts they replace.

``initial_data()`` hands every table a read-only mapping: a
:class:`~repro.storage.engine.SharedRows` view over a key ``range`` or a key
grid, or TPC-C's item catalogue, one dict shared by every node.  Tables adopt
it as their copy-on-write base layer, and it is rebuilt for every load — so a
preload must cost O(nodes x tables) at any row count, answer exactly like the
row-by-row loaders below (the reference: same keys, order and rows, nothing
foreign present), and never be mutated by a run.
"""

import time
import tracemalloc

import pytest

from repro import ExperimentConfig, TopologyConfig, build_cluster, protocol, run_experiment
from repro.bench.runner import make_workload
from repro.contrib import ecommerce, smallbank
from repro.plugins import get_workload_plugin, workload_names
from repro.storage.engine import SharedRows, StorageEngine
from repro.workloads.base import Workload, WorkloadConfig
from repro.workloads.tpcc import DISTRICTS_PER_WAREHOUSE, TPCCConfig
from repro.workloads.ycsb import VALUE_SIZE_BYTES, YCSBConfig

WORKLOADS = workload_names()
TOPOLOGY = TopologyConfig.paper_default()
NODES = TOPOLOGY.node_names()


def _config(name, seed=3):
    # A smaller YCSB key space keeps the row-by-row reference cheap.
    return ExperimentConfig(system="ssp", workload=name, terminals=4,
                            duration_ms=1_500.0, warmup_ms=300.0, seed=seed,
                            ycsb=YCSBConfig(records_per_node=5_000))


# ---------------------------------------------------- row-by-row reference
def _ycsb_rows(workload):
    config, key_for_node = workload.config, workload.make_partitioner().key_for_node
    return {name: {"usertable": {key_for_node(index, sequence):
                                 {"field0": "x" * VALUE_SIZE_BYTES}
                                 for sequence in range(config.records_per_node)}}
            for index, name in enumerate(workload.datasource_names)}


def _tpcc_rows(workload):
    config, partitioner = workload.config, workload.make_partitioner()
    data = {}
    for index, name in enumerate(workload.datasource_names):
        tables = {table: {} for table in ("warehouse", "district", "customer",
                                          "stock", "item", "order", "neworder",
                                          "orderline", "history")}
        for w in partitioner.warehouses_on_node(index):
            tables["warehouse"][(w,)] = {"w_ytd": 0.0, "w_tax": 0.05}
            for d in range(1, DISTRICTS_PER_WAREHOUSE + 1):
                tables["district"][(w, d)] = {
                    "d_ytd": 0.0, "d_tax": 0.05, "d_next_o_id": 3000}
                for c in range(1, config.customers_per_district + 1):
                    tables["customer"][(w, d, c)] = {
                        "c_balance": -10.0, "c_ytd_payment": 10.0, "c_payment_cnt": 1}
            for item in range(1, config.item_count + 1):
                tables["stock"][(w, item)] = {
                    "s_quantity": 100, "s_ytd": 0, "s_order_cnt": 0}
        for item in range(1, config.item_count + 1):
            tables["item"][item] = {"i_price": 9.99, "i_name": f"item-{item}"}
        data[name] = tables
    return data


def _smallbank_rows(workload):
    key_for_node = workload.make_partitioner().key_for_node
    data = {}
    for index, name in enumerate(workload.datasource_names):
        accounts = [key_for_node(index, sequence)
                    for sequence in range(smallbank.ACCOUNTS_PER_NODE)]
        data[name] = {table: {account: {"balance": smallbank.INITIAL_BALANCE}
                              for account in accounts}
                      for table in ("savings", "checking")}
    return data


def _ecommerce_rows(workload):
    key_for_node = workload.make_partitioner().key_for_node
    data = {}
    for index, name in enumerate(workload.datasource_names):
        customers = [key_for_node(index, s)
                     for s in range(ecommerce.CUSTOMERS_PER_NODE)]
        data[name] = {
            "products": {key_for_node(index, s): {"stock": 1_000, "price": 10.0}
                         for s in range(ecommerce.PRODUCTS_PER_NODE)},
            "customers": {key: {"balance": 10_000.0} for key in customers},
            "carts": {key: {"items": 0} for key in customers}}
    return data


REFERENCE = {"ycsb": _ycsb_rows, "tpcc": _tpcc_rows,
             "smallbank": _smallbank_rows, "ecommerce": _ecommerce_rows}


def _items(data):
    return [(node, table, len(rows), list(rows.items()))
            for node, tables in data.items() for table, rows in tables.items()]


def _foreign_keys(key):
    """Probes built from one preloaded key that no view may answer as
    present: other types, negatives, neighbours off the stripe or grid."""
    if type(key) is int:
        return [str(key), None, float(key), key + 0.5, -key - 1, key + 1, True]
    return [str(key), None, tuple(float(part) for part in key),
            tuple(-part for part in key), key[:-1], key + (1,),
            (str(key[0]),) + key[1:], key[:-1] + (key[-1] + 10_000,)]


def test_every_registered_workload_is_covered():
    assert {"ycsb", "tpcc", "smallbank", "ecommerce"} <= set(WORKLOADS)
    assert set(REFERENCE) == {"ycsb", "tpcc", "smallbank", "ecommerce"}


@pytest.mark.parametrize("name", sorted(REFERENCE))
@pytest.mark.parametrize("nodes", [NODES, NODES[:1], ["a", "b", "c"]],
                         ids=["paper", "one-node", "three-nodes"])
def test_views_list_exactly_the_rows_of_the_row_by_row_loader(name, nodes):
    workload = make_workload(_config(name), nodes)
    data, reference = workload.initial_data(), REFERENCE[name](workload)
    assert _items(data) == _items(reference)
    for node, tables in data.items():
        for table, rows in tables.items():
            assert rows == reference[node][table]
            # One view type; the only exceptions are TPC-C's catalogue and
            # the tables that start empty.
            assert (isinstance(rows, SharedRows) or not rows
                    or (name, table) == ("tpcc", "item")), (node, table)
    if name == "tpcc":
        catalogues = {id(tables["item"]) for tables in data.values()}
        assert len(catalogues) == 1, "the replicated catalogue is one shared dict"


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_views_answer_foreign_keys_as_absent(name):
    data = make_workload(_config(name), NODES).initial_data()
    for node, tables in data.items():
        engine = StorageEngine(node)
        for table, rows in tables.items():
            engine.bulk_load(table, rows)
            if not isinstance(rows, SharedRows):
                continue
            for key in (next(iter(rows)), list(rows)[-1]):
                assert key in rows
                assert engine.read(None, table, key).value is rows[key]
                for probe in _foreign_keys(key):
                    assert probe not in rows, (node, table, probe)
                    assert rows.get(probe) is None
                    with pytest.raises(KeyError):
                        rows[probe]
                    assert engine.read(None, table, probe) is None, (
                        node, table, probe)
            # Every other node's keys are off this node's stripe or grid.
            for other, other_tables in data.items():
                if other != node:
                    assert not any(key in rows for key in other_tables[table]), (
                        node, other, table)


def test_a_foreign_lookup_on_a_million_row_view_is_not_a_scan():
    config = YCSBConfig(records_per_node=1_000_000)
    data = get_workload_plugin("ycsb").factory(NODES, config).initial_data()
    view = data[NODES[0]]["usertable"]
    assert len(view) == 1_000_000
    for probe in ("k", "3999996", 3_999_996.0, None):
        started = time.perf_counter()
        assert probe not in view and view.get(probe) is None
        assert time.perf_counter() - started < 0.001, probe


@pytest.mark.parametrize("name, workload_config, rows_per_node", [
    ("ycsb", YCSBConfig(records_per_node=1_000_000), 1_000_000),
    # 64 x (warehouse + 10 districts + 300 customers + 200 stock) + 200 items.
    ("tpcc", TPCCConfig(warehouses_per_node=64), 64 * 511 + 200),
], ids=["ycsb", "tpcc"])
def test_a_paper_scale_preload_loads_in_constant_time_and_memory(
        name, workload_config, rows_per_node):
    workload = get_workload_plugin(name).factory(NODES, workload_config)

    def build():
        return build_cluster("ssp", TOPOLOGY, workload.make_partitioner(), seed=1)

    cluster = build()
    started = time.perf_counter()
    cluster.load_workload(workload)
    elapsed = time.perf_counter() - started
    rows = sum(len(table._base) for table in
               cluster.datasources[NODES[0]].engine._tables.values())
    cluster.close()
    assert rows == rows_per_node
    assert elapsed < 0.050, f"{name}: a paper-scale load took {elapsed * 1e3:.1f} ms"

    cluster = build()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        cluster.load_workload(workload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        cluster.close()
    assert peak - before < 1_000_000, f"{name}: a load allocated {peak - before} B"


def test_paper_scale_reads_store_no_records():
    """Reads answer from the base: 10,000 spread keys of a 1 M-row table
    through ``engine.read`` and 100 through the ``kv_get`` verb store nothing
    (a record per key read would retain about 1 MB)."""
    workload = get_workload_plugin("ycsb").factory(
        NODES, YCSBConfig(records_per_node=1_000_000))
    cluster = build_cluster("ssp", TOPOLOGY, workload.make_partitioner(), seed=1)
    try:
        cluster.load_workload(workload)
        ds = cluster.datasources[NODES[0]]
        key_for_node = workload.make_partitioner().key_for_node
        keys = [key_for_node(0, sequence) for sequence in range(0, 1_000_000, 100)]
        client = cluster.network.interface("probe")

        def kv_get(key):
            return cluster.env.run(until=client.request(
                ds.name, protocol.MSG_KV_GET, {"table": "usertable", "key": key}))

        kv_get(keys[0])                     # warm the request path
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            assert all(ds.engine.read("reader", "usertable", key).version == 1
                       for key in keys)
            assert all(kv_get(key)["version"] == 1 for key in keys[::100])
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not ds.engine._tables["usertable"]._records
        assert after - before < 10_000, f"reads retained {after - before} B"
    finally:
        cluster.close()


@pytest.mark.parametrize("name", WORKLOADS)
def test_a_full_run_never_mutates_the_shared_rows(name, monkeypatch):
    loaded = []
    bulk_load = StorageEngine.bulk_load

    def recording_bulk_load(engine, table_name, rows):
        loaded.append((engine.name, table_name, len(rows), rows))
        bulk_load(engine, table_name, rows)

    monkeypatch.setattr(StorageEngine, "bulk_load", recording_bulk_load)
    result = run_experiment(_config(name))
    assert result.committed > 0
    fresh = make_workload(_config(name), NODES).initial_data()
    assert [(node, table, size, list(rows.items()))
            for node, table, size, rows in loaded] == _items(fresh), (
        f"{name}: a run mutated its preload in place")


class _RandomPreload(Workload):
    """A workload whose preload consumes its RNG stream."""

    name = "random_preload"
    calls = 0

    def initial_data(self):
        type(self).calls += 1
        return {name: {"t": {0: self.rng.random()}} for name in self.datasource_names}


def test_a_preload_that_draws_from_the_rng_is_never_memoised():
    config = WorkloadConfig(seed=5)
    first, second = _RandomPreload(NODES, config), _RandomPreload(NODES, config)
    calls = _RandomPreload.calls
    first.load_into({})
    second.load_into({})
    assert _RandomPreload.calls == calls + 2
    # Skipping the draw would have shifted everything generated afterwards.
    assert first.rng.random() == second.rng.random()
