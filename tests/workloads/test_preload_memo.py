"""The shared preload: ``Workload.load_into`` memoises ``initial_data()``.

The last ``initial_data()`` result is kept per (workload class, data source
names, config) and tables adopt it as their copy-on-write base layer, so
consecutive points of a sweep share one set of rows.  That is only sound if a
memo hit is indistinguishable from a fresh load, nothing ever mutates the
shared rows, any config or seed change misses, and a workload whose
``initial_data()`` consumes its RNG stream is never shared.
"""

from copy import deepcopy
from dataclasses import replace

import pytest

from repro import ExperimentConfig, TopologyConfig, build_cluster, run_experiment
from repro.bench.runner import make_workload
from repro.plugins import workload_names
from repro.workloads import base
from repro.workloads.base import Workload, WorkloadConfig

WORKLOADS = workload_names()
NODES = TopologyConfig.paper_default().node_names()


def _memo():
    return base._last_initial_data


@pytest.fixture(autouse=True)
def fresh_memo(monkeypatch):
    monkeypatch.setattr(base, "_last_initial_data", None)


def _config(name, seed=3):
    return ExperimentConfig(system="ssp", workload=name, terminals=4,
                            duration_ms=1_500.0, warmup_ms=300.0, seed=seed)


def _load(config):
    """Build and load one cluster; returns (table contents, first 50 specs)."""
    workload = make_workload(config, NODES)
    cluster = build_cluster(config.system, TopologyConfig.paper_default(),
                            workload.make_partitioner(), seed=config.seed)
    cluster.load_workload(workload)
    contents = {}
    for name, datasource in cluster.datasources.items():
        for table_name in datasource.engine.table_names():
            table = datasource.engine.table(table_name)
            contents[name, table_name] = {
                key: (record.value, record.version, record.last_writer)
                for key in table.keys() for record in [table.get(key)]}
    specs = [workload.next_transaction(index % 4) for index in range(50)]
    return contents, [(s.rounds, s.txn_type, s.metadata) for s in specs]


def test_every_registered_workload_is_covered():
    assert {"ycsb", "tpcc", "smallbank", "ecommerce"} <= set(WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_memo_hit_is_indistinguishable_from_a_fresh_load(name, monkeypatch):
    fresh = _load(_config(name))
    shared = _memo()
    assert shared is not None, f"{name}: a pure initial_data() must be memoised"
    hit = _load(_config(name))
    assert _memo() is shared, "the second identical load must hit the memo"
    assert hit == fresh
    monkeypatch.setattr(base, "_last_initial_data", None)
    assert _load(_config(name)) == fresh
    assert _memo()[1] is not shared[1]


@pytest.mark.parametrize("name", WORKLOADS)
def test_a_full_run_never_mutates_the_shared_rows(name):
    run_experiment(_config(name))
    _key, rows = _memo()
    before = deepcopy(rows)
    result = run_experiment(_config(name))
    assert result.committed > 0
    assert _memo()[1] is rows, "the second run must have used the shared rows"
    assert rows == before, f"{name}: a run mutated the shared preload in place"


@pytest.mark.parametrize("name", WORKLOADS)
def test_changed_seed_or_config_misses(name):
    _load(_config(name, seed=3))
    first = _memo()
    _load(_config(name, seed=4))
    second = _memo()
    assert second[1] is not first[1], "a different seed must not share rows"
    config = _config(name, seed=4)
    workload_config = replace(make_workload(config, NODES).config,
                              distributed_ratio=0.55)
    _load(replace(config, workload_config=workload_config))
    assert _memo()[1] is not second[1], "a different config must not share rows"


def test_memo_key_is_a_private_copy_of_the_config():
    from repro.workloads.tpcc import TPCCConfig, TPCCWorkload

    config = TPCCConfig(warehouses_per_node=1, item_count=10)
    TPCCWorkload(NODES, config).load_into({})
    rows = _memo()[1]
    TPCCWorkload(NODES, config).load_into({})
    assert _memo()[1] is rows
    # Mutating the caller's config in place — even a nested field — must not
    # drag the stored key along with it.
    config.mix["payment"], config.mix["new_order"] = 0.45, 0.43
    TPCCWorkload(NODES, config).load_into({})
    assert _memo()[1] is not rows


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
    first.load_into({})
    assert _memo() is None
    second.load_into({})
    assert _memo() is None
    assert _RandomPreload.calls == 2
    # Skipping the draw would have shifted everything generated afterwards.
    assert first.rng.random() == second.rng.random()
