"""Unit tests for partitioners and the statement rewriter."""

import os
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.common import Operation, OpType
from repro.middleware import (
    ModuloPartitioner,
    Rewriter,
    WarehousePartitioner,
)


NODES = ["ds0", "ds1", "ds2", "ds3"]


def test_modulo_partitioner_spreads_integer_keys():
    partitioner = ModuloPartitioner(NODES)
    assert partitioner.locate("usertable", 0) == "ds0"
    assert partitioner.locate("usertable", 5) == "ds1"
    assert partitioner.locate("usertable", 7) == "ds3"


def test_modulo_partitioner_key_for_node_round_trips():
    partitioner = ModuloPartitioner(NODES)
    for node_index in range(4):
        for seq in (0, 1, 17):
            key = partitioner.key_for_node(node_index, seq)
            assert partitioner.locate("usertable", key) == NODES[node_index]


def test_modulo_partitioner_hashes_non_integer_keys():
    """A quoted SQL key must route in a sweep worker as in its parent, whatever
    ``PYTHONHASHSEED`` each process was started with."""
    script = ("from repro.middleware import ModuloPartitioner\n"
              f"p = ModuloPartitioner({NODES!r})\n"
              "print(*[p.locate('usertable', f'user{i}') for i in range(40)],"
              " p.locate('t', ('a', 1)))")
    runs = set()
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        runs.add(subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True,
                                check=True, timeout=60).stdout)
    assert len(runs) == 1, runs
    assert set(runs.pop().split()) == set(NODES)  # the keys still spread


def test_modulo_partitioner_rejects_empty_nodes():
    with pytest.raises(ValueError):
        ModuloPartitioner([])


def test_warehouse_partitioner_maps_warehouses_to_nodes():
    partitioner = WarehousePartitioner(NODES, warehouses_per_node=4)
    assert partitioner.total_warehouses == 16
    assert partitioner.node_for_warehouse(1) == "ds0"
    assert partitioner.node_for_warehouse(4) == "ds0"
    assert partitioner.node_for_warehouse(5) == "ds1"
    assert partitioner.node_for_warehouse(16) == "ds3"
    assert list(partitioner.warehouses_on_node(2)) == [9, 10, 11, 12]


def test_warehouse_partitioner_uses_tuple_keys_and_replicates_item():
    partitioner = WarehousePartitioner(NODES, warehouses_per_node=4)
    assert partitioner.locate("warehouse", (6,)) == "ds1"
    assert partitioner.locate("stock", (13, 77)) == "ds3"
    assert partitioner.locate("item", 500, home_hint="ds2") == "ds2"
    assert partitioner.locate("item", 500) == "ds0"


def test_warehouse_partitioner_rejects_bad_input():
    partitioner = WarehousePartitioner(NODES, warehouses_per_node=4)
    with pytest.raises(ValueError):
        partitioner.node_for_warehouse(0)
    with pytest.raises(ValueError):
        partitioner.node_for_warehouse(999)
    with pytest.raises(ValueError):
        partitioner.locate("stock", "not-a-tuple")
    with pytest.raises(ValueError):
        WarehousePartitioner(NODES, warehouses_per_node=0)


class UnmemoisedWarehousePartitioner(WarehousePartitioner):
    """The slow definition of ``locate``: validate and divide on every call."""

    def locate(self, table, key, home_hint=None):
        if table in self.REPLICATED_TABLES:
            return home_hint or self.datasource_names[0]
        if isinstance(key, tuple) and key:
            warehouse_id = key[0]
        elif isinstance(key, int):
            warehouse_id = key
        else:
            raise ValueError(f"TPC-C keys must start with a warehouse id, got {key!r}")
        return self.node_for_warehouse(int(warehouse_id))


def _outcome(partitioner, table, key):
    try:
        return partitioner.locate(table, key)
    except ValueError as exc:
        return ("ValueError", str(exc))


WAREHOUSE_IDS = st.integers(min_value=-3, max_value=20)      # 1..16 are valid
KEYS = st.one_of(
    WAREHOUSE_IDS,
    st.tuples(WAREHOUSE_IDS),
    st.tuples(WAREHOUSE_IDS, st.integers(0, 9)),
    st.tuples(WAREHOUSE_IDS, st.integers(0, 9), st.integers(0, 9)),
    st.just(()), st.text(max_size=3), st.none(), st.floats(allow_nan=False))


@given(lookups=st.lists(st.tuples(
    st.sampled_from(["warehouse", "stock", "orderline", "item"]), KEYS), max_size=60))
@settings(max_examples=200, deadline=None)
def test_memoised_locate_agrees_with_the_unmemoised_definition(lookups):
    fast = WarehousePartitioner(NODES, warehouses_per_node=4)
    slow = UnmemoisedWarehousePartitioner(NODES, warehouses_per_node=4)
    # One partitioner sees the whole sequence, so every repeated id is served
    # from the memo — including repeats of ids that were rejected before.
    for table, key in lookups:
        assert _outcome(fast, table, key) == _outcome(slow, table, key)
    assert all(1 <= int(warehouse_id) <= 16 for warehouse_id in fast._located)


def test_the_memo_does_not_swallow_validation():
    partitioner = WarehousePartitioner(NODES, warehouses_per_node=4)
    assert partitioner.locate("stock", (16, 1)) == "ds3"      # fills the memo
    for _ in range(2):      # the second round would be the memoised one
        for bad_key in (0, (0, 1), -1, 17, (17, 1), "16", None, (), 1.5):
            with pytest.raises(ValueError):
                partitioner.locate("stock", bad_key)
    assert list(partitioner._located) == [16]


def operations_for(keys, write=True):
    op_type = OpType.UPDATE if write else OpType.READ
    return [Operation(op_type=op_type, table="usertable", key=key, value=key)
            for key in keys]


def test_rewriter_groups_by_datasource():
    rewriter = Rewriter(ModuloPartitioner(NODES))
    operations = operations_for([0, 1, 4, 5])
    plans = rewriter.plan_round(operations)
    assert set(plans) == {"ds0", "ds1"}
    assert [op.key for op in plans["ds0"].operations] == [0, 4]
    assert [op.key for op in plans["ds1"].operations] == [1, 5]
    assert plans["ds0"].operations[1] is operations[2]
    for plan in plans.values():     # the two lists stay parallel
        assert plan.record_ids == [("usertable", op.key) for op in plan.operations]
        assert all(rid is op.record_id
                   for rid, op in zip(plan.record_ids, plan.operations))


def test_rewriter_plans_in_first_use_order():
    rewriter = Rewriter(ModuloPartitioner(NODES))
    plans = rewriter.plan_round(operations_for([2, 0, 6, 1]))
    assert list(plans) == ["ds2", "ds0", "ds1"]
