"""Unit tests for partitioners and the statement rewriter."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.common import Operation, OpType
from repro.middleware import (
    ModuloPartitioner,
    Rewriter,
    Statement,
    TableAwarePartitioner,
    WarehousePartitioner,
)
from repro.storage import MySQLDialect, PostgreSQLDialect


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
    partitioner = ModuloPartitioner(NODES)
    located = partitioner.locate("usertable", "user42")
    assert located in NODES


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
    assert partitioner.warehouses_on_node(2) == [9, 10, 11, 12]


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


def test_table_aware_partitioner_delegates_per_table():
    modulo = ModuloPartitioner(NODES)
    warehouse = WarehousePartitioner(NODES, warehouses_per_node=4)
    combined = TableAwarePartitioner(
        NODES, per_table={"stock": warehouse}, default=modulo)
    assert combined.locate("stock", (5, 1)) == "ds1"
    assert combined.locate("usertable", 3) == "ds3"


def statements_for(keys, write=True):
    op_type = OpType.UPDATE if write else OpType.READ
    return [Statement(operation=Operation(op_type=op_type, table="usertable",
                                          key=key, value=key)) for key in keys]


def test_rewriter_groups_by_datasource_and_tracks_last():
    rewriter = Rewriter(ModuloPartitioner(NODES))
    statements = statements_for([0, 1, 4, 5])
    statements[-1].is_last = True
    plans = rewriter.plan_round(statements)
    assert set(plans) == {"ds0", "ds1"}
    assert [op.key for op in plans["ds0"].operations] == [0, 4]
    assert [op.key for op in plans["ds1"].operations] == [1, 5]
    for plan in plans.values():     # the three lists stay parallel
        assert plan.operations == [stmt.operation for stmt in plan.statements]
        assert plan.record_ids == [("usertable", op.key) for op in plan.operations]
        assert all(rid is op.record_id
                   for rid, op in zip(plan.record_ids, plan.operations))
    assert plans["ds1"].contains_last
    assert not plans["ds0"].contains_last


def test_rewriter_participants_in_first_use_order():
    rewriter = Rewriter(ModuloPartitioner(NODES))
    statements = statements_for([2, 0, 6, 1])
    assert rewriter.participants(statements) == ["ds2", "ds0", "ds1"]


def test_rewriter_renders_dialect_specific_sql():
    rewriter = Rewriter(ModuloPartitioner(NODES))
    statements = statements_for([0], write=False) + statements_for([4])
    plan = rewriter.plan_round(statements)["ds0"]

    mysql_script = rewriter.render_subtransaction("x1", plan, MySQLDialect())
    assert mysql_script[0] == "XA START 'x1';"
    assert mysql_script[-1] == "XA PREPARE 'x1';"
    assert not any("FOR SHARE" in line for line in mysql_script)

    pg_script = rewriter.render_subtransaction("x1", plan, PostgreSQLDialect())
    assert pg_script[0] == "BEGIN;"
    assert pg_script[-1] == "PREPARE TRANSACTION 'x1';"
    assert any("FOR SHARE" in line for line in pg_script)
