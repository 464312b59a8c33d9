"""Unit tests for transaction specs and the mini-SQL parser."""

import copy
import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.common import Operation, OpType
from repro.middleware import ParseError, SqlParser, Statement, TransactionSpec


def ops(n, write=True):
    op_type = OpType.UPDATE if write else OpType.READ
    return [Operation(op_type=op_type, table="usertable", key=i, value=i) for i in range(n)]


@given(op_type=st.sampled_from(list(OpType)), table=st.text(max_size=8),
       key=st.one_of(st.integers(), st.text(max_size=4),
                     st.tuples(st.integers(), st.integers())),
       value=st.one_of(st.none(), st.integers(), st.dictionaries(st.text(max_size=3),
                                                                 st.integers(), max_size=2)),
       hot=st.booleans())
def test_operation_record_id_is_the_table_key_pair_built_once(op_type, table, key,
                                                              value, hot):
    op = Operation(op_type, table, key, value, hot)
    assert op.record_id == (op.table, op.key)
    assert op.record_id is op.record_id                 # cached, not rebuilt
    assert Statement(operation=op).record_id is op.record_id
    # The cached id is derived state: it takes no part in equality or repr.
    assert op == Operation(op_type=op_type, table=table, key=key, value=value,
                           is_hot_hint=hot)
    assert "record_id" not in repr(op)
    assert repr(op) == (f"Operation(op_type={op_type!r}, table={table!r}, key={key!r}, "
                        f"value={value!r}, is_hot_hint={hot!r})")
    for clone in (pickle.loads(pickle.dumps(op)), copy.copy(op), copy.deepcopy(op)):
        assert clone == op and clone.record_id == (table, key)
    with pytest.raises(TypeError):
        Operation(op_type, table, key, record_id=("other", 0))    # not an argument


def test_spec_record_ids_are_the_operations_own_tuples():
    spec = TransactionSpec.from_operations(ops(4), rounds=2)
    assert spec.record_ids() == [("usertable", i) for i in range(4)]
    assert all(rid is stmt.operation.record_id
               for rid, stmt in zip(spec.record_ids(), spec.all_statements))
    assert spec.record_ids() is spec.record_ids()


def test_spec_requires_at_least_one_statement():
    with pytest.raises(ValueError):
        TransactionSpec(rounds=[[]])
    with pytest.raises(ValueError):
        TransactionSpec.from_operations([])


def test_from_operations_single_round_marks_last():
    spec = TransactionSpec.from_operations(ops(5))
    assert spec.round_count == 1
    assert spec.statement_count == 5
    assert all(stmt.is_last for stmt in spec.rounds[-1])


def test_from_operations_multiple_rounds_split_evenly():
    spec = TransactionSpec.from_operations(ops(6), rounds=3)
    assert spec.round_count == 3
    assert [len(r) for r in spec.rounds] == [2, 2, 2]
    assert not any(stmt.is_last for stmt in spec.rounds[0])
    assert all(stmt.is_last for stmt in spec.rounds[-1])


def test_from_operations_rounds_capped_by_operation_count():
    spec = TransactionSpec.from_operations(ops(2), rounds=10)
    assert spec.round_count == 2


def test_spec_record_ids_and_tables():
    spec = TransactionSpec.from_operations(ops(3))
    assert spec.record_ids() == [("usertable", 0), ("usertable", 1), ("usertable", 2)]
    assert spec.record_ids() is spec.record_ids()   # built once, shared
    assert spec.tables() == {"usertable"}


def test_statement_count_counts_every_round():
    spec = TransactionSpec.from_operations(ops(5), rounds=3)
    assert spec.statement_count == len(spec.all_statements) == 5


def test_statement_rendered_sql_synthesised():
    read = Statement(operation=Operation(op_type=OpType.READ, table="t", key="k"))
    write = Statement(operation=Operation(op_type=OpType.UPDATE, table="t", key="k", value=3))
    assert "SELECT" in read.rendered_sql()
    assert "UPDATE" in write.rendered_sql()


def test_parser_select():
    parsed = SqlParser().parse_statement("SELECT value FROM usertable WHERE key = 42;")
    assert parsed.kind == "dml"
    op = parsed.statement.operation
    assert op.op_type is OpType.READ
    assert op.table == "usertable"
    assert op.key == 42


def test_parser_select_quoted_key_and_for_share():
    parsed = SqlParser().parse_statement(
        "SELECT bal FROM savings WHERE name = 'Alice' FOR SHARE;")
    assert parsed.statement.operation.key == "Alice"


def test_parser_update():
    parsed = SqlParser().parse_statement(
        "UPDATE savings SET bal = 100 WHERE name = 'Bob';")
    op = parsed.statement.operation
    assert op.op_type is OpType.UPDATE
    assert op.key == "Bob"
    assert op.value == 100


def test_parser_insert():
    parsed = SqlParser().parse_statement(
        "INSERT INTO orders (o_id, amount) VALUES (7, 19.5);")
    op = parsed.statement.operation
    assert op.op_type is OpType.WRITE
    assert op.key == 7
    assert op.value == {"amount": 19.5}


def test_parser_last_statement_annotation():
    parsed = SqlParser().parse_statement(
        "UPDATE savings SET bal = 1 WHERE name = 'Bob' /*+ LAST */;")
    assert parsed.statement.is_last
    parsed2 = SqlParser().parse_statement(
        "UPDATE savings SET bal = 1 WHERE name = 'Bob' /* last statement */;")
    assert parsed2.statement.is_last


def test_parser_control_statements():
    parser = SqlParser()
    assert parser.parse_statement("BEGIN;").kind == "begin"
    assert parser.parse_statement("COMMIT;").kind == "commit"
    assert parser.parse_statement("ROLLBACK;").kind == "rollback"


def test_parser_rejects_unsupported_sql():
    with pytest.raises(ParseError):
        SqlParser().parse_statement("DROP TABLE users;")
    with pytest.raises(ParseError):
        SqlParser().parse_statement("   ")


def test_parse_transaction_block():
    sql = [
        "BEGIN;",
        "UPDATE savings SET bal = 900 WHERE name = 'Alice';",
        "UPDATE savings SET bal = 1100 WHERE name = 'Bob';",
        "COMMIT;",
    ]
    spec = SqlParser().parse_transaction(sql, txn_type="transfer")
    assert spec.statement_count == 2
    assert spec.rounds[0][-1].is_last
    assert not spec.rounds[0][0].is_last
    assert spec.txn_type == "transfer"


def test_parse_transaction_respects_explicit_annotation():
    sql = [
        "BEGIN;",
        "UPDATE savings SET bal = 900 WHERE name = 'Alice' /*+ LAST */;",
        "SELECT bal FROM savings WHERE name = 'Bob';",
        "COMMIT;",
    ]
    spec = SqlParser().parse_transaction(sql)
    assert spec.rounds[0][0].is_last
    assert not spec.rounds[0][1].is_last


def test_parse_transaction_requires_begin_commit():
    with pytest.raises(ParseError):
        SqlParser().parse_transaction(["UPDATE t SET v = 1 WHERE k = 1;"])
