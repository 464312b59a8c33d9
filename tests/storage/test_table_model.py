"""Model test: a base-layer table must be indistinguishable from an eager one.

``StorageEngine.bulk_load`` into an empty table adopts the caller's mapping as
an immutable base layer and materialises records on first touch.  The
reference here is the same engine class driven through its per-row path
(``load`` = one ``Table.put`` per row, the fallback ``bulk_load`` itself uses
for non-empty tables), which builds every record up front.  Random operation
sequences must leave both engines answering every question identically, and
must never mutate the mapping that was handed to ``bulk_load``.
"""

from copy import deepcopy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import protocol
from repro.sim import Environment
from repro.sim.network import Network
from repro.storage.datasource import DataSource, DataSourceConfig
from repro.storage.engine import StorageEngine

TABLES = ("t", "u")
KEYS = st.integers(min_value=0, max_value=11)
VALUES = st.one_of(st.integers(-3, 3), st.fixed_dictionaries({"f": st.integers(0, 3)}))
TXNS = st.sampled_from(["x1", "x2", "x3"])
TABLE = st.sampled_from(TABLES)

OPS = st.one_of(
    st.tuples(st.just("bulk_load"), TABLE, st.dictionaries(KEYS, VALUES, max_size=8)),
    st.tuples(st.just("get"), TABLE, KEYS),
    st.tuples(st.just("put"), TABLE, KEYS, VALUES),
    st.tuples(st.just("kv_put_if_version"), TABLE, KEYS, VALUES, st.integers(0, 3)),
    st.tuples(st.just("read"), TXNS, TABLE, KEYS),
    st.tuples(st.just("buffer_write"), TXNS, TABLE, KEYS, VALUES),
    st.tuples(st.just("commit_writes"), TXNS),
    st.tuples(st.just("discard_writes"), TXNS),
    st.tuples(st.just("len"), TABLE),
    st.tuples(st.just("in"), TABLE, KEYS),
    st.tuples(st.just("keys"), TABLE),
    st.tuples(st.just("record_count")),
)


def _view(record):
    return None if record is None else (record.key, record.value, record.version,
                                        record.last_writer)


def _apply(engine, op, eager):
    """Run one operation; returns what an observer of the engine would see."""
    name, args = op[0], op[1:]
    if name == "bulk_load":
        table, rows = args
        if eager:
            engine.create_table(table)
            for key, value in rows.items():
                engine.load(table, key, value)
        else:
            engine.bulk_load(table, rows)
        return None
    if name == "get":
        return _view(engine.table(args[0]).get(args[1]))
    if name == "put":
        return _view(engine.table(args[0]).put(args[1], args[2], writer="kv"))
    if name == "kv_put_if_version":
        # The body of DataSource._on_kv_put_if_version (ScalarDB baseline).
        table = engine.table(args[0])
        record = table.get(args[1])
        current = record.version if record else 0
        if current != args[3]:
            return ("conflict", current)
        return ("ok", table.put(args[1], args[2], writer="kv").version)
    if name == "read":
        snapshot = engine.read(*args)
        return None if snapshot is None else (snapshot.key, snapshot.value,
                                              snapshot.version)
    if name == "buffer_write":
        return engine.buffer_write(*args)
    if name == "commit_writes":
        return engine.commit_writes(*args)
    if name == "discard_writes":
        return engine.discard_writes(*args)
    if name == "len":
        return len(engine.table(args[0]))
    if name == "in":
        return args[1] in engine.table(args[0])
    if name == "keys":
        return list(engine.table(args[0]).keys())
    assert name == "record_count"
    return engine.record_count()


def _contents(engine):
    return {name: {key: _view(engine.table(name).get(key))
                   for key in engine.table(name).keys()}
            for name in sorted(engine.table_names())}


@settings(max_examples=300, deadline=None)
@given(st.lists(OPS, max_size=40))
def test_base_layer_engine_agrees_with_eager_engine(ops):
    lazy, eager = StorageEngine("lazy"), StorageEngine("eager")
    handed_over = []
    for op in ops:
        if op[0] == "bulk_load":
            handed_over.append((op[2], deepcopy(op[2])))
        assert _apply(lazy, op, eager=False) == _apply(eager, op, eager=True), op
    assert _contents(lazy) == _contents(eager)
    assert lazy.record_count() == eager.record_count()
    for rows, before in handed_over:
        assert rows == before, "bulk_load's mapping was mutated"


def test_untouched_base_rows_cost_no_records():
    engine = StorageEngine()
    engine.bulk_load("t", {key: {"f": 0} for key in range(1_000)})
    table = engine.table("t")
    assert len(table) == engine.record_count() == 1_000
    assert 999 in table and 1_000 not in table
    assert not table._records
    engine.read("x", "t", 7)
    table.put(8, "v", writer="x")
    table.put(5_000, "new", writer="x")          # absent from the base
    assert sorted(table._records) == [7, 8, 5_000]
    assert len(table) == 1_001
    assert list(table.keys())[-1] == 5_000


def test_reload_over_a_base_layer_bumps_versions():
    engine = StorageEngine()
    engine.bulk_load("t", {1: "a", 2: "b"})
    engine.bulk_load("t", {2: "B", 3: "c"})
    table = engine.table("t")
    assert _view(table.get(1)) == (1, "a", 1, "loader")
    assert _view(table.get(2)) == (2, "B", 2, "loader")
    assert _view(table.get(3)) == (3, "c", 1, "loader")
    assert list(table.keys()) == [1, 2, 3]


def test_kv_verbs_see_base_rows_through_a_datasource():
    env = Environment()
    network = Network(env)
    datasource = DataSource(env, network, DataSourceConfig(name="ds0"))
    client = network.interface("client")
    datasource.load_table("kv", {"x": "v0"})

    def call(verb, **payload):
        return env.run(until=client.request("ds0", verb, {"table": "kv", **payload}))

    assert call(protocol.MSG_KV_GET, key="x") == {
        "found": True, "value": "v0", "version": 1}
    assert call(protocol.MSG_KV_GET, key="y") == {"found": False}
    assert call(protocol.MSG_KV_PUT_IF_VERSION, key="x", value="v1",
                expected_version=0)["status"] == "conflict"
    assert call(protocol.MSG_KV_PUT_IF_VERSION, key="x", value="v1",
                expected_version=1) == {"status": "ok", "version": 2}
    assert call(protocol.MSG_KV_PUT, key="y", value="w") == {
        "status": "ok", "version": 1}
