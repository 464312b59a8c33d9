"""Model test: a base-layer table must be indistinguishable from an eager one.

``StorageEngine.bulk_load`` into an empty table adopts the caller's mapping (a
dict or a ``SharedRows`` view) as an immutable base layer; reads answer from
it and only a write creates a record.  The reference here is the same engine
class driven through its per-row path (one ``Table.put`` per row, the
fallback ``bulk_load`` itself uses for non-empty tables), which builds every
record up front.  Random operation sequences must leave both engines
answering every read identically, and must never mutate the mapping that was
handed to ``bulk_load``.
"""

from copy import deepcopy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import protocol
from repro.sim import Environment
from repro.sim.network import Network
from repro.storage.datasource import DataSource, DataSourceConfig
from repro.storage.engine import SharedRows, StorageEngine

TABLES = ("t", "u")
KEY_RANGE = range(12)
KEYS = st.sampled_from(KEY_RANGE)
VALUES = st.one_of(st.integers(-3, 3), st.fixed_dictionaries({"f": st.integers(0, 3)}))
TXNS = st.sampled_from(["x1", "x2", "x3"])
TABLE = st.sampled_from(TABLES)

ROWS = st.one_of(
    st.dictionaries(KEYS, VALUES, max_size=8),
    st.builds(SharedRows, st.builds(range, st.integers(0, 4), st.integers(0, 12),
                                    st.integers(1, 3)), VALUES))

OPS = st.one_of(
    st.tuples(st.just("bulk_load"), TABLE, ROWS),
    st.tuples(st.just("kv_get"), TABLE, KEYS),
    st.tuples(st.just("put"), TABLE, KEYS, VALUES),
    st.tuples(st.just("kv_put_if_version"), TABLE, KEYS, VALUES, st.integers(0, 3)),
    st.tuples(st.just("read"), TXNS, TABLE, KEYS),
    st.tuples(st.just("buffer_write"), TXNS, TABLE, KEYS, VALUES),
    st.tuples(st.just("commit_writes"), TXNS),
    st.tuples(st.just("discard_writes"), TXNS),
    st.tuples(st.just("write_count"), TXNS),
)


def _view(record):
    return None if record is None else (record.key, record.value, record.version)


def _snapshot(snapshot):
    return None if snapshot is None else (snapshot.key, snapshot.value,
                                          snapshot.version)


def _kv_get(engine, table, key):
    """The body of DataSource._on_kv_get (ScalarDB baseline)."""
    snapshot = engine.read(None, table, key)
    return None if snapshot is None else (snapshot.value, snapshot.version)


def _apply(engine, op, eager):
    """Run one operation; returns what an observer of the engine would see."""
    name, args = op[0], op[1:]
    if name == "bulk_load":
        table, rows = args
        if eager:
            table = engine.create_table(table)
            for key, value in rows.items():
                table.put(key, value)
        else:
            engine.bulk_load(table, rows)
        return None
    if name == "kv_get":
        return _kv_get(engine, *args)
    if name == "put":
        return _view(engine.create_table(args[0]).put(args[1], args[2]))
    if name == "kv_put_if_version":
        # The body of DataSource._on_kv_put for kv_put_if_version (ScalarDB).
        current = (_kv_get(engine, args[0], args[1]) or (None, 0))[1]
        if current != args[3]:
            return ("conflict", current)
        return ("ok", engine.create_table(args[0]).put(args[1], args[2]).version)
    if name == "read":
        return _snapshot(engine.read(*args))
    return getattr(engine, name)(*args)


def _contents(engine):
    """Every (table, key) of the finite key universe, through both read paths;
    ``"v"`` is a table no operation ever creates."""
    return {(table, key): (_snapshot(engine.read("reader", table, key)),
                           _kv_get(engine, table, key))
            for table in TABLES + ("v",) for key in KEY_RANGE}


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
    assert "v" not in lazy._tables, "a read created a table"
    for rows, before in handed_over:
        assert rows == before, "bulk_load's mapping was mutated"


def test_untouched_base_rows_cost_no_records():
    engine = StorageEngine()
    engine.bulk_load("t", {key: {"f": 0} for key in range(1_000)})
    table = engine._tables["t"]
    for key in range(1_000):
        assert engine.read("x", "t", key).version == 1
    assert engine.read("x", "t", 1_000) is None
    assert engine.read("x", "u", 0) is None
    assert not table._records, "a read stored a record"
    assert set(engine._tables) == {"t"}, "a read created a table"
    table.put(8, "v")
    table.put(5_000, "new")                      # absent from the base
    assert sorted(table._records) == [8, 5_000]
    assert _view(table._records[8]) == (8, "v", 2)
    assert _view(table._records[5_000]) == (5_000, "new", 1)


def test_reload_over_a_base_layer_bumps_versions():
    engine = StorageEngine()
    engine.bulk_load("t", {1: "a", 2: "b"})
    engine.bulk_load("t", {2: "B", 3: "c"})
    assert [_kv_get(engine, "t", key) for key in (1, 2, 3)] == [
        ("a", 1), ("B", 2), ("c", 1)]
    table = engine._tables["t"]
    assert sorted(table._records) == [2, 3]
    assert {key: table._records[key].version for key in (2, 3)} == {2: 2, 3: 1}


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
    assert call(protocol.MSG_KV_GET, table="nope", key="x") == {"found": False}
    assert call(protocol.MSG_KV_PUT_IF_VERSION, table="nope", key="x", value="v",
                expected_version=1) == {"status": "conflict", "version": 0}
    assert "nope" not in datasource.engine._tables, "a read created a table"
    assert call(protocol.MSG_KV_PUT_IF_VERSION, key="x", value="v1",
                expected_version=0)["status"] == "conflict"
    assert call(protocol.MSG_KV_PUT_IF_VERSION, key="x", value="v1",
                expected_version=1) == {"status": "ok", "version": 2}
    assert call(protocol.MSG_KV_PUT, key="y", value="w") == {
        "status": "ok", "version": 1}
