"""Unit tests for the storage engine and record types."""

from repro.storage import Record, StorageEngine


def test_record_apply_write_bumps_version():
    record = Record(key="k", value=1)
    assert record.version == 0
    record.apply_write(2, writer="t1")
    assert record.value == 2
    assert record.version == 1
    assert record.last_writer == "t1"


def test_record_copy_is_independent():
    record = Record(key="k", value=1)
    clone = record.copy()
    record.apply_write(2, "t")
    assert clone.value == 1
    assert clone.version == 0


def test_engine_load_and_read():
    engine = StorageEngine()
    engine.load("usertable", "user1", {"balance": 100})
    snapshot = engine.read("t1", "usertable", "user1")
    assert snapshot.value == {"balance": 100}
    assert snapshot.version == 1


def test_engine_read_missing_key_returns_none():
    engine = StorageEngine()
    assert engine.read("t1", "usertable", "ghost") is None


def test_buffered_write_visible_only_to_writer():
    engine = StorageEngine()
    engine.load("t", "k", "old")
    engine.buffer_write("writer", "t", "k", "new")
    assert engine.read("writer", "t", "k").value == "new"
    assert engine.read("other", "t", "k").value == "old"


def test_commit_writes_installs_values_and_bumps_version():
    engine = StorageEngine()
    engine.load("t", "k", "old")
    engine.buffer_write("txn", "t", "k", "new")
    count = engine.commit_writes("txn")
    assert count == 1
    snapshot = engine.read("anyone", "t", "k")
    assert snapshot.value == "new"
    assert snapshot.version == 2
    assert not engine.has_pending_writes("txn")


def test_discard_writes_leaves_committed_state_untouched():
    engine = StorageEngine()
    engine.load("t", "k", "old")
    engine.buffer_write("txn", "t", "k", "new")
    dropped = engine.discard_writes("txn")
    assert dropped == 1
    assert engine.read("anyone", "t", "k").value == "old"


def test_commit_writes_for_unknown_txn_is_noop():
    engine = StorageEngine()
    assert engine.commit_writes("ghost") == 0


def test_table_names_and_record_count():
    engine = StorageEngine()
    engine.load("a", 1, "x")
    engine.load("a", 2, "y")
    engine.load("b", 1, "z")
    assert set(engine.table_names()) == {"a", "b"}
    assert engine.record_count() == 3


def test_write_set_snapshot():
    engine = StorageEngine()
    engine.buffer_write("t", "tab", "k1", 1)
    engine.buffer_write("t", "tab", "k2", 2)
    assert engine.write_set("t") == {("tab", "k1"): 1, ("tab", "k2"): 2}


def test_write_count_counts_without_copying():
    engine = StorageEngine()
    assert engine.write_count("t") == 0
    assert not engine.has_pending_writes("t")        # asking creates nothing
    engine.buffer_write("t", "tab", "k1", 1)
    engine.buffer_write("t", "tab", "k2", 2)
    engine.buffer_write("t", "tab", "k1", 3)         # same record again
    engine.buffer_write("t", "tab", "k3", 4, record_id=("tab", "k3"))
    assert engine.write_count("t") == len(engine.write_set("t")) == 3
    assert engine.read("t", "tab", "k3", record_id=("tab", "k3")).value == 4
    assert engine.commit_writes("t") == 3
    assert engine.write_count("t") == 0
    assert engine.read("other", "tab", "k1").value == 3


def test_table_contains_and_len():
    engine = StorageEngine()
    table = engine.create_table("t")
    table.put("k", 5)
    assert "k" in table
    assert len(table) == 1
    assert list(table.keys()) == ["k"]
