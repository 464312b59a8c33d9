"""Unit tests for the storage engine and record types."""

from repro.storage import StorageEngine
from repro.storage.record import RecordSnapshot


def test_table_put_bumps_version():
    engine = StorageEngine()
    table = engine.create_table("t")
    record = table.put("k", 1)
    assert (record.value, record.version) == (1, 1)
    assert table.put("k", 2) is record
    assert (record.value, record.version) == (2, 2)


def test_engine_load_and_read():
    engine = StorageEngine()
    engine.bulk_load("usertable", {"user1": {"balance": 100}})
    snapshot = engine.read("t1", "usertable", "user1")
    assert snapshot.value == {"balance": 100}
    assert snapshot.version == 1


def test_engine_read_missing_key_returns_none():
    engine = StorageEngine()
    assert engine.read("t1", "usertable", "ghost") is None


def test_buffered_write_visible_only_to_writer():
    engine = StorageEngine()
    engine.bulk_load("t", {"k": "old"})
    engine.buffer_write("writer", "t", "k", "new")
    assert engine.read("writer", "t", "k").value == "new"
    assert engine.read("other", "t", "k").value == "old"
    assert engine.read(None, "t", "k").value == "old"


def test_commit_writes_installs_values_and_bumps_version():
    engine = StorageEngine()
    engine.bulk_load("t", {"k": "old"})
    engine.buffer_write("txn", "t", "k", "new")
    count = engine.commit_writes("txn")
    assert count == 1
    snapshot = engine.read("anyone", "t", "k")
    assert snapshot.value == "new"
    assert snapshot.version == 2
    assert engine.write_count("txn") == 0
    assert "txn" not in engine._write_sets


def test_discard_writes_leaves_committed_state_untouched():
    engine = StorageEngine()
    engine.bulk_load("t", {"k": "old"})
    engine.buffer_write("txn", "t", "k", "new")
    dropped = engine.discard_writes("txn")
    assert dropped == 1
    assert engine.read("anyone", "t", "k").value == "old"


def test_commit_writes_for_unknown_txn_is_noop():
    engine = StorageEngine()
    assert engine.commit_writes("ghost") == 0


def test_write_set_snapshot():
    # A transaction reads its own buffered value at the committed version:
    # the base row's 1, or 0 for a key that does not exist yet.
    engine = StorageEngine()
    engine.bulk_load("tab", {"k1": "a"})
    engine.buffer_write("t", "tab", "k1", 1)
    engine.buffer_write("t", "tab", "k2", 2)
    assert [(s.value, s.version) for s in (engine.read("t", "tab", "k1"),
                                           engine.read("t", "tab", "k2"))] == [
        (1, 1), (2, 0)]
    assert engine.read("other", "tab", "k2") is None


def test_write_count_counts_without_copying():
    engine = StorageEngine()
    assert engine.write_count("t") == 0
    assert not engine._write_sets                     # asking creates nothing
    engine.buffer_write("t", "tab", "k1", 1)
    engine.buffer_write("t", "tab", "k2", 2)
    engine.buffer_write("t", "tab", "k1", 3)         # same record again
    engine.buffer_write("t", "tab", "k3", 4, record_id=("tab", "k3"))
    assert engine.write_count("t") == 3
    assert engine.read("t", "tab", "k3", record_id=("tab", "k3")).value == 4
    assert engine.commit_writes("t") == 3
    assert engine.write_count("t") == 0
    assert engine.read("other", "tab", "k1").value == 3


def test_put_into_a_fresh_table_creates_its_only_record():
    engine = StorageEngine()
    table = engine.create_table("t")
    assert engine.create_table("t") is table
    table.put("k", 5)
    assert list(table._records) == ["k"]
    assert engine.read(None, "t", "k").version == 1


def test_table_restore_puts_back_what_read_showed():
    engine = StorageEngine()
    engine.bulk_load("t", {"a": 1})
    table = engine.create_table("t")
    table.put("b", 1)
    table.put("b", 2)
    table.restore("b", 1, 1)
    assert engine.read(None, "t", "b") == RecordSnapshot("b", 1, 1)
    table.restore("b", None, 0)                 # the row did not exist
    assert engine.read(None, "t", "b") is None
    table.put("a", 5)
    table.restore("a", 1, 1)                    # the loaded row answers again
    assert engine.read(None, "t", "a") == RecordSnapshot("a", 1, 1)
    assert not table._records
