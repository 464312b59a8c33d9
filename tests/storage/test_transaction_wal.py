"""Unit tests for the XA state machine and the write-ahead log."""

import pytest

from repro.storage import LocalTransaction, LogRecordType, TxnState, WriteAheadLog
from repro.storage.transaction import IllegalTransitionError


def make_txn():
    return LocalTransaction(xid="x1", started_at=0.0)


def test_normal_commit_path():
    txn = make_txn()
    txn.mark_end()
    assert txn.state is TxnState.IDLE
    txn.mark_prepared()
    assert txn.state is TxnState.PREPARED
    txn.mark_committed(now=10.0)
    assert txn.state is TxnState.COMMITTED
    assert txn.is_finished


def test_prepare_directly_from_active_allowed():
    """The decentralized prepare may fold END+PREPARE together."""
    txn = make_txn()
    txn.mark_prepared()
    assert txn.state is TxnState.PREPARED


def test_commit_without_prepare_rejected():
    txn = make_txn()
    with pytest.raises(IllegalTransitionError):
        txn.mark_committed(now=1.0)


def test_one_phase_commit_from_active():
    txn = make_txn()
    txn.mark_committed_one_phase(now=5.0)
    assert txn.state is TxnState.COMMITTED


def test_rollback_allowed_from_prepared_but_not_committed():
    txn = make_txn()
    txn.mark_prepared()
    txn.mark_aborted(now=3.0)
    assert txn.state is TxnState.ABORTED

    committed = make_txn()
    committed.mark_committed_one_phase(now=1.0)
    with pytest.raises(IllegalTransitionError):
        committed.mark_aborted(now=2.0)


def test_decision_cannot_reverse_after_commit():
    """AC2: a process cannot reverse its decision."""
    txn = make_txn()
    txn.mark_prepared()
    txn.mark_committed(now=1.0)
    with pytest.raises(IllegalTransitionError):
        txn.mark_aborted(now=2.0)
    with pytest.raises(IllegalTransitionError):
        txn.mark_prepared()


def test_lock_contention_span_computed_from_first_lock_to_finish():
    txn = make_txn()
    assert txn.lock_contention_span_ms is None
    txn.first_lock_at = 10.0
    txn.mark_prepared()
    txn.mark_committed(now=210.0)
    assert txn.lock_contention_span_ms == pytest.approx(200.0)


def test_wal_append_and_query():
    wal = WriteAheadLog()
    wal.append(LogRecordType.COMMIT, "x1", 2.0)
    wal.append(LogRecordType.ABORT, "x2", 3.0)
    assert len(wal) == 2
    assert wal.last_decision("x1") is LogRecordType.COMMIT
    assert wal.last_decision("x3") is None
    assert [r.xid for r in wal.records()] == ["x1", "x2"]


def test_wal_abort_decision_recorded():
    wal = WriteAheadLog()
    wal.append(LogRecordType.ABORT, "x", 2.0)
    assert wal.last_decision("x") is LogRecordType.ABORT


# ---------------------------------------------------------------- checkpointing
def test_wal_checkpoint_drops_old_decided_records():
    wal = WriteAheadLog(checkpoint_records=4)
    for i in range(12):
        wal.append(LogRecordType.COMMIT, f"t{i}", float(i))
        # Auto-checkpointing keeps the log under twice the horizon throughout.
        assert len(wal) < 2 * 4
    assert wal.checkpoints == 2
    # The newest records survive, in order; every older one is gone.
    assert [r.xid for r in wal.records()] == ["t8", "t9", "t10", "t11"]
    assert wal.last_decision("t11") is LogRecordType.COMMIT
    assert wal.last_decision("t0") is None


def test_wal_checkpoint_is_explicit_and_counts_drops():
    wal = WriteAheadLog(checkpoint_records=1000)  # never reached below
    for i in range(200):
        wal.append(LogRecordType.ABORT, f"t{i}", float(i))
    assert len(wal) == 200
    assert wal.checkpoint() == 0  # nothing older than the horizon: no-op
    wal.checkpoint_records = 10
    dropped = wal.checkpoint()
    assert dropped == 190
    assert len(wal) == 10


def test_wal_checkpoint_rejects_non_positive_horizon():
    with pytest.raises(ValueError):
        WriteAheadLog(checkpoint_records=0)
