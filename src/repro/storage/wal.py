"""Write-ahead decision log of a middleware coordinator.

Only the structure needed by the paper's recovery protocol (§V-A) is modelled:
append-only records of the global COMMIT / ABORT decisions a coordinator
flushes before dispatching them.  Appending costs no simulated time: the
coordinator pays the flush (``COSTS.log_flush_ms``).  After a middleware
crash the recovery manager reads this log to decide the fate of every
in-doubt branch the data sources list; a branch whose transaction has no
decision here is presumed aborted.  (A data source keeps no log of its own:
its PREPARED branches survive the crash in its branch table.)

Like a real log, this one is **checkpointed**: once the log grows to twice
the retention horizon, every record older than the newest
``checkpoint_records`` entries is dropped (each one is a decision whose
outcome is durable in the database itself).  Open-system runs (10⁶+
transactions) rely on this to keep log memory O(1) with run length; every
query a recovery manager issues (``last_decision`` on an in-doubt xid) is
unaffected because it only concerns recently decided transactions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

#: Default retention horizon: how many of the newest records survive a
#: checkpoint.  Compaction triggers at twice this, so the amortized cost per
#: append is O(1) and the log never reaches 2x the horizon.
#: Kept deliberately small: long-lived log records pin allocator arenas, so a
#: generous horizon shows up directly as resident-set growth on long runs.
DEFAULT_CHECKPOINT_RECORDS = 1024


class LogRecordType(enum.Enum):
    """The kinds of decisions persisted to the log."""

    #: No coordinator logs a prepare; only perf_ledger/micro.py
    #: (``storage.wal_append_ns``) appends one.
    PREPARE = "prepare"
    COMMIT = "commit"
    ABORT = "abort"


@dataclass(slots=True)
class WALRecord:
    """One persisted log entry."""

    record_type: LogRecordType
    xid: str
    timestamp: float


class WriteAheadLog:
    """Append-only durable log with checkpointing; it charges no time itself."""

    def __init__(self, checkpoint_records: int = DEFAULT_CHECKPOINT_RECORDS):
        if checkpoint_records < 1:
            raise ValueError("checkpoint_records must be >= 1")
        self.checkpoint_records = checkpoint_records
        self.checkpoints = 0
        self._records: List[WALRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def append(self, record_type: LogRecordType, xid: str,
               timestamp: float) -> WALRecord:
        """Append a record (the caller is responsible for charging flush time)."""
        record = WALRecord(record_type, xid, timestamp)
        self._records.append(record)
        if len(self._records) >= 2 * self.checkpoint_records:
            self.checkpoint()
        return record

    def checkpoint(self) -> int:
        """Drop every record older than the retention horizon.

        The newest ``checkpoint_records`` entries are kept, in order.  Returns
        the number of records dropped.  Purely a memory operation — no
        simulated time is charged and no RNG is drawn, so checkpointing can
        never perturb a run.
        """
        horizon = len(self._records) - self.checkpoint_records
        if horizon <= 0:
            return 0
        del self._records[:horizon]
        self.checkpoints += 1
        return horizon

    def records(self) -> List[WALRecord]:
        """All records in append order."""
        return list(self._records)

    def last_decision(self, xid: str) -> Optional[LogRecordType]:
        """The final COMMIT/ABORT decision recorded for ``xid``, if any."""
        for record in reversed(self._records):
            if record.xid == xid and record.record_type in (
                    LogRecordType.COMMIT, LogRecordType.ABORT):
                return record.record_type
        return None
