"""Write-ahead log of a simulated data source (and of the middleware).

Only the structure needed by the paper's recovery protocol (§V-A) is modelled:
append-only records for PREPARE / COMMIT / ABORT decisions plus a flush cost in
simulated milliseconds.  The recovery manager replays these records after a
crash to decide the fate of in-doubt transactions.

Like a real log, this one is **checkpointed**: once the log grows past twice
the retention horizon, records of *decided* transactions older than the
newest ``checkpoint_records`` entries are dropped (their outcome is durable in
the database itself).  Records of in-doubt transactions — a PREPARE with no
final decision — are always kept, whatever their age, so recovery never loses
the branches it exists for.  Open-system runs (10⁶+ transactions) rely on
this to keep log memory O(1) with run length; every query a recovery manager
issues (``prepared_xids``, ``last_decision`` on an in-doubt xid) is unaffected
because it only concerns undecided or recently decided transactions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, List, Mapping, Optional

#: Default retention horizon: how many of the newest records survive a
#: checkpoint verbatim.  Compaction triggers at twice this, so the amortized
#: cost per append is O(1) and the log never exceeds ~2x the horizon (plus
#: records of still-undecided transactions, bounded by the in-flight count).
#: Kept deliberately small: long-lived log records pin allocator arenas, so a
#: generous horizon shows up directly as resident-set growth on long runs.
DEFAULT_CHECKPOINT_RECORDS = 1024

#: The payload of every record appended without one (most COMMIT/ABORT
#: records): shared and read-only instead of one empty dict per record.
_NO_PAYLOAD: Mapping[str, Any] = MappingProxyType({})


class LogRecordType(enum.Enum):
    """The kinds of decisions persisted to the log."""

    PREPARE = "prepare"
    COMMIT = "commit"
    ABORT = "abort"


@dataclass(slots=True)
class WALRecord:
    """One persisted log entry."""

    record_type: LogRecordType
    xid: str
    timestamp: float
    #: Stored as handed to :meth:`WriteAheadLog.append` — not copied.
    payload: Mapping[str, Any] = field(default_factory=lambda: _NO_PAYLOAD)


class WriteAheadLog:
    """Append-only durable log with a fixed flush latency and checkpointing."""

    def __init__(self, flush_cost_ms: float = 1.0,
                 checkpoint_records: Optional[int] = DEFAULT_CHECKPOINT_RECORDS):
        if checkpoint_records is not None and checkpoint_records < 1:
            raise ValueError("checkpoint_records must be >= 1 (or None)")
        self.flush_cost_ms = flush_cost_ms
        self.checkpoint_records = checkpoint_records
        self.checkpoints = 0
        self._records: List[WALRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def append(self, record_type: LogRecordType, xid: str, timestamp: float,
               payload: Optional[Mapping[str, Any]] = None) -> WALRecord:
        """Append a record (the caller is responsible for charging flush time).

        ``payload`` is kept as is: the caller must not mutate it afterwards.
        """
        record = WALRecord(record_type, xid, timestamp,
                           _NO_PAYLOAD if payload is None else payload)
        self._records.append(record)
        if (self.checkpoint_records is not None
                and len(self._records) >= 2 * self.checkpoint_records):
            self.checkpoint()
        return record

    def checkpoint(self) -> int:
        """Drop decided-transaction records older than the retention horizon.

        The newest ``checkpoint_records`` entries are kept verbatim; from the
        older prefix only records of transactions *without* a final
        COMMIT/ABORT anywhere in the log survive (in-doubt branches).  Record
        order is preserved.  Returns the number of records dropped.  Purely a
        memory operation — no simulated time is charged and no RNG is drawn,
        so checkpointing can never perturb a run.
        """
        records = self._records
        horizon = (len(records) - self.checkpoint_records
                   if self.checkpoint_records is not None else 0)
        if horizon <= 0:
            return 0
        decided = {r.xid for r in records
                   if r.record_type is not LogRecordType.PREPARE}
        kept = [r for r in records[:horizon] if r.xid not in decided]
        kept.extend(records[horizon:])
        dropped = len(records) - len(kept)
        self._records = kept
        self.checkpoints += 1
        return dropped

    def records(self) -> List[WALRecord]:
        """All records in append order."""
        return list(self._records)

    def records_for(self, xid: str) -> List[WALRecord]:
        """All records belonging to transaction ``xid``."""
        return [r for r in self._records if r.xid == xid]

    def last_decision(self, xid: str) -> Optional[LogRecordType]:
        """The final COMMIT/ABORT decision recorded for ``xid``, if any."""
        for record in reversed(self._records):
            if record.xid == xid and record.record_type in (
                    LogRecordType.COMMIT, LogRecordType.ABORT):
                return record.record_type
        return None

    def prepared_xids(self) -> List[str]:
        """Xids with a PREPARE record but no final decision (in-doubt)."""
        decided = {r.xid for r in self._records
                   if r.record_type in (LogRecordType.COMMIT, LogRecordType.ABORT)}
        seen: List[str] = []
        for record in self._records:
            if (record.record_type is LogRecordType.PREPARE
                    and record.xid not in decided and record.xid not in seen):
                seen.append(record.xid)
        return seen

    def truncate(self) -> None:
        """Discard all records (only used to model log archiving in tests)."""
        self._records.clear()
