"""Key-value storage engine of a simulated data source.

Tables map keys to :class:`~repro.storage.record.Record` objects, layered
copy-on-write over the preloaded rows (see :class:`Table`).  Writes made
by in-flight transactions are buffered per transaction in a write set and only
installed at commit time, which makes rollback trivial and matches the
"committed state only" view that strict 2PL provides to readers.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Mapping, Optional, Tuple

from repro.storage.record import Record, RecordSnapshot

RecordId = Tuple[str, Hashable]


class Table:
    """A named collection of records in two layers.

    ``_base`` is the preloaded ``{key: value}`` mapping, adopted as is from
    the workload and possibly shared with other tables and later clusters in
    this process: it — and every value in it — is never mutated.  ``_records``
    is this table's private overlay of :class:`Record` objects; a base row is
    materialised into it (``version=1``, written by ``"loader"``) the first
    time it is touched, so a table costs O(rows touched), not O(rows loaded).
    """

    def __init__(self, name: str):
        self.name = name
        self._base: Mapping[Hashable, Any] = {}
        self._records: Dict[Hashable, Record] = {}

    def __len__(self) -> int:
        base = self._base
        return len(base) + sum(1 for key in self._records if key not in base)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._records or key in self._base

    def get(self, key: Hashable) -> Optional[Record]:
        """The record for ``key`` or None."""
        record = self._records.get(key)
        if record is None and key in self._base:
            record = self._records[key] = Record(
                key=key, value=self._base[key], version=1, last_writer="loader")
        return record

    def put(self, key: Hashable, value: Any, writer: str = "loader") -> Record:
        """Insert or overwrite the committed value of ``key``."""
        # Overlay hit first: ``get`` is only needed for the first touch.
        record = self._records.get(key) or self.get(key)
        if record is None:
            record = self._records[key] = Record(key=key)
        # Record.apply_write, inlined: commits and loads into a non-empty
        # table funnel through here, making this the storage engine's hottest
        # statement sequence.
        record.value = value
        record.version += 1
        record.last_writer = writer
        return record

    def keys(self) -> List[Hashable]:
        """All keys in the table, loaded rows first (a snapshot: reading rows
        while iterating it may materialise records)."""
        base = self._base
        return [*base, *(key for key in self._records if key not in base)]


class StorageEngine:
    """All tables of one data source plus per-transaction write buffers."""

    def __init__(self, name: str = "engine"):
        self.name = name
        self._tables: Dict[str, Table] = {}
        self._write_sets: Dict[str, Dict[RecordId, Any]] = {}

    # ------------------------------------------------------------------ schema
    def create_table(self, table_name: str) -> Table:
        """Create a table if it does not exist and return it."""
        if table_name not in self._tables:
            self._tables[table_name] = Table(table_name)
        return self._tables[table_name]

    def table(self, table_name: str) -> Table:
        """Return an existing table, creating it lazily for convenience."""
        return self.create_table(table_name)

    def table_names(self) -> List[str]:
        """Names of all tables."""
        return list(self._tables)

    def record_count(self) -> int:
        """Total number of committed records across tables."""
        return sum(len(table) for table in self._tables.values())

    # ------------------------------------------------------------------- loads
    def load(self, table_name: str, key: Hashable, value: Any) -> None:
        """Bulk-load a committed record (no locking, used during setup)."""
        self.create_table(table_name).put(key, value)

    def bulk_load(self, table_name: str, rows: Mapping[Hashable, Any]) -> None:
        """Load many committed rows at once (setup fast path).

        An empty table — the overwhelming case, since preloads target fresh
        clusters — adopts ``rows`` as its base layer without copying or
        building a single record, so the caller must never mutate ``rows`` or
        its values afterwards (see :class:`Table`).  Loading into a table that
        already has rows falls back to one :meth:`Table.put` per row, which
        preserves reload semantics (version bump for existing keys).
        """
        table = self.create_table(table_name)
        if not table._base and not table._records:
            table._base = rows
            return
        for key, value in rows.items():
            table.put(key, value)

    # -------------------------------------------------------------------- reads
    def read(self, txn_id: str, table_name: str, key: Hashable,
             record_id: Optional[RecordId] = None) -> Optional[RecordSnapshot]:
        """Read the latest value visible to ``txn_id``.

        A transaction sees its own buffered writes; otherwise the committed
        record value (strict 2PL guarantees no other uncommitted writer).
        ``record_id`` is ``(table_name, key)`` for a caller that has it built.
        """
        table = self._tables.get(table_name)
        record = None
        if table is not None:
            record = table._records.get(key) or table.get(key)
        write_set = self._write_sets.get(txn_id)
        if write_set:
            record_id = record_id or (table_name, key)
            if record_id in write_set:
                return RecordSnapshot(key=key, value=write_set[record_id],
                                      version=record.version if record else 0)
        if record is None:
            return None
        return RecordSnapshot(key=record.key, value=record.value,
                              version=record.version)

    # ------------------------------------------------------------------- writes
    def buffer_write(self, txn_id: str, table_name: str, key: Hashable, value: Any,
                     record_id: Optional[RecordId] = None) -> None:
        """Record an uncommitted write in the transaction's write set.

        ``record_id`` is ``(table_name, key)`` for a caller that has it built.
        """
        self._write_sets.setdefault(txn_id, {})[
            record_id or (table_name, key)] = value

    def write_set(self, txn_id: str) -> Dict[RecordId, Any]:
        """A copy of the buffered writes of ``txn_id`` (may be empty)."""
        return dict(self._write_sets.get(txn_id, {}))

    def write_count(self, txn_id: str) -> int:
        """How many records ``txn_id`` has buffered writes for."""
        return len(self._write_sets.get(txn_id, ()))

    def commit_writes(self, txn_id: str) -> int:
        """Install all buffered writes of ``txn_id``; return how many."""
        write_set = self._write_sets.pop(txn_id, None)
        if not write_set:
            return 0
        tables = self._tables
        for (table_name, key), value in write_set.items():
            table = tables.get(table_name)
            if table is None:
                table = self.create_table(table_name)
            table.put(key, value, writer=txn_id)
        return len(write_set)

    def discard_writes(self, txn_id: str) -> int:
        """Drop all buffered writes of ``txn_id``; return how many were dropped."""
        return len(self._write_sets.pop(txn_id, {}))

    def has_pending_writes(self, txn_id: str) -> bool:
        """True if the transaction still has a buffered write set."""
        return txn_id in self._write_sets
