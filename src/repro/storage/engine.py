"""Key-value storage engine of a simulated data source.

A table answers reads from its preloaded rows and keeps a
:class:`~repro.storage.record.Record` only for each key written since (see
:class:`Table`).  Writes made by in-flight transactions are buffered per
transaction in a write set and only installed at commit time, which makes
rollback trivial and matches the "committed state only" view that strict 2PL
provides to readers.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import Any, Dict, Hashable, Iterator, Mapping, Optional, Tuple, Union

from repro.storage.record import Record, RecordSnapshot

RecordId = Tuple[str, Hashable]


class SharedRows(Mapping):
    """A read-only preloaded table in O(1) memory: every key maps to ``row``.

    ``keys`` is a ``range`` of ``int`` keys, or a grid: a tuple of ``range``
    axes whose keys are the tuples of their product, last axis fastest (the
    order nested loops would insert them in).  Only an exact ``int`` ever
    reaches ``range`` membership: ``"k" in range(...)`` is a linear scan.
    """

    __slots__ = ("_keys", "_row")

    def __init__(self, keys: Union[range, Tuple[range, ...]], row: Any):
        self._keys = keys
        self._row = row

    def __contains__(self, key: object) -> bool:
        keys = self._keys
        if type(keys) is range:
            return type(key) is int and key in keys
        return (type(key) is tuple and len(key) == len(keys)
                and all(type(part) is int and part in axis
                        for part, axis in zip(key, keys)))

    def __getitem__(self, key: Hashable) -> Any:
        if key in self:
            return self._row
        raise KeyError(key)

    def __iter__(self) -> Iterator[Hashable]:
        keys = self._keys
        return iter(keys) if type(keys) is range else product(*keys)

    def __len__(self) -> int:
        keys = self._keys
        return len(keys) if type(keys) is range else prod(map(len, keys))


class Table:
    """A named collection of versioned rows in two layers.

    ``_base`` is the preloaded ``{key: value}`` mapping — usually a
    :class:`SharedRows` view — adopted as is from the workload and possibly
    shared with other tables: it, and every value in it, is never mutated.
    ``_records`` is this table's private overlay of :class:`Record` objects
    and holds only the keys written since the load: :meth:`put` is the one
    place a record is created, and :meth:`read` answers a base row straight
    from the base, so a table costs O(rows written), not O(rows loaded or
    read).
    """

    def __init__(self, name: str):
        self.name = name
        self._base: Mapping[Hashable, Any] = {}
        self._records: Dict[Hashable, Record] = {}

    def read(self, key: Hashable) -> Optional[RecordSnapshot]:
        """The committed row of ``key``, or None if it does not exist.

        The overlay answers first, then the base, where a loaded row is
        version 1 (written by the loader).  Nothing is stored.
        """
        record = self._records.get(key)
        if record is not None:
            return RecordSnapshot(key, record.value, record.version)
        base = self._base
        if key in base:
            return RecordSnapshot(key, base[key], 1)
        return None

    def put(self, key: Hashable, value: Any) -> Record:
        """Insert or overwrite the committed value of ``key``."""
        record = self._records.get(key)
        if record is None:
            # A loaded row is version 1 and an absent one version 0, so the
            # first write installs version 2 or 1.
            record = self._records[key] = Record(
                key, version=1 if key in self._base else 0)
        record.value = value
        record.version += 1
        return record

    def restore(self, key: Hashable, value: Any, version: int) -> None:
        """Put back the row :meth:`read` showed at ``version``; at the loaded
        version (1 for a base row, 0 for none) the overlay record goes."""
        if version <= (key in self._base):
            del self._records[key]
        else:
            record = self._records[key]
            record.value, record.version = value, version


class StorageEngine:
    """All tables of one data source plus per-transaction write buffers."""

    def __init__(self, name: str = "engine"):
        self.name = name
        self._tables: Dict[str, Table] = {}
        self._write_sets: Dict[str, Dict[RecordId, Any]] = {}

    def create_table(self, table_name: str) -> Table:
        """Create a table if it does not exist and return it."""
        table = self._tables.get(table_name)
        if table is None:
            table = self._tables[table_name] = Table(table_name)
        return table

    # ------------------------------------------------------------------- loads
    def bulk_load(self, table_name: str, rows: Mapping[Hashable, Any]) -> None:
        """Load many committed rows at once (setup fast path).

        An empty table — the overwhelming case, since preloads target fresh
        clusters — adopts ``rows`` (a :class:`SharedRows` view or any other
        mapping) as its base layer without copying or building a single
        record, so the caller must never mutate ``rows`` or its values
        afterwards (see :class:`Table`).  Loading into a table that
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
    def read(self, txn_id: Optional[str], table_name: str, key: Hashable,
             record_id: Optional[RecordId] = None) -> Optional[RecordSnapshot]:
        """Read the latest value visible to ``txn_id``.

        A transaction sees its own buffered writes; otherwise the committed
        value (strict 2PL guarantees no other uncommitted writer).  A reader
        outside any transaction passes ``txn_id=None`` and sees committed
        state only.  A missing table reads like a missing key and is not
        created.  ``record_id`` is ``(table_name, key)`` for a caller that has
        it built.
        """
        table = self._tables.get(table_name)
        snapshot = table.read(key) if table is not None else None
        write_set = self._write_sets.get(txn_id)
        if write_set:
            record_id = record_id or (table_name, key)
            if record_id in write_set:
                return RecordSnapshot(key, write_set[record_id],
                                      snapshot.version if snapshot else 0)
        return snapshot

    # ------------------------------------------------------------------- writes
    def buffer_write(self, txn_id: str, table_name: str, key: Hashable, value: Any,
                     record_id: Optional[RecordId] = None) -> None:
        """Record an uncommitted write in the transaction's write set.

        ``record_id`` is ``(table_name, key)`` for a caller that has it built.
        """
        self._write_sets.setdefault(txn_id, {})[
            record_id or (table_name, key)] = value

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
            table.put(key, value)
        return len(write_set)

    def discard_writes(self, txn_id: str) -> int:
        """Drop all buffered writes of ``txn_id``; return how many were dropped."""
        return len(self._write_sets.pop(txn_id, {}))
