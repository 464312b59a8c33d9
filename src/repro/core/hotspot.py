"""Hotspot footprint: per-record contention statistics (§IV-C).

The geo-scheduler keeps, for each hot record ``r``:

* ``w_lat`` — the weighted average latency of subtransactions completing
  operations on ``r`` (Eq. 4);
* ``t_cnt`` — total number of transactions that accessed ``r``;
* ``c_cnt`` — number of committed transactions that accessed ``r``;
* ``a_cnt`` — number of transactions currently accessing ``r``.

Records are indexed by an AVL tree for O(log n) point/range lookups and an LRU
list bounds memory by evicting cold records, exactly as described in the paper.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.core.avl import AVLTree

RecordId = Tuple[str, Hashable]

#: Approximate per-entry memory footprint (four floats/counters plus key text);
#: used only for the Figure 6b memory-proxy accounting.
ENTRY_BYTES = 96


def _sortable(record_id: RecordId) -> Tuple[str, str]:
    """Canonical, totally-ordered representation of a record id for the AVL index."""
    table, key = record_id
    return (table, f"{type(key).__name__}:{key!r}")


@dataclass(slots=True)
class HotspotEntry:
    """Statistics of one hot record."""

    record_id: RecordId
    w_lat: float = 0.0
    t_cnt: int = 0
    c_cnt: int = 0
    a_cnt: int = 0
    #: Recency stamp: bumped on every touch, so ascending stamps are LRU order.
    stamp: int = 0

    @property
    def success_ratio(self) -> float:
        """Fraction of past accesses that committed (1.0 when unknown)."""
        if self.t_cnt == 0:
            return 1.0
        return self.c_cnt / self.t_cnt


class HotspotFootprint:
    """Bounded, LRU-evicted statistics over hot records."""

    def __init__(self, capacity: int = 4096, alpha: float = 0.7):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        self.capacity = capacity
        self.alpha = alpha
        self._entries: "OrderedDict[RecordId, HotspotEntry]" = OrderedDict()
        # Eviction candidates: a min-heap of ``(stamp, record id)``, one item
        # per idle entry and touch, cleaned lazily.  An item is live only
        # while its entry exists, is idle (``a_cnt == 0``) and still carries
        # that stamp, so the smallest live item is the least recently used
        # idle record — the victim a scan from the LRU head would pick.
        self._idle: List[Tuple[int, RecordId]] = []
        self._stamp = 0
        # The AVL index only serves range lookups, which no hot path issues;
        # it is rebuilt lazily so the (frequent) entry churn from LRU misses
        # does not pay tree maintenance on every access.
        self._index = AVLTree()
        self._index_dirty = False
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, record_id: RecordId) -> bool:
        return record_id in self._entries

    # ----------------------------------------------------------------- lookup
    def entry(self, record_id: RecordId) -> Optional[HotspotEntry]:
        """The entry for a record, or None if it is not tracked."""
        return self._entries.get(record_id)

    def get_or_create(self, record_id: RecordId) -> HotspotEntry:
        """The entry for a record, creating (and possibly evicting) as needed."""
        entry = self._entries.get(record_id)
        self._stamp = stamp = self._stamp + 1
        if entry is not None:
            self._entries.move_to_end(record_id)
            entry.stamp = stamp
            if entry.a_cnt == 0:
                self._push_idle(entry)
            return entry
        entry = HotspotEntry(record_id=record_id, stamp=stamp)
        self._entries[record_id] = entry
        self._push_idle(entry)
        self._index_dirty = True
        self._evict_if_needed()
        return entry

    def _push_idle(self, entry: HotspotEntry) -> None:
        """Offer an idle entry, at its current stamp, as an eviction candidate."""
        idle = self._idle
        heappush(idle, (entry.stamp, entry.record_id))
        if len(idle) > 8 * self.capacity:
            # Mostly stale items (re-touched or busy records): start over.
            idle[:] = [(live.stamp, live.record_id)
                       for live in self._entries.values() if live.a_cnt == 0]
            heapify(idle)

    def _evict_if_needed(self) -> None:
        entries = self._entries
        idle = self._idle
        while len(entries) > self.capacity:
            # Prefer the least-recently-used record that is not currently
            # being accessed; fall back to strict LRU if all are in use.
            victim_id = None
            while idle:
                stamp, record_id = heappop(idle)
                entry = entries.get(record_id)
                if entry is not None and entry.a_cnt == 0 and entry.stamp == stamp:
                    victim_id = record_id
                    break
            if victim_id is None:
                victim_id = next(iter(entries))
            entries.pop(victim_id)
            self._index_dirty = True
            self.evictions += 1

    def _rebuilt_index(self) -> AVLTree:
        """The AVL index over the current entries, rebuilding if stale."""
        if self._index_dirty:
            index = AVLTree()
            for record_id in self._entries:
                index.insert(_sortable(record_id), record_id)
            self._index = index
            self._index_dirty = False
        return self._index

    def range_lookup(self, table: str) -> List[RecordId]:
        """All tracked records of ``table`` (via the AVL index range query)."""
        low = (table, "")
        high = (table, "￿")
        return [record_id
                for _key, record_id in self._rebuilt_index().range_query(low, high)]

    # -------------------------------------------------------------- accounting
    def on_access_start(self, record_ids: Iterable[RecordId]) -> None:
        """A transaction starts accessing these records (t_cnt, a_cnt)."""
        for record_id in record_ids:
            entry = self.get_or_create(record_id)
            entry.t_cnt += 1
            entry.a_cnt += 1

    def on_access_end(self, record_ids: Iterable[RecordId], committed: bool) -> None:
        """A transaction finished accessing these records (a_cnt, c_cnt)."""
        for record_id in record_ids:
            entry = self._entries.get(record_id)
            if entry is None:
                continue
            if entry.a_cnt > 0:
                entry.a_cnt -= 1
                if entry.a_cnt == 0:
                    self._push_idle(entry)
            if committed:
                entry.c_cnt += 1

    def update_latency(self, record_ids: Iterable[RecordId],
                       local_execution_ms: float) -> None:
        """Fold a subtransaction's observed local execution latency into w_lat.

        Implements Eq. (4): each record gets a share of ``LEL(Tij)``
        proportional to its current ``w_lat`` relative to the other records the
        subtransaction accessed (uniform shares while all weights are zero).
        """
        if local_execution_ms < 0:
            return
        entries = [self.get_or_create(record_id) for record_id in record_ids]
        if not entries:
            return
        alpha = self.alpha
        total_weight = sum(entry.w_lat for entry in entries)
        for entry in entries:
            if total_weight > 0:
                share = entry.w_lat / total_weight
            else:
                share = 1.0 / len(entries)
            observed = local_execution_ms * share
            entry.w_lat = alpha * entry.w_lat + (1.0 - alpha) * observed

    # -------------------------------------------------------------- estimation
    def forecast_local_latency(self, record_ids: Iterable[RecordId]) -> float:
        """dLEL per Eq. (5): the sum of w_lat over the records to be accessed."""
        total = 0.0
        for record_id in record_ids:
            entry = self._entries.get(record_id)
            if entry is not None:
                total += entry.w_lat
        return total

    def success_probability(self, record_ids: Iterable[RecordId]) -> float:
        """Probability the transaction acquires all its locks, per Eq. (9).

        ``Pr(abort) = 1 - prod (c_cnt/t_cnt)^max(a_cnt - 1, 0)``; this method
        returns the product (the success probability).
        """
        probability = 1.0
        for record_id in record_ids:
            entry = self._entries.get(record_id)
            if entry is None or entry.t_cnt == 0:
                continue
            exponent = max(entry.a_cnt - 1, 0)
            if exponent == 0:
                continue
            probability *= entry.success_ratio ** exponent
        return probability

    def abort_probability(self, record_ids: Iterable[RecordId]) -> float:
        """Pr(Ti) of Eq. (9)."""
        return 1.0 - self.success_probability(record_ids)

    # --------------------------------------------------------------- reporting
    def memory_bytes(self) -> int:
        """Approximate memory used by the footprint (Figure 6b proxy)."""
        return len(self._entries) * ENTRY_BYTES

    def hottest(self, count: int = 10) -> List[HotspotEntry]:
        """The ``count`` records with the highest access counts."""
        return sorted(self._entries.values(), key=lambda e: e.t_cnt, reverse=True)[:count]

    def snapshot(self) -> Dict[RecordId, HotspotEntry]:
        """A shallow copy of the tracked entries (for inspection/tests)."""
        return dict(self._entries)
