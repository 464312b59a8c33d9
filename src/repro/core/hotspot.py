"""Hotspot footprint: per-record contention statistics (§IV-C).

The geo-scheduler keeps, for each hot record ``r``:

* ``w_lat`` — the weighted average latency of subtransactions completing
  operations on ``r`` (Eq. 4);
* ``t_cnt`` — total number of transactions that accessed ``r``;
* ``c_cnt`` — number of committed transactions that accessed ``r``;
* ``a_cnt`` — number of transactions currently accessing ``r``.

The paper indexes the records with an AVL tree and bounds memory with an LRU
list.  Here a dict replaces the tree: every reader asks for one record by id,
which a dict answers in O(1), and nothing ever asks for the key range a tree
is built for.  Each entry's ``stamp``, renewed on every touch, replaces the
list: the least recently used record is the one with the smallest stamp.  A
min-heap of ``(stamp, record id)`` finds the least recently used *idle* record
(``a_cnt == 0``), the one eviction prefers; it receives an entry only when a
call leaves that entry idle.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

RecordId = Tuple[str, Hashable]

#: Approximate per-entry memory footprint (four floats/counters plus key text);
#: used only for the Figure 6b memory-proxy accounting.
ENTRY_BYTES = 96


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


class HotspotFootprint:
    """Bounded, LRU-evicted statistics over hot records."""

    def __init__(self, capacity: int = 4096, alpha: float = 0.7):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        self.capacity = capacity
        self.alpha = alpha
        self._entries: Dict[RecordId, HotspotEntry] = {}
        # Eviction candidates: ``(stamp, record id)`` pushed when a call leaves
        # an entry idle, cleaned lazily.  An item is live only while its entry
        # exists, is idle and still carries that stamp, so the smallest live
        # item is the least recently used idle record.
        self._idle: List[Tuple[int, RecordId]] = []
        self._stamp = 0
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
        entry = self._touch(record_id)
        if entry.a_cnt == 0 and record_id in self._entries:
            self._push_idle(entry)
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

    def _touch(self, record_id: RecordId) -> HotspotEntry:
        """The entry for a record with a fresh stamp; offers it to nobody."""
        self._stamp = stamp = self._stamp + 1
        entries = self._entries
        entry = entries.get(record_id)
        if entry is not None:
            entry.stamp = stamp
            return entry
        entry = entries[record_id] = HotspotEntry(record_id, stamp=stamp)
        if len(entries) > self.capacity:
            self._evict(record_id)
        return entry

    def _evict(self, newcomer: RecordId) -> None:
        """Shrink to capacity: the least recently used idle record goes first,
        the newcomer (idle, but the most recent) when every other record is
        busy, and the least recently used record when all are busy — which
        only a ``capacity`` lowered on a live footprint can cause."""
        entries = self._entries
        idle = self._idle
        while len(entries) > self.capacity:
            while idle:
                stamp, victim = heappop(idle)
                entry = entries.get(victim)
                if entry is not None and entry.a_cnt == 0 and entry.stamp == stamp:
                    break
            else:
                victim = (newcomer if newcomer in entries else
                          min(entries.values(), key=lambda e: e.stamp).record_id)
            del entries[victim]
            self.evictions += 1

    # -------------------------------------------------------------- accounting
    def on_access_start(self, record_ids: Iterable[RecordId]) -> None:
        """A transaction starts accessing these records (t_cnt, a_cnt).

        Every record it touches is busy when it returns, so it offers none as
        an eviction candidate.
        """
        touch = self._touch
        for record_id in record_ids:
            entry = touch(record_id)
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
        returns the product (the success probability).  A record with at most
        one accessor, or never accessed, contributes a factor of 1.
        """
        probability = 1.0
        for record_id in record_ids:
            entry = self._entries.get(record_id)
            if entry is not None and entry.a_cnt > 1 and entry.t_cnt:
                probability *= (entry.c_cnt / entry.t_cnt) ** (entry.a_cnt - 1)
        return probability

    def abort_probability(self, record_ids: Iterable[RecordId]) -> float:
        """Pr(Ti) of Eq. (9)."""
        return 1.0 - self.success_probability(record_ids)

    # --------------------------------------------------------------- reporting
    def memory_bytes(self) -> int:
        """Approximate memory used by the footprint (Figure 6b proxy)."""
        return len(self._entries) * ENTRY_BYTES

    def hottest(self, count: int = 10) -> List[HotspotEntry]:
        """The ``count`` records with the highest access counts (ties: least
        recently used first)."""
        return sorted(self._entries.values(),
                      key=lambda e: (-e.t_cnt, e.stamp))[:count]
