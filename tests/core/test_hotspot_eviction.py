"""The footprint's eviction heap picks the victim a scan from the LRU head picks.

``HotspotFootprint`` finds the least-recently-used idle record through a
lazily-cleaned min-heap; the scan it replaced walked the LRU order past every
in-flight record on each miss.  The scan is kept here as the reference.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core import HotspotFootprint


class ScanFootprint(HotspotFootprint):
    """The reference: evict the first idle record in LRU order, by scanning."""

    def _evict_if_needed(self) -> None:
        while len(self._entries) > self.capacity:
            victim_id = None
            for record_id, entry in self._entries.items():
                if entry.a_cnt == 0:
                    victim_id = record_id
                    break
            if victim_id is None:
                victim_id = next(iter(self._entries))
            self._entries.pop(victim_id)
            self._index_dirty = True
            self.evictions += 1


RECORDS = st.sampled_from([("t", index) for index in range(8)])
OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("touch"), RECORDS),
    st.tuples(st.just("start"), st.lists(RECORDS, min_size=1, max_size=4)),
    st.tuples(st.just("end"), st.lists(RECORDS, min_size=1, max_size=4),
              st.booleans()),
    st.tuples(st.just("latency"), st.lists(RECORDS, min_size=1, max_size=3)),
), max_size=120)


def apply(footprint, operation):
    kind, records = operation[0], operation[1]
    if kind == "touch":
        footprint.get_or_create(records)
    elif kind == "start":
        footprint.on_access_start(records)
    elif kind == "end":
        footprint.on_access_end(records, committed=operation[2])
    else:
        footprint.update_latency(records, 5.0)


def tracked(footprint):
    """Everything eviction decides: who is tracked, in which LRU order."""
    return ([(record_id, entry.t_cnt, entry.c_cnt, entry.a_cnt)
             for record_id, entry in footprint._entries.items()],
            footprint.evictions)


@given(capacity=st.integers(min_value=1, max_value=5), operations=OPERATIONS)
@settings(max_examples=300, deadline=None)
def test_heap_evicts_exactly_what_the_scan_evicts(capacity, operations):
    heap, scan = HotspotFootprint(capacity=capacity), ScanFootprint(capacity=capacity)
    for operation in operations:
        apply(heap, operation)
        apply(scan, operation)
        assert tracked(heap) == tracked(scan)
        assert len(heap._idle) <= 8 * capacity     # stale items are compacted away


def test_capacity_one_keeps_the_busy_record_and_drops_the_newcomer():
    footprint = HotspotFootprint(capacity=1)
    footprint.on_access_start([("t", 1)])
    footprint.get_or_create(("t", 2))       # the only idle record is the new one
    assert list(footprint._entries) == [("t", 1)] and footprint.evictions == 1
    footprint.on_access_end([("t", 1)], committed=True)
    footprint.get_or_create(("t", 3))       # now the old record is idle and older
    assert list(footprint._entries) == [("t", 3)] and footprint.evictions == 2


def test_all_busy_falls_back_to_strict_lru():
    heap, scan = HotspotFootprint(capacity=3), ScanFootprint(capacity=3)
    for footprint in (heap, scan):
        footprint.on_access_start([("t", 1), ("t", 2), ("t", 3)])
        footprint.on_access_start([("t", 1)])           # most recently used
        footprint.capacity = 2                          # every record is busy
        footprint._evict_if_needed()
    assert list(heap._entries) == list(scan._entries) == [("t", 3), ("t", 1)]
    assert heap.evictions == scan.evictions == 1


def test_hit_storms_do_not_grow_the_heap():
    footprint = HotspotFootprint(capacity=4)
    for _ in range(1_000):                  # no miss, so no eviction ever runs
        footprint.on_access_start([("t", 1), ("t", 2)])
        footprint.on_access_end([("t", 1), ("t", 2)], committed=True)
    assert len(footprint._idle) <= 8 * footprint.capacity
    footprint.on_access_start([("t", 1)])
    for index in range(3, 8):
        footprint.get_or_create(("t", index))
    assert ("t", 1) in footprint and ("t", 2) not in footprint
