"""The footprint evicts exactly what the plain LRU policy evicts.

``HotspotFootprint`` keeps one dict, one recency stamp per entry and a lazily
cleaned heap of idle candidates.  ``ReferenceFootprint`` below writes the
policy down with none of that: on admitting a record past capacity it scans
for the idle entry with the smallest stamp, or the smallest stamp overall when
every entry is busy.  Both are driven through the same operations and must
agree bit for bit on every statistic after each one.
"""

from dataclasses import dataclass

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.bench.runner import ExperimentConfig, run_experiment
from repro.core import GeoTPConfig, HotspotFootprint


@dataclass
class _Entry:
    record_id: tuple
    stamp: int
    w_lat: float = 0.0
    t_cnt: int = 0
    c_cnt: int = 0
    a_cnt: int = 0


class ReferenceFootprint:
    """The eviction policy and Eqs. 4, 5 and 9, by scanning."""

    def __init__(self, capacity, alpha=0.7):
        self.capacity = capacity
        self.alpha = alpha
        self._entries = {}
        self.stamp = 0
        self.evictions = 0

    def get_or_create(self, record_id):
        self.stamp += 1
        entry = self._entries.get(record_id)
        if entry is not None:
            entry.stamp = self.stamp
            return entry
        entry = self._entries[record_id] = _Entry(record_id, self.stamp)
        while len(self._entries) > self.capacity:
            idle = [e for e in self._entries.values() if e.a_cnt == 0]
            victim = min(idle or self._entries.values(), key=lambda e: e.stamp)
            del self._entries[victim.record_id]
            self.evictions += 1
        return entry

    def on_access_start(self, record_ids):
        for record_id in record_ids:
            entry = self.get_or_create(record_id)
            entry.t_cnt += 1
            entry.a_cnt += 1

    def on_access_end(self, record_ids, committed):
        for record_id in record_ids:
            entry = self._entries.get(record_id)
            if entry is not None:
                entry.a_cnt = max(entry.a_cnt - 1, 0)
                entry.c_cnt += committed

    def update_latency(self, record_ids, local_execution_ms):
        if local_execution_ms < 0:
            return
        # Evicted entries keep their place in the share computation.
        touched = [self.get_or_create(record_id) for record_id in record_ids]
        total_weight = sum(entry.w_lat for entry in touched)
        for entry in touched:
            share = (entry.w_lat / total_weight if total_weight > 0
                     else 1.0 / len(touched))
            entry.w_lat = (self.alpha * entry.w_lat
                           + (1.0 - self.alpha) * (local_execution_ms * share))

    def forecast_local_latency(self, record_ids):
        total = 0.0     # a loop, not sum(): 3.12's sum() compensates rounding
        for record_id in record_ids:
            if record_id in self._entries:
                total += self._entries[record_id].w_lat
        return total

    def success_probability(self, record_ids):
        probability = 1.0
        for record_id in record_ids:
            entry = self._entries.get(record_id)
            if entry is not None and entry.t_cnt > 0:
                probability *= (entry.c_cnt / entry.t_cnt) ** max(entry.a_cnt - 1, 0)
        return probability


MAX_CAPACITY = 5
UNIVERSE = [("t", index) for index in range(8)]
RECORDS = st.sampled_from(UNIVERSE)
RECORD_LISTS = st.lists(RECORDS, min_size=1, max_size=4)
OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("touch"), RECORDS),
    st.tuples(st.just("start"), RECORD_LISTS),
    st.tuples(st.just("end"), RECORD_LISTS, st.booleans()),
    st.tuples(st.just("latency"), RECORD_LISTS,
              st.floats(min_value=-1.0, max_value=500.0)),
    st.tuples(st.just("probability"), RECORD_LISTS),
    # A lowered capacity takes effect at the next admission, which may then
    # have to evict past the newcomer: the all-busy case.
    st.tuples(st.just("resize"), st.integers(min_value=1, max_value=MAX_CAPACITY)),
), max_size=120)


def apply(footprint, operation):
    kind, argument = operation[0], operation[1]
    if kind == "touch":
        footprint.get_or_create(argument)
    elif kind == "start":
        footprint.on_access_start(argument)
    elif kind == "end":
        footprint.on_access_end(argument, committed=operation[2])
    elif kind == "latency":
        footprint.update_latency(argument, operation[2])
    elif kind == "probability":
        return footprint.success_probability(argument).hex()
    else:
        footprint.capacity = argument
    return None


def state(footprint):
    """Everything eviction and Eqs. 5 and 9 decide, floats bit for bit."""
    tracked = {record_id: (entry.t_cnt, entry.c_cnt, entry.a_cnt, entry.stamp,
                           entry.w_lat.hex())
               for record_id, entry in footprint._entries.items()}
    return (tracked, footprint.evictions,
            footprint.success_probability(UNIVERSE).hex(),
            footprint.forecast_local_latency(UNIVERSE).hex())


@given(capacity=st.integers(min_value=1, max_value=MAX_CAPACITY),
       operations=OPERATIONS)
@settings(max_examples=300, deadline=None)
def test_heap_evicts_exactly_what_the_scan_evicts(capacity, operations):
    heap, scan = HotspotFootprint(capacity=capacity), ReferenceFootprint(capacity)
    for operation in operations:
        queued = len(heap._idle)
        assert apply(heap, operation) == apply(scan, operation)
        assert state(heap) == state(scan)
        if operation[0] == "start":     # everything it touched is busy now
            assert len(heap._idle) <= queued
        assert len(heap._idle) <= 8 * MAX_CAPACITY  # stale items are compacted


def test_capacity_one_keeps_the_busy_record_and_drops_the_newcomer():
    footprint = HotspotFootprint(capacity=1)
    footprint.on_access_start([("t", 1)])
    footprint.get_or_create(("t", 2))       # the only idle record is the new one
    assert list(footprint._entries) == [("t", 1)] and footprint.evictions == 1
    footprint.on_access_end([("t", 1)], committed=True)
    footprint.get_or_create(("t", 3))       # now the old record is idle and older
    assert list(footprint._entries) == [("t", 3)] and footprint.evictions == 2


def test_all_busy_falls_back_to_strict_lru():
    heap, scan = HotspotFootprint(capacity=3), ReferenceFootprint(capacity=3)
    for footprint in (heap, scan):
        footprint.on_access_start([("t", 1), ("t", 2), ("t", 3)])
        footprint.on_access_start([("t", 1)])   # most recent, yet inserted first
        footprint.capacity = 2
        # The newcomer goes first; then every record is busy and the one with
        # the smallest stamp goes, whatever the insertion order says.
        footprint.on_access_start([("t", 4)])
    assert set(heap._entries) == {("t", 1), ("t", 3)}
    assert state(heap) == state(scan)
    assert heap.evictions == scan.evictions == 2


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


#: perf_ledger-style digests (committed, aborted, events, throughput, p99,
#: abort reasons) of a TPC-C point whose footprint holds 8 records, captured
#: before the footprint lost its ordered dict and AVL index.  At this capacity
#: a run evicts thousands of times, both older idle records and newcomers.
#: ScalarDB+ was re-pinned once when an aborted prepare began restoring the
#: records it had installed (320/56 committed/aborted before, 318/54 after).
SMALL_FOOTPRINT_RUNS = {
    "geotp": [268, 4, 19612, "59.55555555555556", "1195.3568323459353",
              [("admission_blocked", 4)]],
    "scalardb_plus": [318, 54, 71614, "70.66666666666667", "564.1999999999999",
                      [("admission_blocked", 6), ("prepare_failed", 48)]],
}


@pytest.mark.parametrize("system", list(SMALL_FOOTPRINT_RUNS))
def test_a_run_that_evicts_constantly_is_pinned(system):
    result = run_experiment(ExperimentConfig(
        system=system, workload="tpcc", terminals=16, duration_ms=5_000.0,
        warmup_ms=500.0, seed=7, geotp=GeoTPConfig(hotspot_capacity=8)),
        keep_cluster=True)
    footprint = result.cluster.middleware.footprint
    result.cluster.close()
    summary = result.summary()
    assert [summary.committed, summary.aborted, summary.events_processed,
            repr(summary.throughput_tps), repr(summary.p99_latency_ms),
            sorted(summary.abort_reasons.items())] == SMALL_FOOTPRINT_RUNS[system]
    assert len(footprint) == 8 and footprint.evictions > 1_000
