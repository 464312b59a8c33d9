"""Collection of per-transaction outcomes during an experiment run.

:class:`MetricsCollector` is the single object a client hands a completion
to.  It retains **nothing per transaction**: every completion is folded at
record time into counters (total, per type, per abort reason), latency
distributions (all / centralized / distributed, plus one per transaction
type), the phase breakdown, the availability grid and — opt-in — the
per-middleware attribution and the throughput timeline.

The only thing that differs between a closed-loop and an open-system run is
``reservoir_size``: ``None`` keeps every latency sample (exact percentiles;
the golden pins are built on it), a capacity bounds each distribution with a
uniform reservoir so memory stays flat over 10⁶+ transactions per point.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common import TransactionResult
from repro.metrics.availability import (
    Availability,
    AvailabilityReport,
    middleware_of,
)
from repro.metrics.breakdown import PhaseBreakdown
from repro.metrics.percentiles import LatencyDistribution
from repro.metrics.timeline import ThroughputTimeline


def _derive_seed(seed: int, salt: int) -> int:
    """Stable per-reservoir seed derivation (same scheme as ``SeededRNG.spawn``)."""
    return (seed * 1_000_003 + salt) & 0x7FFFFFFF


class MetricsCollector:
    """Folds transaction outcomes into aggregates, honouring a warm-up window.

    Completions finishing before ``warmup_ms`` are counted separately
    (``warmup_samples``) and excluded from every statistic, mirroring how
    benchmark harnesses discard ramp-up measurements — except the optional
    ``timeline``, which is the Fig. 11b time series and covers the whole run.

    The availability grid is fixed at construction: ``Availability``'s
    default buckets over ``[warmup_ms, duration_ms)`` (no grid, and no
    :meth:`availability_report`, without ``duration_ms``).
    ``track_middlewares`` (attribution + per-middleware timelines, for fleet
    runs) is opt-in because it costs a txn-id parse per record.
    """

    __slots__ = ("warmup_ms", "duration_ms", "reservoir_size",
                 "track_middlewares", "timeline", "warmup_samples",
                 "_seed", "_committed", "_aborted", "_abort_reasons",
                 "_latency_all", "_latency_central", "_latency_dist",
                 "_per_type", "_breakdown", "_availability",
                 "_mw_availability", "_mw_attribution")

    def __init__(self, warmup_ms: float = 0.0,
                 duration_ms: Optional[float] = None,
                 reservoir_size: Optional[int] = None, seed: int = 0,
                 track_middlewares: bool = False,
                 timeline: Optional[ThroughputTimeline] = None):
        self.warmup_ms = warmup_ms
        self.duration_ms = duration_ms
        self.reservoir_size = reservoir_size
        self.track_middlewares = track_middlewares
        self.timeline = timeline
        self.warmup_samples = 0
        self._seed = seed
        self._committed = 0
        self._aborted = 0
        self._abort_reasons: Dict[str, int] = {}
        self._latency_all = self._new_distribution(1)
        self._latency_central = self._new_distribution(2)
        self._latency_dist = self._new_distribution(3)
        #: txn_type -> [committed, aborted, latency distribution of commits].
        self._per_type: Dict[str, List] = {}
        self._breakdown = PhaseBreakdown()
        self._availability = self._new_availability()
        self._mw_availability: Dict[str, Availability] = {}
        self._mw_attribution: Dict[str, Dict[str, int]] = {}

    def _new_distribution(self, salt: int) -> LatencyDistribution:
        return LatencyDistribution(capacity=self.reservoir_size,
                                   seed=_derive_seed(self._seed, salt))

    def _new_availability(self) -> Optional[Availability]:
        if self.duration_ms is None:
            return None
        return Availability(self.duration_ms, start_ms=self.warmup_ms)

    # ------------------------------------------------------------- recording
    def record(self, result: TransactionResult, txn_type: str = "generic") -> None:
        """Fold the outcome of one transaction into the aggregates."""
        committed = result.committed
        if committed and self.timeline is not None:
            self.timeline.record(result.end_time)
        if result.end_time < self.warmup_ms:
            self.warmup_samples += 1
            return
        entry = self._per_type.get(txn_type)
        if entry is None:
            # Salts 1-3 belong to the three distributions above; types are
            # numbered in first-seen order, which the simulation fixes.
            entry = self._per_type[txn_type] = [
                0, 0, self._new_distribution(4 + len(self._per_type))]
        if committed:
            self._committed += 1
            entry[0] += 1
            latency = result.latency_ms
            self._latency_all.add(latency)
            if result.is_distributed:
                self._latency_dist.add(latency)
            else:
                self._latency_central.add(latency)
            entry[2].add(latency)
            if result.phase_breakdown:
                self._breakdown.record(result.phase_breakdown)
        else:
            self._aborted += 1
            entry[1] += 1
            if result.abort_reason is not None:
                key = result.abort_reason.value
                self._abort_reasons[key] = self._abort_reasons.get(key, 0) + 1
        if self._availability is not None:
            self._availability.record(result.end_time, committed)
        if self.track_middlewares:
            name = middleware_of(result.txn_id)
            counts = self._mw_attribution.get(name)
            if counts is None:
                counts = self._mw_attribution[name] = {"committed": 0,
                                                       "aborted": 0}
            counts["committed" if committed else "aborted"] += 1
            if self._availability is not None:
                grid = self._mw_availability.get(name)
                if grid is None:
                    grid = self._mw_availability[name] = (
                        self._new_availability())
                grid.record(result.end_time, committed)

    # ------------------------------------------------------------ aggregation
    def committed_count(self, txn_type: Optional[str] = None) -> int:
        """Number of committed transactions after warm-up."""
        if txn_type is None:
            return self._committed
        entry = self._per_type.get(txn_type)
        return entry[0] if entry else 0

    def aborted_count(self, txn_type: Optional[str] = None) -> int:
        """Number of aborted transactions after warm-up."""
        if txn_type is None:
            return self._aborted
        entry = self._per_type.get(txn_type)
        return entry[1] if entry else 0

    def abort_rate(self, txn_type: Optional[str] = None) -> float:
        """Fraction of measured transactions that aborted (0 when nothing measured)."""
        aborted = self.aborted_count(txn_type)
        total = self.committed_count(txn_type) + aborted
        if total == 0:
            return 0.0
        return aborted / total

    def throughput_tps(self, measured_duration_ms: float,
                       txn_type: Optional[str] = None) -> float:
        """Committed transactions per second over the measured window."""
        if measured_duration_ms <= 0:
            return 0.0
        return self.committed_count(txn_type) / (measured_duration_ms / 1000.0)

    def latency_distribution(self, txn_type: Optional[str] = None,
                             distributed: Optional[bool] = None
                             ) -> LatencyDistribution:
        """Latency distribution of committed transactions.

        All of them, or those of one transaction type, or the centralized /
        distributed ones — the splits folded at record time.  The two filters
        cannot be combined.
        """
        if txn_type is not None:
            if distributed is not None:
                raise ValueError("latencies are folded per txn_type or per "
                                 "centralized/distributed, not per both")
            entry = self._per_type.get(txn_type)
            return entry[2] if entry else LatencyDistribution()
        if distributed is None:
            return self._latency_all
        return self._latency_dist if distributed else self._latency_central

    def average_latency_ms(self, txn_type: Optional[str] = None,
                           distributed: Optional[bool] = None) -> float:
        """Mean latency of the selected committed transactions."""
        return self.latency_distribution(txn_type, distributed).mean

    def abort_reasons(self) -> Dict[str, int]:
        """Histogram of abort reasons after warm-up (first-seen order)."""
        return dict(self._abort_reasons)

    # ------------------------------------------------------- derived accessors
    def _check_grid(self) -> None:
        if self._availability is None:
            raise RuntimeError("this MetricsCollector was built without "
                               "duration_ms; no availability timeline was "
                               "accumulated")

    def availability_report(self) -> AvailabilityReport:
        """Per-bucket commit/abort timeline over ``[warmup_ms, duration_ms)``."""
        self._check_grid()
        return self._availability.report()

    def attribution(self) -> Dict[str, Dict[str, int]]:
        """Commit/abort counts per middleware (sums to the collector totals)."""
        if not self.track_middlewares:
            raise RuntimeError("middleware attribution was not tracked; "
                               "construct with track_middlewares=True")
        return {name: dict(counts)
                for name, counts in self._mw_attribution.items()}

    def per_middleware_availability(self) -> Dict[str, AvailabilityReport]:
        """One availability timeline per middleware, on the shared bucket grid.

        The per-middleware timelines line up column-for-column with the
        aggregate one — the shape the failover experiments plot (survivors
        picking up the dead coordinator's share, bucket by bucket).
        """
        if not self.track_middlewares:
            raise RuntimeError("per-middleware timelines were not tracked; "
                               "construct with track_middlewares=True")
        self._check_grid()
        return {name: grid.report()
                for name, grid in sorted(self._mw_availability.items())}

    def phase_breakdown(self) -> PhaseBreakdown:
        """Per-phase latency breakdown of committed transactions."""
        return self._breakdown
