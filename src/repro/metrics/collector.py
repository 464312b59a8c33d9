"""Collection of per-transaction outcomes during an experiment run.

Two collectors share one recording/query API:

* :class:`MetricsCollector` retains every :class:`TransactionSample` — the
  closed-loop default, O(n) memory, exact filtered queries, byte-identical to
  the pre-streaming behaviour (the golden pins depend on it).
* :class:`StreamingMetricsCollector` retains **nothing per transaction**: it
  folds every completion into fixed-size aggregates at record time (reservoir
  latency distributions, pre-allocated availability buckets, incremental
  phase/attribution/abort accounting).  Open-system runs — 10⁶+ transactions
  per point — select it automatically so RSS stays flat with run length.

Derived consumers (availability timelines, fleet attribution, phase
breakdowns) must go through the accessor methods (:meth:`availability_report`,
:meth:`attribution`, :meth:`per_middleware_availability`,
:meth:`phase_breakdown`) rather than iterating ``.samples`` post-hoc: the
accessors dispatch to the retained or streaming representation, so a consumer
written against them works unchanged in both modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common import TransactionResult, TxnOutcome
from repro.metrics.availability import (
    AvailabilityReport,
    StreamingAvailability,
    build_availability,
    middleware_of,
    per_middleware_attribution,
    per_middleware_availability,
)
from repro.metrics.breakdown import PhaseBreakdown
from repro.metrics.percentiles import (
    DEFAULT_RESERVOIR_SIZE,
    LatencyDistribution,
    StreamingLatencyDistribution,
)


@dataclass(slots=True)
class TransactionSample:
    """One completed transaction as seen by a client terminal."""

    txn_id: str
    txn_type: str
    committed: bool
    is_distributed: bool
    latency_ms: float
    finished_at: float
    abort_reason: Optional[str] = None
    phase_breakdown: Optional[Dict[str, float]] = None


class MetricsCollector:
    """Aggregates transaction samples, honouring a warm-up window.

    Samples finishing before ``warmup_ms`` are counted separately and excluded
    from throughput/latency statistics, mirroring how benchmark harnesses
    discard ramp-up measurements.

    The unfiltered aggregates (committed/aborted counts, abort-reason
    histogram) are maintained incrementally on :meth:`record`, so the
    per-query cost no longer grows with the number of samples; filtered
    queries (by transaction type or distribution) still scan.
    """

    __slots__ = ("warmup_ms", "samples", "warmup_samples",
                 "_committed", "_aborted", "_abort_reasons")

    #: Whether per-transaction samples are retained (``False`` on the
    #: streaming subclass); consumers that genuinely need the full sample
    #: list must check this instead of assuming ``.samples`` is populated.
    retains_samples = True

    def __init__(self, warmup_ms: float = 0.0):
        self.warmup_ms = warmup_ms
        self.samples: List[TransactionSample] = []
        self.warmup_samples = 0
        self._committed = 0
        self._aborted = 0
        self._abort_reasons: Dict[str, int] = {}

    # ------------------------------------------------------------- recording
    def record(self, result: TransactionResult, txn_type: str = "generic") -> None:
        """Record the outcome of one transaction."""
        if result.end_time < self.warmup_ms:
            self.warmup_samples += 1
            return
        abort_reason = result.abort_reason.value if result.abort_reason else None
        self.samples.append(TransactionSample(
            txn_id=result.txn_id,
            txn_type=txn_type,
            committed=result.committed,
            is_distributed=result.is_distributed,
            latency_ms=result.latency_ms,
            finished_at=result.end_time,
            abort_reason=abort_reason,
            phase_breakdown=result.phase_breakdown or None,
        ))
        if result.committed:
            self._committed += 1
        else:
            self._aborted += 1
            if abort_reason is not None:
                self._abort_reasons[abort_reason] = (
                    self._abort_reasons.get(abort_reason, 0) + 1)

    # ------------------------------------------------------------ aggregation
    def _filtered(self, committed_only: bool = False, txn_type: Optional[str] = None,
                  distributed: Optional[bool] = None) -> List[TransactionSample]:
        out = self.samples
        if committed_only:
            out = [s for s in out if s.committed]
        if txn_type is not None:
            out = [s for s in out if s.txn_type == txn_type]
        if distributed is not None:
            out = [s for s in out if s.is_distributed == distributed]
        return out

    def committed_count(self, txn_type: Optional[str] = None) -> int:
        """Number of committed transactions after warm-up."""
        if txn_type is None:
            return self._committed
        return len(self._filtered(committed_only=True, txn_type=txn_type))

    def aborted_count(self, txn_type: Optional[str] = None) -> int:
        """Number of aborted transactions after warm-up."""
        if txn_type is None:
            return self._aborted
        return len([s for s in self._filtered(txn_type=txn_type) if not s.committed])

    def abort_rate(self, txn_type: Optional[str] = None) -> float:
        """Fraction of measured transactions that aborted (0 when nothing measured)."""
        if txn_type is None:
            total = len(self.samples)
        else:
            total = len(self._filtered(txn_type=txn_type))
        if total == 0:
            return 0.0
        return self.aborted_count(txn_type) / total

    def throughput_tps(self, measured_duration_ms: float,
                       txn_type: Optional[str] = None) -> float:
        """Committed transactions per second over the measured window."""
        if measured_duration_ms <= 0:
            return 0.0
        return self.committed_count(txn_type) / (measured_duration_ms / 1000.0)

    def latency_distribution(self, committed_only: bool = True,
                             txn_type: Optional[str] = None,
                             distributed: Optional[bool] = None) -> LatencyDistribution:
        """Latency distribution of (by default committed) transactions."""
        samples = self._filtered(committed_only=committed_only, txn_type=txn_type,
                                 distributed=distributed)
        return LatencyDistribution([s.latency_ms for s in samples])

    def average_latency_ms(self, committed_only: bool = True,
                           txn_type: Optional[str] = None,
                           distributed: Optional[bool] = None) -> float:
        """Mean latency of the selected transactions."""
        return self.latency_distribution(committed_only, txn_type, distributed).mean

    def abort_reasons(self) -> Dict[str, int]:
        """Histogram of abort reasons after warm-up (first-seen order)."""
        return dict(self._abort_reasons)

    # ----------------------------------------------- derived-consumer accessors
    # The one sanctioned way to get timelines/attribution/breakdowns out of a
    # collector: retained collectors derive them post-hoc from the samples,
    # the streaming subclass returns its incrementally built aggregates.
    def availability_report(self, duration_ms: float,
                            bucket_ms: float = 1000.0) -> AvailabilityReport:
        """Per-bucket commit/abort timeline over ``[warmup_ms, duration_ms)``."""
        return build_availability(self.samples, duration_ms,
                                  bucket_ms=bucket_ms, start_ms=self.warmup_ms)

    def attribution(self) -> Dict[str, Dict[str, int]]:
        """Commit/abort counts per middleware (sums to the collector totals)."""
        return per_middleware_attribution(self.samples)

    def per_middleware_availability(self, duration_ms: float,
                                    bucket_ms: float = 1000.0
                                    ) -> Dict[str, AvailabilityReport]:
        """One availability timeline per middleware, on a shared bucket grid."""
        return per_middleware_availability(self.samples, duration_ms,
                                           bucket_ms=bucket_ms,
                                           start_ms=self.warmup_ms)

    def phase_breakdown(self) -> PhaseBreakdown:
        """Per-phase latency breakdown of committed transactions."""
        breakdown = PhaseBreakdown()
        breakdown.record_many(s.phase_breakdown for s in self.samples
                              if s.committed)
        return breakdown


def _derive_seed(seed: int, salt: int) -> int:
    """Stable per-reservoir seed derivation (same scheme as ``SeededRNG.spawn``)."""
    return (seed * 1_000_003 + salt) & 0x7FFFFFFF


class StreamingMetricsCollector(MetricsCollector):
    """O(1)-memory collector for open-system (unbounded-length) runs.

    Nothing is retained per transaction: latencies go into fixed-size
    reservoirs (exact count/mean/min/max, estimated percentiles), the
    availability timeline is bucketed at record time on a grid pre-allocated
    from the known run duration, and abort reasons, per-type counts, phase
    breakdowns and per-middleware attribution are all folded incrementally.

    Queries that fundamentally require the full sample list — per-type latency
    distributions, arbitrary filters — raise instead of silently returning
    empty results; everything the runner and the derived-metric consumers use
    is supported.  ``middleware`` tracking (attribution + per-middleware
    timelines, for fleet runs) is opt-in because it costs a txn-id parse per
    record.
    """

    __slots__ = ("duration_ms", "bucket_ms", "track_middlewares",
                 "reservoir_size", "_latency_all", "_latency_central",
                 "_latency_dist", "_availability", "_mw_availability",
                 "_mw_attribution", "_breakdown", "_per_type", "_seed")

    retains_samples = False

    def __init__(self, warmup_ms: float = 0.0,
                 duration_ms: Optional[float] = None,
                 reservoir_size: int = DEFAULT_RESERVOIR_SIZE,
                 bucket_ms: float = 1000.0, seed: int = 0,
                 track_middlewares: bool = False):
        super().__init__(warmup_ms)
        self.duration_ms = duration_ms
        self.bucket_ms = bucket_ms
        self.track_middlewares = track_middlewares
        self.reservoir_size = reservoir_size
        self._seed = seed
        self._latency_all = StreamingLatencyDistribution(
            reservoir_size, seed=_derive_seed(seed, 1))
        self._latency_central = StreamingLatencyDistribution(
            reservoir_size, seed=_derive_seed(seed, 2))
        self._latency_dist = StreamingLatencyDistribution(
            reservoir_size, seed=_derive_seed(seed, 3))
        self._availability = (
            StreamingAvailability(duration_ms, bucket_ms=bucket_ms,
                                  start_ms=warmup_ms)
            if duration_ms is not None else None)
        self._mw_availability: Dict[str, StreamingAvailability] = {}
        self._mw_attribution: Dict[str, Dict[str, int]] = {}
        self._breakdown = PhaseBreakdown()
        self._per_type: Dict[str, List[int]] = {}

    # ------------------------------------------------------------- recording
    def record(self, result: TransactionResult, txn_type: str = "generic") -> None:
        """Fold one transaction outcome into the bounded aggregates."""
        if result.end_time < self.warmup_ms:
            self.warmup_samples += 1
            return
        committed = result.committed
        if committed:
            self._committed += 1
            latency = result.latency_ms
            self._latency_all.add(latency)
            if result.is_distributed:
                self._latency_dist.add(latency)
            else:
                self._latency_central.add(latency)
            if result.phase_breakdown:
                self._breakdown.record(result.phase_breakdown)
        else:
            self._aborted += 1
            if result.abort_reason is not None:
                key = result.abort_reason.value
                self._abort_reasons[key] = self._abort_reasons.get(key, 0) + 1
        entry = self._per_type.get(txn_type)
        if entry is None:
            entry = self._per_type[txn_type] = [0, 0]
        entry[0 if committed else 1] += 1
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
                timeline = self._mw_availability.get(name)
                if timeline is None:
                    timeline = self._mw_availability[name] = (
                        StreamingAvailability(self.duration_ms,
                                              bucket_ms=self.bucket_ms,
                                              start_ms=self.warmup_ms))
                timeline.record(result.end_time, committed)

    # ------------------------------------------------------------ aggregation
    def _filtered(self, committed_only: bool = False, txn_type: Optional[str] = None,
                  distributed: Optional[bool] = None) -> List[TransactionSample]:
        raise RuntimeError(
            "StreamingMetricsCollector retains no per-transaction samples; "
            "use the streaming accessors (latency_distribution, "
            "availability_report, attribution, phase_breakdown) or run with "
            "retained metrics (ExperimentConfig.streaming_metrics=False)")

    def committed_count(self, txn_type: Optional[str] = None) -> int:
        if txn_type is None:
            return self._committed
        entry = self._per_type.get(txn_type)
        return entry[0] if entry else 0

    def aborted_count(self, txn_type: Optional[str] = None) -> int:
        if txn_type is None:
            return self._aborted
        entry = self._per_type.get(txn_type)
        return entry[1] if entry else 0

    def abort_rate(self, txn_type: Optional[str] = None) -> float:
        if txn_type is None:
            total = self._committed + self._aborted
        else:
            entry = self._per_type.get(txn_type)
            total = (entry[0] + entry[1]) if entry else 0
        if total == 0:
            return 0.0
        return self.aborted_count(txn_type) / total

    def latency_distribution(self, committed_only: bool = True,
                             txn_type: Optional[str] = None,
                             distributed: Optional[bool] = None
                             ) -> StreamingLatencyDistribution:
        """The streaming latency distribution for the supported filters.

        Committed-only, optionally split by centralized/distributed — the
        exact set of distributions the runner ships in summaries.  Any other
        filter needs retained samples and raises.
        """
        if not committed_only or txn_type is not None:
            self._filtered(committed_only, txn_type, distributed)  # raises
        if distributed is None:
            return self._latency_all
        return self._latency_dist if distributed else self._latency_central

    # ----------------------------------------------- derived-consumer accessors
    def availability_report(self, duration_ms: float,
                            bucket_ms: float = 1000.0) -> AvailabilityReport:
        if self._availability is None:
            raise RuntimeError("this StreamingMetricsCollector was built "
                               "without duration_ms; no availability timeline "
                               "was accumulated")
        if duration_ms != self.duration_ms or bucket_ms != self.bucket_ms:
            raise ValueError(
                f"streaming availability was accumulated on a "
                f"(duration_ms={self.duration_ms}, bucket_ms={self.bucket_ms}) "
                f"grid; cannot rebucket to (duration_ms={duration_ms}, "
                f"bucket_ms={bucket_ms}) without retained samples")
        return self._availability.report()

    def attribution(self) -> Dict[str, Dict[str, int]]:
        if not self.track_middlewares:
            raise RuntimeError("middleware attribution was not tracked; "
                               "construct with track_middlewares=True")
        return {name: dict(counts)
                for name, counts in self._mw_attribution.items()}

    def per_middleware_availability(self, duration_ms: float,
                                    bucket_ms: float = 1000.0
                                    ) -> Dict[str, AvailabilityReport]:
        if not self.track_middlewares:
            raise RuntimeError("per-middleware timelines were not tracked; "
                               "construct with track_middlewares=True")
        if duration_ms != self.duration_ms or bucket_ms != self.bucket_ms:
            raise ValueError("per-middleware streaming timelines use the "
                             "collector's own (duration_ms, bucket_ms) grid")
        return {name: timeline.report()
                for name, timeline in sorted(self._mw_availability.items())}

    def phase_breakdown(self) -> PhaseBreakdown:
        return self._breakdown
