"""Availability and recovery metrics for fault-injection runs.

A fault experiment asks three questions the plain aggregates cannot answer:
*when* was the system unable to commit work (the availability timeline), *how
hard* did the fault hit the abort rate (the abort spike), and *how long* after
the repair did throughput come back (time to recover).  :class:`Availability`
counts commits and aborts per time bucket as the
:class:`~repro.metrics.collector.MetricsCollector` records them — one index
computation per completion on a grid allocated up front from the known run
duration — and :class:`AvailabilityReport` derives all three from the buckets.

Completions inside the warm-up window are discarded by the collector and
therefore absent here, so bucketing starts at ``start_ms`` (the collector
passes its ``warmup_ms``) — otherwise the warm-up buckets would be
structurally empty and dilute every derived metric.  Fault plans should
schedule their first event after the warm-up (the registered fault scenarios
do).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass
class AvailabilityReport:
    """Per-bucket commit/abort counts over one run, plus derived fault metrics."""

    #: Width of one time bucket in milliseconds.
    bucket_ms: float
    #: ``(bucket_start_ms, committed, aborted)`` triples covering the run.
    buckets: List[Tuple[float, int, int]]

    # ------------------------------------------------------------- derivations
    def availability(self, min_committed: int = 1) -> float:
        """Fraction of buckets in which at least ``min_committed`` txns committed."""
        if not self.buckets:
            return 0.0
        up = sum(1 for _, committed, _ in self.buckets
                 if committed >= min_committed)
        return up / len(self.buckets)

    def abort_spike(self) -> float:
        """Peak per-bucket abort count relative to the mean (1.0 = flat)."""
        aborts = [aborted for _, _, aborted in self.buckets]
        total = sum(aborts)
        if not total:
            return 0.0
        mean = total / len(aborts)
        return max(aborts) / mean

    def throughput_before(self, at_ms: float) -> float:
        """Mean committed-per-second over the buckets entirely before ``at_ms``.

        This is the pre-fault baseline :meth:`time_to_recover_ms` compares
        against; 0.0 when no full bucket precedes ``at_ms``.
        """
        counts = [committed for start, committed, _ in self.buckets
                  if start + self.bucket_ms <= at_ms]
        if not counts:
            return 0.0
        return sum(counts) / len(counts) / (self.bucket_ms / 1000.0)

    def time_to_recover_ms(self, after_ms: float,
                           baseline_tps: Optional[float] = None,
                           fraction: float = 0.5) -> Optional[float]:
        """Time from ``after_ms`` until throughput is back to ``fraction`` of baseline.

        ``after_ms`` is typically the restart/heal time of a fault event.  The
        baseline defaults to the mean committed-per-second before ``after_ms``
        (:meth:`throughput_before`).  Returns ``None`` when throughput never
        recovers within the observed window (or there is no baseline to
        recover to).
        """
        if baseline_tps is None:
            baseline_tps = self.throughput_before(after_ms)
        if baseline_tps <= 0.0:
            return None
        threshold = baseline_tps * fraction * (self.bucket_ms / 1000.0)
        for start, committed, _ in self.buckets:
            if start + self.bucket_ms <= after_ms:
                continue
            if committed >= threshold:
                return max(start - after_ms, 0.0)
        return None

    def to_dict(self) -> Dict:
        """A JSON-serialisable form (used by the CLI output and summaries)."""
        return {
            "bucket_ms": self.bucket_ms,
            "series": [[start, committed, aborted]
                       for start, committed, aborted in self.buckets],
            "availability": self.availability(),
            "abort_spike": self.abort_spike(),
        }


class Availability:
    """Commit/abort counts bucketed at record time on a fixed time grid.

    Buckets span ``[start_ms, duration_ms)`` (O(duration / bucket_ms) memory,
    independent of transaction count), so quiet tail buckets show up as
    unavailable instead of being silently truncated; ``start_ms`` is the
    warm-up boundary so no bucket covers time that could never hold a sample.
    """

    __slots__ = ("bucket_ms", "start_ms", "_committed", "_aborted", "_count")

    def __init__(self, duration_ms: float, bucket_ms: float = 1000.0,
                 start_ms: float = 0.0):
        if bucket_ms <= 0:
            raise ValueError("bucket_ms must be positive")
        if not 0 <= start_ms < duration_ms:
            raise ValueError("start_ms must lie inside [0, duration_ms)")
        span = duration_ms - start_ms
        self._count = max(
            int(span // bucket_ms) + (1 if span % bucket_ms else 0), 1)
        self.bucket_ms = bucket_ms
        self.start_ms = start_ms
        self._committed = [0] * self._count
        self._aborted = [0] * self._count

    def record(self, finished_at_ms: float, committed: bool) -> None:
        """Count one transaction completion (clamped onto the grid)."""
        index = int((finished_at_ms - self.start_ms) // self.bucket_ms)
        if index < 0:
            index = 0
        elif index >= self._count:
            index = self._count - 1
        if committed:
            self._committed[index] += 1
        else:
            self._aborted[index] += 1

    def report(self) -> AvailabilityReport:
        """The accumulated buckets as an :class:`AvailabilityReport`."""
        buckets = [(self.start_ms + index * self.bucket_ms,
                    self._committed[index], self._aborted[index])
                   for index in range(self._count)]
        return AvailabilityReport(bucket_ms=self.bucket_ms, buckets=buckets)


def middleware_of(txn_id: str) -> str:
    """The middleware a transaction ran on, recovered from its id.

    Transaction ids are ``f"{middleware.name}-t{counter}"`` (see
    ``MiddlewareBase.submit``), so per-middleware attribution needs no extra
    field on the result — the collector parses the id when it tracks
    middlewares.
    """
    return txn_id.rsplit("-t", 1)[0]
