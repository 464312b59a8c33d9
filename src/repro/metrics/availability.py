"""The run's time grid and the availability and recovery metrics read off it.

:class:`Availability` is a run's one commit/abort grid, which the
:class:`~repro.metrics.collector.MetricsCollector` fills as it records each
completion (one index computation on a grid allocated from the run duration).
Two views read it: the committed-per-second series of Fig. 11b
(:meth:`Availability.series`, the whole run) and :class:`AvailabilityReport`.
A fault experiment asks the report *when* the system could not commit work
(availability), *how hard* the fault hit the abort rate (the abort spike) and
*how long* after the repair throughput came back (time to recover).  The
report starts at ``start_ms`` (the collector's ``warmup_ms``), which the grid
keeps on a bucket edge: warm-up buckets are outside the measured window and
would only dilute every derived metric.  Fault plans should schedule their
first event after the warm-up (the registered fault scenarios do).
"""

from __future__ import annotations

import math
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
    """Commit/abort counts bucketed at record time on one fixed time grid.

    Buckets tile ``[0, duration_ms)`` with an edge at ``start_ms`` (the first
    one may start before 0): O(duration / bucket_ms) memory, independent of
    transaction count, and quiet tail buckets show up as unavailable instead
    of being silently truncated.
    """

    __slots__ = ("bucket_ms", "start_ms", "_lead", "_committed", "_aborted",
                 "_count")

    def __init__(self, duration_ms: float, bucket_ms: float = 1000.0,
                 start_ms: float = 0.0):
        if bucket_ms <= 0:
            raise ValueError("bucket_ms must be positive")
        if not 0 <= start_ms < duration_ms:
            raise ValueError("start_ms must lie inside [0, duration_ms)")
        span = duration_ms - start_ms
        self._lead = math.ceil(start_ms / bucket_ms)   # buckets before start_ms
        self._count = self._lead + max(
            int(span // bucket_ms) + (1 if span % bucket_ms else 0), 1)
        self.bucket_ms = bucket_ms
        self.start_ms = start_ms
        self._committed = [0] * self._count
        self._aborted = [0] * self._count

    def record(self, finished_at_ms: float, committed: bool) -> None:
        """Count one transaction completion (clamped onto the grid)."""
        index = self._lead + int(
            (finished_at_ms - self.start_ms) // self.bucket_ms)
        if index < 0:
            index = 0
        elif index >= self._count:
            index = self._count - 1
        if committed:
            self._committed[index] += 1
        else:
            self._aborted[index] += 1

    def _start_of(self, index: int) -> float:
        return self.start_ms + (index - self._lead) * self.bucket_ms

    def report(self) -> AvailabilityReport:
        """The buckets from ``start_ms`` on as an :class:`AvailabilityReport`."""
        buckets = [(self._start_of(index), self._committed[index],
                    self._aborted[index])
                   for index in range(self._lead, self._count)]
        return AvailabilityReport(bucket_ms=self.bucket_ms, buckets=buckets)

    def series(self) -> List[List[float]]:
        """``[bucket_start_ms, committed per second]`` pairs from the first
        bucket to the last holding a commit (warm-up included)."""
        committed = self._committed
        last = max((index for index, count in enumerate(committed) if count),
                   default=-1)
        return [[self._start_of(index), committed[index] / (self.bucket_ms / 1000.0)]
                for index in range(last + 1)]


def middleware_of(txn_id: str) -> str:
    """The middleware a transaction ran on, recovered from its id.

    Transaction ids are ``f"{middleware.name}-t{counter}"`` (see
    ``MiddlewareBase.submit``), so per-middleware attribution needs no extra
    field on the result — the collector parses the id when it tracks
    middlewares.
    """
    return txn_id.rsplit("-t", 1)[0]
