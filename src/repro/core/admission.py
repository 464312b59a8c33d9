"""Late transaction scheduling: admission control for hot records (§IV-C, Eq. 9).

Before dispatching a transaction, the middleware predicts the probability that
it will acquire all of its locks: every record contributes
``(c_cnt / t_cnt) ^ max(a_cnt - 1, 0)`` — the chance that all transactions
already queued on the record succeed.  Transactions whose predicted success is
too low are *blocked* (retried after a short backoff) up to a bounded number of
times and then aborted, which both sheds load from hotspots and keeps the
latency forecasts meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, List, Tuple

from repro.core.hotspot import HotspotFootprint
from repro.sim.rng import SeededRNG

RecordId = Tuple[str, Hashable]


@dataclass
class AdmissionDecision:
    """Outcome of one admission attempt."""

    admitted: bool
    success_probability: float
    retries_used: int


class LateTransactionScheduler:
    """Implements Algorithm 2's admission loop (lines 11–18)."""

    #: Wait between admission retries.
    BACKOFF_MS = 5.0

    def __init__(self, footprint: HotspotFootprint, rng: SeededRNG,
                 max_retries: int = 10, threshold: float = 1.0):
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.footprint = footprint
        self.rng = rng
        self.max_retries = max_retries
        self.threshold = threshold
        self.admitted_count = 0
        self.blocked_count = 0
        self.rejected_count = 0

    def evaluate(self, record_ids: Iterable[RecordId]) -> AdmissionDecision:
        """One admission draw without retrying and without counting it.

        Only the tests and the perf ledger's ``core.admission_evaluate_ns``
        micro call it; coordinators (GeoTP and ScalarDB+) admit through
        :meth:`admit`.
        """
        probability = self.footprint.success_probability(record_ids)
        admitted = probability >= self.threshold or self.rng.random() < probability
        return AdmissionDecision(admitted=admitted, success_probability=probability,
                                 retries_used=0)

    def admit(self, env, record_ids: Iterable[RecordId]):
        """Generator: retry with backoff until admitted or retries are exhausted.

        Sleeps ``BACKOFF_MS`` between attempts; returns an
        :class:`AdmissionDecision`.
        """
        ids: List[RecordId] = list(record_ids)
        retries = 0
        while True:
            probability = self.footprint.success_probability(ids)
            if probability >= self.threshold or self.rng.random() < probability:
                self.admitted_count += 1
                return AdmissionDecision(admitted=True,
                                         success_probability=probability,
                                         retries_used=retries)
            if retries >= self.max_retries:
                self.rejected_count += 1
                return AdmissionDecision(admitted=False,
                                         success_probability=probability,
                                         retries_used=retries)
            retries += 1
            self.blocked_count += 1
            yield self.BACKOFF_MS
