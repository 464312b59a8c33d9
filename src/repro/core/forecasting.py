"""Local execution latency forecasting (§IV-C, Eq. 5–8).

The forecaster estimates, for a subtransaction about to be dispatched, how long
it will spend *inside* the data source (lock waits plus statement execution),
by summing the weighted-average latencies of the hot records it will touch.
The estimate is scaled down by a configurable factor before use so that an
over-prediction never turns the postponed subtransaction into the new
bottleneck (the mitigation discussed after Eq. 8).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Tuple

from repro.core.hotspot import HotspotFootprint

RecordId = Tuple[str, Hashable]


class LocalExecutionForecaster:
    """Predicts per-subtransaction local execution latency from hotspot stats."""

    def __init__(self, footprint: HotspotFootprint, scale: float = 1.0,
                 cap_ms: float = float("inf")):
        if scale < 0:
            raise ValueError("scale must be non-negative")
        if cap_ms < 0:
            raise ValueError("cap_ms must be non-negative")
        self.footprint = footprint
        self.scale = scale
        self.cap_ms = cap_ms

    def forecast(self, record_ids: Iterable[RecordId]) -> float:
        """dLEL for a subtransaction accessing ``record_ids`` (Eq. 5, scaled and capped)."""
        raw = self.footprint.forecast_local_latency(record_ids) * self.scale
        return min(raw, self.cap_ms)
