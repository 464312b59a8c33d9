"""Measurement utilities: latency/throughput collection, percentiles, breakdowns."""

from repro.metrics.availability import (
    Availability,
    AvailabilityReport,
    middleware_of,
)
from repro.metrics.collector import MetricsCollector
from repro.metrics.percentiles import (
    DEFAULT_RESERVOIR_SIZE,
    LatencyDistribution,
    percentile,
)
from repro.metrics.breakdown import PhaseBreakdown
from repro.metrics.resources import ResourceUsage, process_peak_rss_bytes

__all__ = [
    "Availability",
    "AvailabilityReport",
    "DEFAULT_RESERVOIR_SIZE",
    "LatencyDistribution",
    "MetricsCollector",
    "PhaseBreakdown",
    "ResourceUsage",
    "middleware_of",
    "percentile",
    "process_peak_rss_bytes",
]
