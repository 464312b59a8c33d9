"""GeoTP core: the paper's contribution.

* :mod:`repro.core.geotp` — the GeoTP coordinator (drop-in replacement for the
  base XA coordinator) combining the three optimizations;
* :mod:`repro.core.geo_agent` — the per-data-source geo-agent implementing the
  decentralized prepare and early abort of §IV-A;
* :mod:`repro.core.scheduler` — the latency-aware geo-scheduler of §IV-B;
* :mod:`repro.core.hotspot`, :mod:`repro.core.forecasting`,
  :mod:`repro.core.admission` — the high-contention optimizations of §IV-C;
* :mod:`repro.core.latency_monitor` — EWMA network latency tracking;
* :mod:`repro.core.config` — the O1/O2/O3 switches used by the ablation study.
"""

from repro.core.admission import AdmissionDecision, LateTransactionScheduler
from repro.core.config import GeoTPConfig
from repro.core.forecasting import LocalExecutionForecaster
from repro.core.geo_agent import GeoAgent, GeoAgentConfig
from repro.core.geotp import GeoTPCoordinator
from repro.core.hotspot import HotspotEntry, HotspotFootprint
from repro.core.latency_monitor import NetworkLatencyMonitor
from repro.core.scheduler import GeoScheduler, ScheduleDecision

__all__ = [
    "AdmissionDecision",
    "GeoAgent",
    "GeoAgentConfig",
    "GeoScheduler",
    "GeoTPConfig",
    "GeoTPCoordinator",
    "HotspotEntry",
    "HotspotFootprint",
    "LateTransactionScheduler",
    "LocalExecutionForecaster",
    "NetworkLatencyMonitor",
    "ScheduleDecision",
]
