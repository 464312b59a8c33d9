"""The geo-scheduler: latency-aware subtransaction start times (§IV-B, Eq. 1–3 & 8).

For every interaction round of a transaction the scheduler computes how long to
postpone the dispatch of each participant's statement batch.  Without the
high-contention optimization the optimal start time is

    t_start(Tij) = max_s(tau_is) - tau_ij                      (Eq. 3)

and with forecasted local execution latencies (O3) it becomes

    t_start(Tij) = max_s(tau_is + dLEL(Tis)) - (tau_ij + dLEL(Tij))   (Eq. 8)

so that every subtransaction finishes its execution-and-prepare phase at the
same moment the slowest one does, which minimises each subtransaction's lock
contention span without lengthening the transaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.forecasting import LocalExecutionForecaster
from repro.core.latency_monitor import NetworkLatencyMonitor


@dataclass
class ScheduleDecision:
    """The scheduler's output for one round of one transaction."""

    #: Postpone delay in milliseconds per participant.
    delays: Dict[str, float] = field(default_factory=dict)
    #: The network latency estimate used per participant.
    latencies: Dict[str, float] = field(default_factory=dict)
    #: The forecasted local execution latency per participant (0 when O3 is off).
    forecasts: Dict[str, float] = field(default_factory=dict)

    @property
    def max_total_latency(self) -> float:
        """max_s (tau_s + dLEL_s) — the round's critical path."""
        if not self.latencies:
            return 0.0
        return max(self.latencies[p] + self.forecasts.get(p, 0.0)
                   for p in self.latencies)


class GeoScheduler:
    """Computes per-participant dispatch postponements."""

    def __init__(self, latency_monitor: NetworkLatencyMonitor,
                 forecaster: Optional[LocalExecutionForecaster] = None,
                 use_forecast: bool = False):
        self.latency_monitor = latency_monitor
        self.forecaster = forecaster
        self.use_forecast = use_forecast and forecaster is not None

    def schedule(self, records_by_participant: Dict[str, list]) -> ScheduleDecision:
        """Schedule one round given each participant's records to access.

        ``records_by_participant`` maps participant name to the list of
        (table, key) record ids its subtransaction will touch this round.
        """
        decision = ScheduleDecision()
        if not records_by_participant:
            return decision

        totals: Dict[str, float] = {}
        for participant, records in records_by_participant.items():
            latency = self.latency_monitor.estimate(participant)
            forecast = 0.0
            if self.use_forecast:
                forecast = self.forecaster.forecast(records)
            decision.latencies[participant] = latency
            decision.forecasts[participant] = forecast
            totals[participant] = latency + forecast

        critical_path = max(totals.values())
        for participant, total in totals.items():
            decision.delays[participant] = max(critical_path - total, 0.0)
        return decision
