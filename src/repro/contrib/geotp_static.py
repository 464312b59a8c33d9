"""GeoTP(static): GeoTP with probing and forecasting frozen (contrib plugin).

An ablation-style system variant that keeps GeoTP's decentralized prepare and
latency-aware scheduling but freezes every *adaptive* input:

* the network latency monitor never updates — scheduling postponements are
  computed from the nominal topology RTTs primed at construction time;
* active probing is disabled (``start_probing`` is a no-op, so the runner's
  probe start on a ``DynamicLatency`` topology does nothing);
* the local-execution-latency forecast and late-transaction admission (O3)
  are switched off.

Comparing ``geotp_static`` against ``geotp`` under fluctuating latencies
isolates the value of GeoTP's online adaptation from the value of its static
latency awareness.  This module is a *plugin*: registering the system
requires zero edits to ``repro.cluster.deployment`` or ``repro.bench.runner``
— the variant shows up in ``python -m repro.bench list --systems`` purely by
living in ``repro.contrib``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.core.config import GeoTPConfig
from repro.core.geotp import GeoTPCoordinator
from repro.plugins import SystemPlugin, register_system


class GeoTPStaticCoordinator(GeoTPCoordinator):
    """GeoTP scheduling on frozen, construction-time latency estimates."""

    system_name = "GeoTP(static)"

    def __init__(self, *args, geotp_config: Optional[GeoTPConfig] = None,
                 **kwargs):
        frozen = replace(geotp_config or GeoTPConfig(),
                         enable_high_contention_optimization=False)
        super().__init__(*args, geotp_config=frozen, **kwargs)

    def start_probing(self) -> None:
        """Probing is frozen: the primed topology RTTs are never refreshed."""

    def record_network_rtt(self, participant: str, rtt_ms: float) -> None:
        """Passive RTT observations are dropped — estimates stay static."""


register_system(SystemPlugin(
    name="geotp_static",
    description="GeoTP with probing/forecasting frozen: schedules on the "
                "nominal topology RTTs and never adapts",
    aliases=("geotp(static)", "geotpstatic"),
    coordinator=GeoTPStaticCoordinator,
    needs_agents=True,
))
