"""Configuration of the GeoTP optimizations.

The paper's ablation (Figure 12) adds the optimizations in order (its
variants are the ``fig12_ablation`` scenario's table in
:mod:`repro.bench.scenarios`):

* ``O1`` — decentralized prepare + early abort (§IV-A).  Every GeoTP variant
  runs it, so it is GeoTP's protocol rather than a switch;
* ``O2`` — latency-aware scheduling of subtransaction start times (§IV-B);
* ``O3`` — high-contention optimizations: hotspot statistics, local execution
  latency forecasting and late transaction scheduling (§IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class GeoTPConfig:
    """Tunable knobs of the GeoTP coordinator."""

    #: O2: postpone subtransaction dispatch according to per-link latency.
    enable_latency_aware_scheduling: bool = True
    #: O3: hotspot statistics + forecasting + late transaction scheduling.
    enable_high_contention_optimization: bool = True

    #: EWMA coefficient for the network latency monitor (larger = smoother).
    ewma_alpha: float = 0.8

    #: Maximum number of hot records tracked before LRU eviction.
    hotspot_capacity: int = 4096
    #: Scale factor applied to forecasted local execution latency before it is
    #: used for scheduling (the paper scales predictions down when they are
    #: unreliable so a delayed subtransaction never becomes the new bottleneck).
    forecast_scale: float = 0.8
    #: Upper bound on the forecasted local execution latency used for
    #: scheduling.  Observed latencies include lock waits, which can reach the
    #: lock-wait timeout under heavy contention; postponing other
    #: subtransactions by that much would make the forecast itself the
    #: bottleneck, so predictions are clamped (the paper's "scale down the
    #: predicted latency" mitigation).
    forecast_cap_ms: float = 50.0

    #: Maximum admission retries before a transaction is aborted (Alg. 2 line 16).
    admission_max_retries: int = 10
    #: Only apply admission control to transactions whose predicted success
    #: probability is below this threshold... kept at 1.0 to follow Alg. 2.
    admission_threshold: float = 1.0
