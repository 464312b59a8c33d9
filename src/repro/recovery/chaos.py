"""The fault catalogue as a scenario, plus the graceful-degradation families.

:func:`register_chaos_scenarios` registers three scenarios:

* ``chaos`` — every plan of the fault catalogue
  (:data:`~repro.recovery.failures.FAULT_NAMES`: all five ``FaultKind``\\ s
  plus the composed ``dual`` and ``cascade`` plans) against the plain 2PC
  baseline and GeoTP, which run the identical §V-A recovery protocol.
  ``python -m repro.bench chaos`` runs its 14 points and judges each by
  :mod:`repro.recovery.invariants`; the invariant heatmap is drawn from
  that report.
* ``admission_knee`` — admission on/off at and past each admission-capable
  system's measured knee (ROADMAP item 1's graceful-degradation follow-on).
* ``chaos_saturated`` — crashes injected into open-system runs offered
  exactly the knee rate.

Random fault timings, latency schedules, arrival shapes and workloads are
drawn by the config fuzz test (``tests/recovery/test_config_fuzz.py``),
which every invariant judges the same way.

Import discipline: :func:`register_chaos_scenarios` is called *by*
``repro.bench.scenarios`` near the end of its own import, so everything here
imports the bench registry lazily (inside functions) — by then the needed
names exist.  Module-level imports stay outside ``repro.bench``.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.recovery.failures import FAULT_NAMES, FaultPlan
from repro.workloads.arrivals import ArrivalConfig

__all__ = ["KNEE_TPS", "register_chaos_scenarios"]

#: Measured saturation knees under the graceful-degradation base (20 s
#: Poisson runs, medium-skew YCSB, 384-slot pool): the offered rate past
#: which goodput stops tracking offered load and starts falling (see
#: EXPERIMENTS.md "Chaos scenarios").  The graceful-degradation families park
#: themselves exactly here.
KNEE_TPS: Dict[str, float] = {"ssp": 50.0, "scalardb_plus": 120.0,
                              "geotp": 60.0}


# ------------------------------------------------------------ apply functions
# Module-level so expanded sweeps stay picklable across worker processes.
def _apply_chaos(config: Any, params: Dict[str, Any]) -> Any:
    """Install the catalogue plan ``params["fault"]``, windowed on the final
    ``config.duration_ms`` (duration overrides shrink the window with it)."""
    config.fault_plan = FaultPlan.named(params["fault"], config.duration_ms)
    return config


def _apply_admission_knee(config: Any, params: Dict[str, Any]) -> Any:
    """Park the offered rate at (a multiple of) the system's knee and toggle
    the late-transaction admission scheduler."""
    config.arrival.rate_tps = KNEE_TPS[config.system] * params["load_multiple"]
    if params["admission"] == "off":
        from repro.core.config import GeoTPConfig
        if config.geotp is None:
            config.geotp = GeoTPConfig()
        # Threshold 0.0 short-circuits the probability test: every
        # transaction is admitted immediately, no waits, no rejects.
        config.geotp.admission_threshold = 0.0
    return config


def _apply_chaos_saturated(config: Any, params: Dict[str, Any]) -> Any:
    """Crash a component while the open system is offered exactly its knee."""
    config.arrival.rate_tps = KNEE_TPS[config.system]
    return _apply_chaos(config, params)


# --------------------------------------------------------------- registration
def register_chaos_scenarios() -> None:
    """Register ``chaos`` and the graceful-degradation families.

    Called by ``repro.bench.scenarios`` once its own registry machinery is
    defined (just before plugin hooks drain).
    """
    from repro.bench.scenarios import (Axis, ScenarioSpec, _base, default_ycsb,
                                       register)

    register(ScenarioSpec(
        name="chaos",
        description="Every fault-catalogue plan (incl. the composed dual and "
                    "cascade) on ssp vs geotp at smoke scale, judged by the "
                    "robustness invariants (`python -m repro.bench chaos`)",
        base=_base(terminals=4, duration_ms=3_000.0, warmup_ms=600.0,
                   ycsb=default_ycsb(records_per_node=1_000)),
        axes=(Axis("fault", FAULT_NAMES), Axis("system", ("ssp", "geotp"))),
        apply=_apply_chaos,
    ))

    register(ScenarioSpec(
        name="admission_knee",
        description="Graceful degradation at the measured knee: admission "
                    "scheduler on vs off at 1x and 2x each admission-capable "
                    "system's saturation rate (on must hold the goodput band "
                    "past saturation where off collapses)",
        base=_base(arrival=ArrivalConfig(process="poisson", rate_tps=120.0,
                                         max_clients=384),
                   ycsb=default_ycsb(records_per_node=10_000)),
        axes=(Axis("system", ("scalardb_plus", "geotp")),
              Axis("admission", ("on", "off")),
              Axis("load_multiple", (1.0, 2.0))),
        apply=_apply_admission_knee,
    ))

    register(ScenarioSpec(
        name="chaos_saturated",
        description="Crashes at the knee: middleware/datasource crash "
                    "injected into an open-system run offered exactly the "
                    "system's saturation rate (recovery under zero headroom)",
        base=_base(arrival=ArrivalConfig(process="poisson", rate_tps=100.0,
                                         max_clients=256),
                   ycsb=default_ycsb(records_per_node=10_000)),
        axes=(Axis("system", ("ssp", "scalardb_plus", "geotp")),
              Axis("fault", ("mw_crash", "ds_crash"))),
        apply=_apply_chaos_saturated,
    ))
