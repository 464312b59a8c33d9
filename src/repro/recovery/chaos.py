"""Generated chaos-matrix scenarios: faults x latency x arrivals x workloads.

PR 5 made failures declarative (:class:`~repro.recovery.failures.FaultPlan`)
and the fig11b work made link latency a schedule
(:class:`~repro.sim.latency.DynamicLatency`), but every combination still had
to be wired by hand.  This module is the combinator:
:func:`register_chaos_scenarios` crosses

* **fault modes** — every plan of the fault catalogue
  (:data:`~repro.recovery.failures.FAULT_NAMES`: all five ``FaultKind``\\ s
  plus the composed ``dual`` and ``cascade`` plans),
* **latency profiles** — static paper topology, a slow 4-phase drift and a
  12-phase churn of ``DynamicLatency`` schedules,
* **arrival shapes** — the closed terminal loop plus the three open-system
  processes (Poisson / MMPP / diurnal) at a below-knee rate, and
* **workload mixes** — YCSB, TPC-C and the contrib e-commerce sessions,

into generated ``chaos_*`` :class:`~repro.bench.scenarios.ScenarioSpec`
families (each with a two-system axis), registered under the ``"chaos"``
scenario *family* so the registry tables stay readable.  Every generated
point flows through the ordinary sweep/CLI machinery and is judged post-run
by :mod:`repro.recovery.invariants`.

The full product is always registered; the budget is chosen at run time.
:func:`sample_chaos_scenarios` picks a seeded, order-preserving subset of the
registered names for smoke runs (``python -m repro.bench chaos --sample
N``; the CI ``chaos-smoke`` job runs all 252), executed at reduced scale
through ``SweepRunner --workers``.  The same seed picks the same names.

The module also registers the two graceful-degradation families from ROADMAP
item 1's follow-on: ``admission_knee`` (admission on/off at and past each
admission-capable system's measured knee) and ``chaos_saturated`` (crashes
injected into open-system runs offered exactly the knee rate).

Import discipline: :func:`register_chaos_scenarios` is called *by*
``repro.bench.scenarios`` near the end of its own import, so everything here
imports the bench registry lazily (inside functions) — by then the needed
names exist.  Module-level imports stay outside ``repro.bench``.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Tuple

from repro.recovery.failures import FAULT_NAMES, FaultPlan
from repro.sim.latency import DynamicLatency
from repro.sim.rng import SeededRNG
from repro.workloads.arrivals import ArrivalConfig

__all__ = [
    "CHAOS_LATENCY_PROFILES",
    "CHAOS_SHAPES",
    "CHAOS_WORKLOADS",
    "CHAOS_SYSTEMS",
    "KNEE_TPS",
    "register_chaos_scenarios",
    "sample_chaos_scenarios",
    "chaos_scenario_names",
]

# ----------------------------------------------------------------- axis values
# The fault-mode axis is the fault catalogue itself: FAULT_NAMES.

#: Latency-profile axis: ``flat`` keeps the paper topology; ``drift`` and
#: ``churn`` replace it with seeded piecewise-constant schedules (4 and 12
#: phases over the run).
CHAOS_LATENCY_PROFILES: Tuple[str, ...] = ("flat", "drift", "churn")
_LATENCY_PHASES = {"drift": 4, "churn": 12}
#: RTT range the drift/churn schedules draw from (ms) — brackets the paper
#: topology's 10-120ms spread without dwarfing the fault windows.
_LATENCY_RTT_RANGE = (15.0, 160.0)

#: Arrival-shape axis: the closed terminal loop plus the open-system
#: processes at a fixed below-knee offered rate.
CHAOS_SHAPES: Tuple[str, ...] = ("closed", "poisson", "mmpp", "diurnal")
#: Offered rate of the open shapes — below every system's knee (see
#: ``KNEE_TPS``) so chaos points measure fault response, not saturation.
CHAOS_RATE_TPS = 40.0
CHAOS_MAX_CLIENTS = 96

#: Workload-mix axis.  ``ecommerce`` comes from the contrib plugin registry
#: (:mod:`repro.contrib.ecommerce`) — zero core wiring.
CHAOS_WORKLOADS: Tuple[str, ...] = ("ycsb", "tpcc", "ecommerce")

#: System axis of every generated scenario: the plain 2PC baseline against
#: GeoTP (both run the identical §V-A recovery protocol).
CHAOS_SYSTEMS: Tuple[str, ...] = ("ssp", "geotp")

#: Measured saturation knees under the graceful-degradation base (20 s
#: Poisson runs, medium-skew YCSB, 384-slot pool): the offered rate past
#: which goodput stops tracking offered load and starts falling (see
#: EXPERIMENTS.md "Chaos matrix").  The graceful-degradation families park
#: themselves exactly here.
KNEE_TPS: Dict[str, float] = {"ssp": 50.0, "scalardb_plus": 120.0,
                              "geotp": 60.0}

#: Name of the scenario family all generated chaos points register under.
CHAOS_FAMILY = "chaos"

#: Root seed of every generated point's ``chaos_seed`` (its latency schedules).
CHAOS_SEED = 2025


# -------------------------------------------------------------- apply function
# Module-level so expanded sweeps stay picklable across worker processes.
def _apply_chaos(config: Any, params: Dict[str, Any]) -> Any:
    """Materialise one chaos point from its fixed (fault, latency, shape).

    Runs at sweep expansion, so everything derives from the *final*
    ``config.duration_ms`` — smoke-scale overrides shrink the fault windows,
    latency phases and diurnal period with the run.
    """
    duration_ms = config.duration_ms
    config.fault_plan = FaultPlan.named(params["fault"], duration_ms)

    profile = params["latency"]
    if profile != "flat":
        from repro.cluster.topology import TopologyConfig
        phases = _LATENCY_PHASES[profile]
        phase_ms = duration_ms / phases
        rng = SeededRNG(params["chaos_seed"])
        low, high = _LATENCY_RTT_RANGE
        models = []
        for _node in range(4):
            schedule = [(phase * phase_ms, rng.uniform(low, high))
                        for phase in range(phases)]
            models.append(DynamicLatency(schedule))
        config.topology = TopologyConfig.from_latency_models(models)

    shape = params["shape"]
    if shape != "closed":
        config.arrival = ArrivalConfig(
            process=shape, rate_tps=CHAOS_RATE_TPS,
            max_clients=CHAOS_MAX_CLIENTS,
            # One full diurnal wave fits the run at any scale.
            period_ms=duration_ms / 2.0)
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
    config.fault_plan = FaultPlan.named(params["fault"], config.duration_ms)
    return config


def chaos_scenario_names() -> List[str]:
    """All registered ``chaos`` family scenario names, sorted."""
    from repro.bench.scenarios import SCENARIOS
    return sorted(name for name, spec in SCENARIOS.items()
                  if spec.family == CHAOS_FAMILY)


def sample_chaos_scenarios(count: int, seed: int = 0) -> List[str]:
    """A seeded, order-preserving sample of registered chaos scenarios.

    The run-time budget knob: ``python -m repro.bench chaos`` picks 10 of
    the hundreds of generated points by default (CI runs them all); the
    same seed always picks the same ones.
    """
    if count < 1:
        raise ValueError(f"a chaos sample needs at least one scenario "
                         f"(got {count})")
    names = chaos_scenario_names()
    if count >= len(names):
        return names
    keep = sorted(SeededRNG(seed).sample(range(len(names)), count))
    return [names[i] for i in keep]


# --------------------------------------------------------------- registration
def register_chaos_scenarios() -> List[str]:
    """Register the chaos matrix plus the graceful-degradation families.

    Called by ``repro.bench.scenarios`` once its own registry machinery is
    defined (just before plugin hooks drain), so the generated namespace is
    discoverable everywhere the hand-written scenarios are.  Returns the
    generated ``chaos_*`` names in product order.
    """
    from repro.bench.scenarios import (Axis, ScenarioSpec, _base, default_ycsb,
                                       register, register_family)

    register_family(
        CHAOS_FAMILY,
        "Generated chaos matrix: fault modes (incl. composed dual/cascade "
        "plans) x latency profiles x arrival shapes x workload mixes, "
        "each swept over ssp vs geotp and checked by the robustness "
        "invariants")
    root = SeededRNG(CHAOS_SEED)
    names: List[str] = []
    combos = itertools.product(FAULT_NAMES, CHAOS_LATENCY_PROFILES,
                               CHAOS_SHAPES, CHAOS_WORKLOADS)
    for index, (fault, latency, shape, workload) in enumerate(combos):
        name = f"chaos_{fault}_{latency}_{shape}_{workload}"
        register(ScenarioSpec(
            name=name,
            description=(f"Generated chaos point: {fault} fault, {latency} "
                         f"latency, {shape} arrivals, {workload} workload"),
            base=_base(workload=workload),
            axes=(Axis("system", CHAOS_SYSTEMS),),
            fixed={"fault": fault, "latency": latency, "shape": shape,
                   "chaos_seed": root.spawn(index).seed},
            apply=_apply_chaos,
            family=CHAOS_FAMILY,
        ))
        names.append(name)

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

    return names
