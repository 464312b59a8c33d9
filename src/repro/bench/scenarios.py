"""Declarative scenario registry for the experiment layer.

Every paper table/figure is expressed here as a :class:`ScenarioSpec`: a base
:class:`~repro.bench.runner.ExperimentConfig` plus named parameter *axes*
(e.g. ``system x terminals`` or ``contention x system x ratio``).  A scenario
expands into a :class:`SweepSpec`, whose cartesian product of axis values
yields independent, picklable :class:`SweepPoint`\\ s that
:class:`~repro.bench.parallel.SweepRunner` can execute serially or across a
process pool.

Everything that runs a paper figure goes through the registry:

* ``python -m repro.bench`` — the CLI lists scenarios and runs any of them
  with ``--workers/--duration-ms/--terminals/--seed`` overrides;
* the paper-claim tests under ``benchmarks/`` — each derives its figure's
  sweep at :data:`BENCH_SCALE` with ``get_scenario(name).sweep(...)`` and
  asserts the paper's qualitative claims on the ``SweepResult`` itself.

Adding a new scenario is declarative: register a ``ScenarioSpec`` with a base
config, axes and (when an axis does not map 1:1 onto a config field) a
module-level *apply* function — no new runner loop is ever written.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bench.runner import ExperimentConfig
from repro.cluster.fleet import FleetConfig, RetryPolicy, routing_policy_names
from repro.cluster.topology import TopologyConfig
from repro.core.config import GeoTPConfig
from repro.plugins import (
    SYSTEMS,
    drain_scenario_hooks,
    get_system_plugin,
    load_plugins,
    normalize_system,
    normalize_workload,
)
from repro.recovery.failures import FaultEvent, FaultKind, FaultPlan
from repro.sim.latency import DynamicLatency, RandomLatency
from repro.sim.rng import SeededRNG
from repro.workloads.arrivals import ARRIVAL_PROCESSES, ArrivalConfig
from repro.workloads.tpcc import TPCCConfig
from repro.workloads.ycsb import CONTENTION_SKEW, YCSBConfig

# Plugins must be registered before the scenario definitions below: the
# ablation variants and capability lookups are derived from the registry.
load_plugins()


# --------------------------------------------------------------------- scales
@dataclass(frozen=True)
class Scale:
    """A reduced-scale preset: how long and how wide each experiment point runs."""

    duration_ms: float
    warmup_ms: float
    terminals: int


#: Default scale of the registered scenarios (EXPERIMENTS.md uses larger values).
QUICK_SCALE = Scale(duration_ms=10_000.0, warmup_ms=2_000.0, terminals=48)
#: Scale shared by the paper-claim tests under ``benchmarks/``.
BENCH_SCALE = Scale(duration_ms=20_000.0, warmup_ms=2_000.0, terminals=32)


# ----------------------------------------------------------------- sweep model
@dataclass(frozen=True)
class Axis:
    """One named sweep dimension.

    ``path`` optionally names the dotted ``ExperimentConfig`` attribute the
    values are written to (e.g. ``"ycsb.skew"``).  Without a path, a value is
    applied automatically when ``name`` is an ``ExperimentConfig`` field;
    otherwise the scenario's *apply* function is responsible for it.
    """

    name: str
    values: Tuple[Any, ...]
    path: Optional[str] = None

    def __post_init__(self) -> None:
        values = tuple(self.values)
        if not values:
            raise ValueError(f"axis {self.name!r} needs at least one value")
        # The system axis is canonicalized at declaration time so aliases
        # (``ScalarDB+``) resolve identically at every entry point and sweep
        # params always carry registry names.
        if self.name == "system" and self.path is None:
            values = tuple(normalize_system(value) for value in values)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class SweepPoint:
    """One expanded experiment point: its axis values and the full config."""

    index: int
    params: Dict[str, Any]
    config: ExperimentConfig


_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}


def set_config_param(config: ExperimentConfig, path: str, value: Any) -> None:
    """Set a dotted attribute path (e.g. ``"ycsb.skew"``) on ``config``."""
    target: Any = config
    parts = path.split(".")
    for part in parts[:-1]:
        target = getattr(target, part)
    if not hasattr(target, parts[-1]):
        raise AttributeError(f"config has no parameter {path!r}")
    setattr(target, parts[-1], value)


@dataclass(frozen=True)
class SweepSpec:
    """A concrete sweep: base config x axes, ready for expansion."""

    name: str
    base: ExperimentConfig
    axes: Tuple[Axis, ...]
    #: Parameters shared by every point, passed to ``apply`` alongside the
    #: axis values (e.g. the fixed distributed ratio of Figure 8).
    fixed: Dict[str, Any] = field(default_factory=dict)
    #: Module-level callable ``(config, params) -> config`` handling axis
    #: names that do not map directly onto config attributes.
    apply: Optional[Callable[[ExperimentConfig, Dict[str, Any]], ExperimentConfig]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names in sweep {self.name!r}")

    def size(self) -> int:
        """Number of experiment points the sweep expands into."""
        total = 1
        for axis in self.axes:
            total *= len(axis.values)
        return total

    def points(self) -> List[SweepPoint]:
        """Expand the cartesian product of all axes, in declaration order.

        Each point gets its own deep copy of the base config, so points are
        independently mutable and safely picklable across worker processes.
        """
        out: List[SweepPoint] = []
        combos = itertools.product(*(axis.values for axis in self.axes))
        for index, combo in enumerate(combos):
            params = dict(self.fixed)
            params.update(zip((axis.name for axis in self.axes), combo))
            config = copy.deepcopy(self.base)
            for axis, value in zip(self.axes, combo):
                path = axis.path
                if path is None and axis.name in _CONFIG_FIELDS:
                    path = axis.name
                if path is not None:
                    set_config_param(config, path, value)
            if self.apply is not None:
                config = self.apply(config, params) or config
            out.append(SweepPoint(index=index, params=params, config=config))
        return out


# ------------------------------------------------------------------- registry
@dataclass(frozen=True)
class ScenarioSpec:
    """A registered, named experiment family (one paper figure or table part)."""

    name: str
    description: str
    base: ExperimentConfig
    axes: Tuple[Axis, ...]
    fixed: Dict[str, Any] = field(default_factory=dict)
    apply: Optional[Callable[[ExperimentConfig, Dict[str, Any]], ExperimentConfig]] = None
    #: Optional family name for generated scenario namespaces (e.g. the
    #: chaos matrix): family members collapse into one summary row in the
    #: registry tables instead of hundreds of individual lines.  Register
    #: the family's description with :func:`register_family`.
    family: Optional[str] = None

    def sweep(self, axes: Optional[Mapping[str, Sequence[Any]]] = None,
              fixed: Optional[Mapping[str, Any]] = None,
              **overrides: Any) -> SweepSpec:
        """Derive a concrete :class:`SweepSpec` from this scenario.

        ``axes`` replaces the values of named axes (axis order is preserved);
        ``fixed`` merges into the scenario's fixed parameters; keyword
        ``overrides`` are written onto a copy of the base config — plain field
        names or dotted paths spelled with ``__`` (``ycsb__skew=1.5``).
        ``None`` overrides are ignored so callers can pass optional knobs
        straight through.
        """
        base = copy.deepcopy(self.base)
        for key, value in overrides.items():
            if value is None:
                continue
            if key == "system":
                value = normalize_system(value)
            elif key == "workload":
                value = normalize_workload(value)
                if value != normalize_workload(base.workload):
                    # The scenario's workload_config belongs to its declared
                    # workload; switching workloads falls back to the new
                    # plugin's dedicated field / default config.
                    base.workload_config = None
            set_config_param(base, key.replace("__", "."), value)
        new_axes = []
        axes = dict(axes or {})
        for axis in self.axes:
            if axis.name in axes:
                new_axes.append(replace(axis, values=tuple(axes.pop(axis.name))))
            else:
                new_axes.append(axis)
        if axes:
            raise KeyError(f"scenario {self.name!r} has no axes {sorted(axes)}")
        merged_fixed = dict(self.fixed)
        merged_fixed.update(fixed or {})
        return SweepSpec(name=self.name, base=base, axes=tuple(new_axes),
                         fixed=merged_fixed, apply=self.apply)


SCENARIOS: Dict[str, ScenarioSpec] = {}

#: Family name -> one-line description, for generated scenario namespaces
#: (the registry tables show one row per family instead of one per member).
SCENARIO_FAMILIES: Dict[str, str] = {}


def register(scenario: ScenarioSpec) -> ScenarioSpec:
    """Add a scenario to the global registry (last registration wins)."""
    SCENARIOS[scenario.name] = scenario
    return scenario


def register_family(name: str, description: str) -> None:
    """Describe a scenario family (see :attr:`ScenarioSpec.family`)."""
    SCENARIO_FAMILIES[name] = description


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        import difflib  # error path only: keep it off `import repro.bench`
        close = difflib.get_close_matches(name, SCENARIOS)
        hint = f"did you mean {', '.join(close)}? " if close else ""
        raise KeyError(f"unknown scenario {name!r}; {hint}`python -m "
                       f"repro.bench list` shows all {len(SCENARIOS)}") from None


def scenario_names() -> List[str]:
    """All registered scenario names, sorted."""
    return sorted(SCENARIOS)


# ------------------------------------------------------------ config factories
def default_ycsb(skew: float = CONTENTION_SKEW["medium"],
                 distributed_ratio: float = 0.2, **kwargs: Any) -> YCSBConfig:
    """The YCSB configuration the registered scenarios default to."""
    return YCSBConfig(skew=skew, distributed_ratio=distributed_ratio, **kwargs)


def _base(system: str = "geotp", scale: Scale = QUICK_SCALE,
          **kwargs: Any) -> ExperimentConfig:
    kwargs.setdefault("ycsb", default_ycsb())
    kwargs.setdefault("terminals", scale.terminals)
    kwargs.setdefault("duration_ms", scale.duration_ms)
    kwargs.setdefault("warmup_ms", scale.warmup_ms)
    return ExperimentConfig(system=system, **kwargs)


# ------------------------------------------------------------- apply functions
# These must stay module-level functions: sweeps reference them by identity
# and the expanded points they produce must remain picklable.

def apply_ycsb_params(config: ExperimentConfig,
                      params: Dict[str, Any]) -> ExperimentConfig:
    """Apply the common YCSB axis names onto ``config.ycsb``."""
    ycsb = config.ycsb
    if "contention" in params:
        ycsb.skew = CONTENTION_SKEW[params["contention"]]
    if "skew" in params:
        ycsb.skew = params["skew"]
    if "ratio" in params:
        ycsb.distributed_ratio = params["ratio"]
    if "length" in params:
        ycsb.operations_per_transaction = params["length"]
    return config


def _apply_fig1(config: ExperimentConfig, params: Dict[str, Any]) -> ExperimentConfig:
    config.topology = TopologyConfig.from_rtts([10.0, float(params["ds2_latency_ms"])])
    return apply_ycsb_params(config, params)


def _apply_fig9(config: ExperimentConfig, params: Dict[str, Any]) -> ExperimentConfig:
    config.tpcc = TPCCConfig(mix={params["txn_type"]: 1.0},
                             distributed_ratio=params["ratio"],
                             warehouses_per_node=4)
    return config


def _apply_fig10_mean(config: ExperimentConfig,
                      params: Dict[str, Any]) -> ExperimentConfig:
    mean = float(params["mean_rtt_ms"])
    config.topology = TopologyConfig.from_rtts([max(mean - 10.0, 1.0), mean,
                                                mean + 10.0])
    return config


def _apply_fig10_std(config: ExperimentConfig,
                     params: Dict[str, Any]) -> ExperimentConfig:
    std = float(params["std_ms"])
    mean = float(params.get("mean_rtt_ms", 40.0))
    config.topology = TopologyConfig.from_rtts([max(mean - std, 1.0), mean,
                                                mean + std])
    return config


#: Base per-link RTTs of the random-latency experiment (Fig. 11a).
FIG11A_BASE_RTTS = (10.0, 27.0, 73.0, 151.0)


def _apply_fig11a(config: ExperimentConfig,
                  params: Dict[str, Any]) -> ExperimentConfig:
    repeat = params["repeat"]
    max_factor = params.get("max_factor", 1.5)
    models = [RandomLatency(base, max_factor=max_factor,
                            rng=SeededRNG(100 + repeat * 10 + i))
              for i, base in enumerate(FIG11A_BASE_RTTS)]
    config.topology = TopologyConfig.from_latency_models(models)
    config.seed = repeat
    return apply_ycsb_params(config, params)


def _apply_fig11b(config: ExperimentConfig,
                  params: Dict[str, Any]) -> ExperimentConfig:
    phase_ms = params["phase_ms"]
    phases = params["phases"]
    rng = SeededRNG(42)
    schedules = []
    for _node in range(4):
        schedule = [(phase * phase_ms, rng.uniform(10.0, 200.0))
                    for phase in range(phases)]
        schedules.append(DynamicLatency(schedule))
    config.topology = TopologyConfig.from_latency_models(schedules)
    config.duration_ms = phase_ms * phases
    config.warmup_ms = phase_ms / 4
    config.timeline_bucket_ms = phase_ms / 4
    # Capability, not name comparison: any system whose plugin advertises
    # active probing gets it when link latencies change outside the workload.
    config.active_probing = get_system_plugin(config.system).supports_active_probing
    return config


def _derive_ablation_builders() -> Dict[str, Tuple[str, Optional[Callable[[], GeoTPConfig]]]]:
    """Variant name -> (system, config factory), derived from the registry.

    Reference systems (``ablation_reference``) run unmodified under their own
    name; every ``SystemPlugin.ablations`` entry contributes a
    ``<system>_<suffix>`` variant, in registration order.  Read straight from
    the registry as it stands at import (builtins and contrib): enumerating
    through ``system_plugins()`` would run the entry-point scan on every
    ``import repro``.
    """
    builders: Dict[str, Tuple[str, Optional[Callable[[], GeoTPConfig]]]] = {}
    plugins = SYSTEMS.plugins()
    for plugin in plugins:
        if plugin.ablation_reference:
            builders[plugin.name] = (plugin.name, None)
    for plugin in plugins:
        for suffix, factory in plugin.ablations.items():
            builders[f"{plugin.name}_{suffix}"] = (plugin.name, factory)
    return builders


#: The Figure 12 ablation variants: variant name -> (system, GeoTP config factory).
ABLATION_BUILDERS = _derive_ablation_builders()


def _apply_fig12(config: ExperimentConfig,
                 params: Dict[str, Any]) -> ExperimentConfig:
    system, geotp_factory = ABLATION_BUILDERS[params["variant"]]
    config.system = system
    config.geotp = geotp_factory() if geotp_factory else None
    return apply_ycsb_params(config, params)


def _apply_fig14_rounds(config: ExperimentConfig,
                        params: Dict[str, Any]) -> ExperimentConfig:
    rounds = params["rounds"]
    config.ycsb.operations_per_transaction = max(6, rounds)
    config.ycsb.rounds = rounds
    return apply_ycsb_params(config, params)


def _apply_fig15(config: ExperimentConfig,
                 params: Dict[str, Any]) -> ExperimentConfig:
    if params["deployment"] == "multi":
        config.topology = TopologyConfig.multi_middleware()
    else:
        config.topology = TopologyConfig.paper_default()
    return config


#: Table I deployment scenarios: per-node SQL dialects.
HETEROGENEOUS_SCENARIOS = {
    "S1": ["mysql", "mysql", "mysql", "mysql"],
    "S2": ["postgresql", "mysql", "postgresql", "mysql"],
    "S3": ["postgresql", "postgresql", "postgresql", "postgresql"],
}


def _apply_table1(config: ExperimentConfig,
                  params: Dict[str, Any]) -> ExperimentConfig:
    dialects = HETEROGENEOUS_SCENARIOS[params["deployment"]]
    config.topology = TopologyConfig.paper_default(dialects=dialects)
    return apply_ycsb_params(config, params)


def _apply_extra_geotp(config: ExperimentConfig,
                       params: Dict[str, Any]) -> ExperimentConfig:
    knobs = {k: v for k, v in params.items()
             if k in ("ewma_alpha", "hotspot_capacity", "admission_max_retries")}
    config.geotp = GeoTPConfig(**knobs)
    return config


# --------------------------------------------------------------- fault family
#: The fault scenarios compare GeoTP against two 2PC baselines; the paper's
#: §V-A recovery protocol runs identically under all three coordinators.
FAULT_SYSTEMS = ("ssp", "ssp_local", "geotp")

#: When the fault strikes / how long it lasts, as fractions of the run
#: duration — so CLI ``--duration-ms`` overrides keep the fault inside the
#: measured window (injection at 40 % sits past the default warm-up at every
#: scale the suite uses).
FAULT_AT_FRACTION = 0.4
FAULT_DURATION_FRACTION = 0.15


def fault_window(duration_ms: float) -> Tuple[float, float]:
    """``(at_ms, duration_ms)`` of the fault for a run of ``duration_ms``."""
    return duration_ms * FAULT_AT_FRACTION, duration_ms * FAULT_DURATION_FRACTION


def _fault_plan(config: ExperimentConfig, kind: FaultKind,
                **kwargs: Any) -> ExperimentConfig:
    at_ms, duration_ms = fault_window(config.duration_ms)
    config.fault_plan = FaultPlan(events=(
        FaultEvent(kind=kind, at_ms=at_ms, duration_ms=duration_ms, **kwargs),))
    return config


def _apply_fault_middleware_crash(config: ExperimentConfig,
                                  params: Dict[str, Any]) -> ExperimentConfig:
    return _fault_plan(config, FaultKind.MIDDLEWARE_CRASH)


def _apply_fault_ds_crash(config: ExperimentConfig,
                          params: Dict[str, Any]) -> ExperimentConfig:
    return _fault_plan(config, FaultKind.DATASOURCE_CRASH, target="ds1")


def _apply_fault_region_outage(config: ExperimentConfig,
                               params: Dict[str, Any]) -> ExperimentConfig:
    return _fault_plan(config, FaultKind.REGION_OUTAGE, target="ds2")


def _apply_fault_latency_spike(config: ExperimentConfig,
                               params: Dict[str, Any]) -> ExperimentConfig:
    return _fault_plan(config, FaultKind.LATENCY_SPIKE, target=None,
                       factor=params.get("factor", 4.0))


# --------------------------------------------------------------- fleet family
#: Systems the fleet scenarios compare (the fleet layer is system-agnostic;
#: two coordinators suffice to show the routing/failover machinery composes
#: with both the 2PC baseline and GeoTP).
FLEET_SYSTEMS = ("ssp", "geotp")

#: Middleware killed by ``fleet_failover`` (the middle one of three).
FLEET_FAILOVER_TARGET = "dm2"


def _apply_fleet_scaleout(config: ExperimentConfig,
                          params: Dict[str, Any]) -> ExperimentConfig:
    """Pin a co-located fleet layout for every K.

    ``TopologyConfig.multi_middleware`` keeps the legacy geo-split layout at
    K=2 (one coordinator remote, the Fig. 15 deployment); the scale-out sweep
    wants the K axis to vary *only* the coordinator count, so every fleet
    size uses coordinators in the client region.
    """
    if config.middleware_count > 1:
        config.topology = TopologyConfig.multi_middleware(
            num_middlewares=config.middleware_count,
            middleware_regions=["beijing"] * config.middleware_count)
    return config


def _apply_fleet_failover(config: ExperimentConfig,
                          params: Dict[str, Any]) -> ExperimentConfig:
    """Kill one of the three fleet middlewares inside the fault window."""
    at_ms, duration_ms = fault_window(config.duration_ms)
    config.fault_plan = FaultPlan(events=(
        FaultEvent(kind=FaultKind.MIDDLEWARE_CRASH, at_ms=at_ms,
                   duration_ms=duration_ms, target=FLEET_FAILOVER_TARGET),))
    return config


# --------------------------------------------------------- registered scenarios
#: The five systems compared in the overall evaluation (Fig. 5).
OVERALL_SYSTEMS = ("ssp", "ssp_local", "scalardb", "scalardb_plus", "geotp")
#: The systems swept against the distributed-transaction ratio (Figs. 7 and 9).
DIST_RATIO_SYSTEMS = ("ssp", "quro", "chiller", "geotp")

register(ScenarioSpec(
    name="fig1b",
    description="Centralized-txn latency vs the DM-DS2 RTT (motivation, Fig. 1b)",
    base=_base("ssp", terminals=8,
               ycsb=default_ycsb(distributed_ratio=0.2, home_node=0,
                                 records_per_node=5_000)),
    axes=(Axis("contention", ("low", "medium")),
          Axis("ds2_latency_ms", (20, 40, 60, 80, 100))),
    apply=_apply_fig1,
))

register(ScenarioSpec(
    name="fig5_overall",
    description="Throughput vs client terminals for the five systems (Fig. 5)",
    base=_base(),
    axes=(Axis("system", OVERALL_SYSTEMS), Axis("terminals", (16, 48, 96))),
))

register(ScenarioSpec(
    name="fig6_breakdown",
    description="Resource proxies and per-phase latency breakdown (Fig. 6)",
    base=_base(),
    axes=(Axis("system", ("ssp", "geotp")),),
))

register(ScenarioSpec(
    name="fig7_dist_ratio_ycsb",
    description="YCSB throughput/latency vs distributed-transaction ratio (Fig. 7)",
    base=_base(),
    axes=(Axis("contention", ("low", "medium", "high")),
          Axis("system", DIST_RATIO_SYSTEMS),
          Axis("ratio", (0.2, 0.6, 1.0))),
    apply=apply_ycsb_params,
))

register(ScenarioSpec(
    name="fig8_latency_cdf",
    description="Latency CDFs with a fixed distributed ratio (Fig. 8)",
    base=_base(),
    axes=(Axis("contention", ("low", "medium", "high")),
          Axis("system", ("ssp", "ssp_local", "geotp"))),
    fixed={"ratio": 0.6},
    apply=apply_ycsb_params,
))

register(ScenarioSpec(
    name="fig9_dist_ratio_tpcc",
    description="TPC-C Payment/NewOrder vs distributed-transaction ratio (Fig. 9)",
    base=_base(workload="tpcc"),
    axes=(Axis("txn_type", ("payment", "new_order")),
          Axis("system", DIST_RATIO_SYSTEMS),
          Axis("ratio", (0.2, 0.6, 1.0))),
    apply=_apply_fig9,
))

register(ScenarioSpec(
    name="fig10_mean_sweep",
    description="Sensitivity to the mean network RTT (Fig. 10a)",
    base=_base(),
    axes=(Axis("mean_rtt_ms", (20, 40, 60, 80)), Axis("system", ("ssp", "geotp"))),
    apply=_apply_fig10_mean,
))

register(ScenarioSpec(
    name="fig10_std_sweep",
    description="Sensitivity to the RTT spread at a fixed mean (Fig. 10b)",
    base=_base(),
    axes=(Axis("std_ms", (0, 20, 40)), Axis("system", ("ssp", "geotp"))),
    apply=_apply_fig10_std,
))

register(ScenarioSpec(
    name="fig11a_random_latency",
    description="Random per-message latency fluctuations (Fig. 11a)",
    base=_base(),
    axes=(Axis("system", ("ssp", "geotp")),
          Axis("ratio", (0.2, 0.6, 1.0)),
          Axis("repeat", (0, 1, 2))),
    fixed={"max_factor": 1.5},
    apply=_apply_fig11a,
))

register(ScenarioSpec(
    name="fig11b_dynamic_latency",
    description="Online adaptivity to scheduled latency changes (Fig. 11b)",
    base=_base(),
    axes=(Axis("system", ("ssp", "geotp")),),
    fixed={"phase_ms": 10_000.0, "phases": 4},
    apply=_apply_fig11b,
))

register(ScenarioSpec(
    name="fig11b_fine",
    description="Dynamic latency with fine-grained 1 s phases over 320 s "
                "(stresses DynamicLatency schedule lookups)",
    base=_base(),
    axes=(Axis("system", ("ssp", "geotp")),),
    fixed={"phase_ms": 1_000.0, "phases": 320},
    apply=_apply_fig11b,
))

register(ScenarioSpec(
    name="fig12_ablation",
    description="O1 / O1-O2 / O1-O3 ablation across skew factors (Fig. 12)",
    base=_base(),
    axes=(Axis("skew", (0.3, 0.9, 1.5)),
          Axis("variant", tuple(ABLATION_BUILDERS))),
    fixed={"ratio": 0.5},
    apply=_apply_fig12,
))

register(ScenarioSpec(
    name="fig13_yugabyte",
    description="Comparison against a YugabyteDB-like database (Fig. 13)",
    base=_base(),
    axes=(Axis("contention", ("low", "medium", "high")),
          Axis("system", ("ssp", "geotp", "yugabyte"))),
    apply=apply_ycsb_params,
))

register(ScenarioSpec(
    name="fig14_length",
    description="Impact of transaction length (Fig. 14a)",
    base=_base(),
    axes=(Axis("system", ("ssp", "geotp")), Axis("length", (5, 15, 25))),
    apply=apply_ycsb_params,
))

register(ScenarioSpec(
    name="fig14_rounds",
    description="Impact of client interaction rounds (Fig. 14b/c)",
    base=_base(),
    axes=(Axis("contention", ("low", "medium")),
          Axis("system", ("ssp", "geotp")),
          Axis("rounds", (1, 3, 6))),
    apply=_apply_fig14_rounds,
))

register(ScenarioSpec(
    name="fig15_multi_region",
    description="Single- vs multi-middleware deployment (Fig. 15)",
    base=_base(),
    axes=(Axis("system", ("ssp", "geotp")),
          Axis("deployment", ("single", "multi"))),
    apply=_apply_fig15,
))

register(ScenarioSpec(
    name="table1_heterogeneous",
    description="Heterogeneous MySQL/PostgreSQL deployments (Table I)",
    base=_base(),
    axes=(Axis("deployment", tuple(HETEROGENEOUS_SCENARIOS)),
          Axis("ratio", (0.25, 0.75)),
          Axis("system", ("ssp", "geotp"))),
    apply=_apply_table1,
))

register(ScenarioSpec(
    name="extra_ewma_alpha",
    description="GeoTP sensitivity to the latency-monitor EWMA alpha",
    base=_base(),
    axes=(Axis("ewma_alpha", (0.2, 0.8)),),
    apply=_apply_extra_geotp,
))

register(ScenarioSpec(
    name="extra_hotspot_capacity",
    description="GeoTP sensitivity to the hotspot-statistics capacity",
    base=_base(ycsb=default_ycsb(skew=CONTENTION_SKEW["high"])),
    axes=(Axis("hotspot_capacity", (64, 4096)),),
    apply=_apply_extra_geotp,
))

register(ScenarioSpec(
    name="extra_admission_retries",
    description="GeoTP sensitivity to the admission-control retry budget",
    base=_base(ycsb=default_ycsb(skew=CONTENTION_SKEW["high"])),
    axes=(Axis("admission_max_retries", (0, 10)),),
    apply=_apply_extra_geotp,
))

register(ScenarioSpec(
    name="fault_middleware_crash",
    description="Crash-and-restart the middleware mid-run; §V-A recovery "
                "resolves the in-doubt branches (fault at 40% of the run, "
                "down for 15%)",
    base=_base(),
    axes=(Axis("system", FAULT_SYSTEMS),),
    apply=_apply_fault_middleware_crash,
))

register(ScenarioSpec(
    name="fault_ds_crash",
    description="Crash-and-restart data source ds1; unprepared branches are "
                "lost, siblings roll back, prepared ones recover",
    base=_base(),
    axes=(Axis("system", FAULT_SYSTEMS),),
    apply=_apply_fault_ds_crash,
))

register(ScenarioSpec(
    name="fault_region_outage",
    description="Cut every link to the ds2 region (messages parked until the "
                "heal); throughput dips and self-recovers without restarts",
    base=_base(),
    axes=(Axis("system", FAULT_SYSTEMS),),
    apply=_apply_fault_region_outage,
))

register(ScenarioSpec(
    name="fault_latency_spike",
    description="Transient 4x latency degradation on every WAN link "
                "(a routing flap, not an outage)",
    base=_base(),
    axes=(Axis("system", FAULT_SYSTEMS),),
    apply=_apply_fault_latency_spike,
))

register(ScenarioSpec(
    name="fleet_scaleout",
    description="Scale-out efficiency of a co-located K-middleware fleet "
                "(K=1..4) vs the single-coordinator baseline",
    base=_base(fleet=FleetConfig(), retry=RetryPolicy()),
    axes=(Axis("system", FLEET_SYSTEMS),
          Axis("middleware_count", (1, 2, 3, 4))),
    apply=_apply_fleet_scaleout,
))

register(ScenarioSpec(
    name="fleet_failover",
    description="Kill one of three fleet middlewares mid-run; terminals "
                "fail over, §V-A recovery resolves the dead coordinator's "
                "in-doubt branches while the survivors serve",
    base=_base(middleware_count=3, fleet=FleetConfig(), retry=RetryPolicy()),
    axes=(Axis("system", FLEET_SYSTEMS),),
    apply=_apply_fleet_failover,
))

register(ScenarioSpec(
    name="fleet_policies",
    description="Routing-policy comparison (round_robin / region_affinity / "
                "least_outstanding) on a three-middleware fleet",
    base=_base(middleware_count=3, fleet=FleetConfig(), retry=RetryPolicy()),
    axes=(Axis("system", ("geotp",)),
          Axis("routing_policy", tuple(routing_policy_names()),
               path="fleet.routing_policy")),
))

# ---------------------------------------------------------- open-system family
#: Systems the open-system load sweeps compare: the plain 2PC baseline, the
#: admission-controlled baseline and GeoTP (which combines admission control
#: with its latency optimisations).
LOAD_SWEEP_SYSTEMS = ("ssp", "scalardb_plus", "geotp")

#: Offered-load axis of ``load_sweep``, in arrivals per simulated second.
#: Calibrated against the default topology/YCSB mix so the sweep brackets
#: every system's knee: all three saturate between 100 and 200 tps (SSP
#: ~100, ScalarDB+ ~120, GeoTP ~170), so the tail points are 2-8x past
#: saturation — goodput plateaus or declines while p99 grows >5x and the
#: client pool sheds most arrivals.
LOAD_SWEEP_RATES = (50.0, 100.0, 200.0, 400.0, 800.0)

#: YCSB table for the open-system families: moderate keyspace, **fully
#: materialised at load time**.  Lazily-created cold rows would otherwise grow
#: the modelled database for the entire run (the zipfian tail keeps finding
#: fresh keys), which a long saturated point cannot distinguish from a
#: middleware leak.  With the table preloaded, database state is identical at
#: every run length and the flat-RSS property being measured is the
#: middleware's and the metrics pipeline's alone.  Contention is governed by
#: the skew, not the table size, so the knee story is unchanged.
def _open_system_ycsb() -> YCSBConfig:
    return default_ycsb(records_per_node=10_000, preload_rows_per_node=10_000)


register(ScenarioSpec(
    name="load_sweep",
    description="Open-system goodput/latency knee: Poisson offered load swept "
                "past every system's saturation point (streaming O(1)-memory "
                "metrics; reports drop/admission counters per point)",
    base=_base(arrival=ArrivalConfig(process="poisson", rate_tps=100.0,
                                     max_clients=256),
               ycsb=_open_system_ycsb()),
    axes=(Axis("system", LOAD_SWEEP_SYSTEMS),
          Axis("rate_tps", LOAD_SWEEP_RATES, path="arrival.rate_tps")),
))

register(ScenarioSpec(
    name="load_shapes",
    description="Arrival-shape comparison at a near-knee mean rate: the same "
                "150 tps offered as steady Poisson, bursty MMPP flash crowds "
                "and a diurnal wave (burstiness, not the mean, drives the "
                "tail)",
    base=_base(arrival=ArrivalConfig(rate_tps=150.0, max_clients=256,
                                     period_ms=8_000.0),
               ycsb=_open_system_ycsb()),
    axes=(Axis("system", ("ssp", "geotp")),
          Axis("process", ARRIVAL_PROCESSES, path="arrival.process")),
))

register(ScenarioSpec(
    name="smoke",
    description="Tiny two-system sweep for CI smoke tests and quick sanity runs",
    base=_base(terminals=4, duration_ms=2_500.0, warmup_ms=500.0,
               ycsb=default_ycsb(skew=0.5, records_per_node=1_000,
                                 preload_rows_per_node=200)),
    axes=(Axis("system", ("ssp", "geotp")),),
))


# --------------------------------------------------------------- chaos matrix
# The generated chaos_* namespace (hundreds of fault x latency x arrival x
# workload combinations) plus the graceful-degradation families live in
# repro.recovery.chaos; it imports this module's registry machinery lazily,
# so calling it here — after everything it needs is defined — is safe.
from repro.recovery.chaos import register_chaos_scenarios  # noqa: E402

register_chaos_scenarios()


# ------------------------------------------------------------- plugin scenarios
#: Set once the registry above is fully initialised; plugin modules loaded
#: after this point register their scenarios immediately instead of queueing.
SCENARIOS_READY = True
# Scenarios contributed by plugin modules (repro.contrib, entry points) were
# queued while this module was still importing; register them now.
drain_scenario_hooks()
