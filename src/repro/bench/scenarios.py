"""Declarative scenario registry for the experiment layer.

Every paper table/figure is expressed here as a :class:`ScenarioSpec`: a base
:class:`~repro.bench.runner.ExperimentConfig` plus named parameter *axes*
(e.g. ``system x terminals`` or ``contention x system x ratio``).
``scenario.sweep(...)`` derives an overridden copy, and the cartesian product
of its axis values yields independent, picklable :class:`SweepPoint`\\ s that
:class:`~repro.bench.parallel.SweepRunner` can execute serially or across a
process pool.  This module is the one place a scenario is declared: the
paper's figures, the fault and chaos families, and the scenarios over the
``repro.contrib`` systems and workloads are all rows below.

Everything that runs a paper figure goes through the registry:

* ``python -m repro.bench`` — the CLI lists scenarios and runs any of them
  with ``--workers/--duration-ms/--terminals/--seed`` overrides;
* the paper-claim tests under ``benchmarks/`` — each derives its figure's
  sweep at :data:`BENCH_SCALE` with ``get_scenario(name).sweep(...)`` and
  asserts the paper's qualitative claims on the ``SweepResult`` itself.

Adding a new scenario is declarative: register a ``ScenarioSpec`` with a base
config and axes, each axis naming the config path its values set (through a
label table when a label stands for a value, as ``contention`` stands for a
skew).  A module-level *apply* function is left for what no single axis
value decides — a fault window on the final duration, a system's knee rate,
a latency schedule built from several parameters.  No new runner loop is
ever written.  Code that wants a scenario of its own calls :func:`register`
after import.
"""

from __future__ import annotations

import copy
import functools
import itertools
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bench.cache import canonical_repr
from repro.bench.runner import ExperimentConfig
from repro.cluster.fleet import FleetConfig, RetryPolicy, routing_policy_names
from repro.cluster.topology import TopologyConfig
from repro.core.config import GeoTPConfig
from repro.contrib.ecommerce import EcommerceConfig
from repro.contrib.smallbank import SmallBankConfig
from repro.plugins import load_plugins, normalize_system, normalize_workload
from repro.recovery.failures import FAULT_NAMES, FaultPlan
from repro.sim.latency import DynamicLatency, RandomLatency
from repro.sim.rng import SeededRNG
from repro.workloads.arrivals import ARRIVAL_PROCESSES, ArrivalConfig
from repro.workloads.tpcc import TPCCConfig
from repro.workloads.ycsb import CONTENTION_SKEW, YCSBConfig

# Plugins must be registered before the scenario definitions below: their
# system axes resolve through the registry.
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
_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}


@dataclass(frozen=True)
class Axis:
    """One named sweep dimension and the config path its values set.

    ``path`` is the dotted ``ExperimentConfig`` attribute each value is
    written to (e.g. ``"ycsb.skew"``); it defaults to ``name`` when that is an
    ``ExperimentConfig`` field.  A *labelled* axis also carries ``table``: its
    values are labels, and each point gets a deep copy of ``table[label]`` at
    ``path`` (``contention="high"`` sets ``ycsb.skew`` to
    ``CONTENTION_SKEW["high"]``).  An axis without a path only labels its
    points for the scenario's *apply* function.
    """

    name: str
    values: Tuple[Any, ...]
    path: Optional[str] = None
    table: Optional[Mapping[Any, Any]] = None

    def __post_init__(self) -> None:
        values = tuple(self.values)
        if not values:
            raise ValueError(f"axis {self.name!r} needs at least one value")
        path = self.path
        if path is None and self.name in _CONFIG_FIELDS:
            path = self.name
        if self.table is not None:
            if path is None:
                raise ValueError(f"labelled axis {self.name!r} needs a path")
            unknown = [value for value in values if value not in self.table]
            if unknown:
                raise ValueError(f"axis {self.name!r} has no labels {unknown}; "
                                 f"its labels are {list(self.table)}")
        # The system axis is canonicalized at declaration time so aliases
        # (``ScalarDB+``) resolve identically at every entry point and sweep
        # params always carry registry names.
        if path == "system":
            values = tuple(normalize_system(value) for value in values)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "path", path)


@dataclass(frozen=True)
class SweepPoint:
    """One expanded experiment point: its axis values and the full config."""

    index: int
    params: Dict[str, Any]
    config: ExperimentConfig


def set_config_param(config: ExperimentConfig, path: str, value: Any) -> None:
    """Set a dotted attribute path (e.g. ``"ycsb.skew"``) on ``config``."""
    target: Any = config
    parts = path.split(".")
    for part in parts[:-1]:
        target = getattr(target, part)
    if not hasattr(target, parts[-1]):
        raise AttributeError(f"config has no parameter {path!r}")
    setattr(target, parts[-1], value)


def _canonical_at(config: ExperimentConfig, path: str) -> str:
    """The canonical form of the value at ``path`` (``None`` past a gap)."""
    target: Any = config
    for part in path.split("."):
        target = getattr(target, part, None)
    return canonical_repr(target)


# ------------------------------------------------------------------- registry
@dataclass(frozen=True)
class ScenarioSpec:
    """A named experiment family (one paper figure or table part): a base
    config x axes, ready for expansion.  :meth:`sweep` derives an overridden
    copy, :meth:`points` expands it."""

    name: str
    base: ExperimentConfig
    axes: Tuple[Axis, ...]
    description: str = ""
    #: Parameters shared by every point, passed to ``apply`` alongside the
    #: axis values (e.g. the phase schedule of Figure 11b).
    fixed: Dict[str, Any] = field(default_factory=dict)
    #: Module-level callable ``(config, params) -> config`` for what no single
    #: axis path decides (a fault window, a knee rate, a latency schedule).
    apply: Optional[Callable[[ExperimentConfig, Dict[str, Any]], ExperimentConfig]] = None
    #: The config paths :meth:`sweep` overrode; :meth:`points` refuses to
    #: expand when an axis or ``apply`` would overwrite one, wholly or in part.
    overrides: Tuple[str, ...] = ()

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
        Raises ``ValueError`` when an override would be silently dropped,
        wholly or in part: a labelled axis sets its path per point, an axis
        sets a path inside it, or ``apply`` rewrites it.
        """
        for path in self.overrides:
            for axis in self.axes:
                if axis.path is not None and (
                        axis.path.startswith(path + ".")
                        or (axis.table is not None
                            and (path + ".").startswith(axis.path + "."))):
                    raise ValueError(
                        f"scenario {self.name!r}: axis {axis.name!r} sets "
                        f"{axis.path!r} per point, so the override of "
                        f"{path!r} would be ignored")
        out: List[SweepPoint] = []
        combos = itertools.product(*(axis.values for axis in self.axes))
        for index, combo in enumerate(combos):
            params = dict(self.fixed)
            params.update(zip((axis.name for axis in self.axes), combo))
            config = copy.deepcopy(self.base)
            for axis, value in zip(self.axes, combo):
                if axis.table is not None:
                    value = copy.deepcopy(axis.table[value])
                if axis.path is not None:
                    set_config_param(config, axis.path, value)
            if self.apply is not None:
                before = [_canonical_at(config, path) for path in self.overrides]
                config = self.apply(config, params) or config
                for path, seen in zip(self.overrides, before):
                    if _canonical_at(config, path) != seen:
                        raise ValueError(
                            f"scenario {self.name!r} recomputes {path!r} per "
                            f"point, so the override would be ignored")
            out.append(SweepPoint(index=index, params=params, config=config))
        return out

    def sweep(self, axes: Optional[Mapping[str, Sequence[Any]]] = None,
              fixed: Optional[Mapping[str, Any]] = None,
              **overrides: Any) -> "ScenarioSpec":
        """An overridden copy of this scenario.

        ``axes`` replaces the values of named axes (axis order is preserved);
        ``fixed`` merges into the scenario's fixed parameters; keyword
        ``overrides`` are written onto a copy of the base config — plain field
        names or dotted paths spelled with ``__`` (``ycsb__skew=1.5``).  An
        override naming an axis (by name, or a plain axis by path) collapses
        that axis to the single given value instead.  ``None`` overrides are
        ignored so callers can pass optional knobs straight through.
        """
        axes = dict(axes or {})
        by_key = {axis.name: axis for axis in self.axes}
        by_key.update((axis.path, axis) for axis in self.axes
                      if axis.path is not None and axis.table is None)
        base = copy.deepcopy(self.base)
        paths = list(self.overrides)
        for key, value in overrides.items():
            if value is None:
                continue
            path = key.replace("__", ".")
            axis = by_key.get(path)
            if axis is not None:
                axes[axis.name] = (value,)
                if axis.table is None and axis.path is not None:
                    paths.append(axis.path)
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
            set_config_param(base, path, value)
            paths.append(path)
        new_axes = []
        for axis in self.axes:
            if axis.name in axes:
                new_axes.append(replace(axis, values=tuple(axes.pop(axis.name))))
            else:
                new_axes.append(axis)
        if axes:
            raise KeyError(f"scenario {self.name!r} has no axes {sorted(axes)}")
        return replace(self, base=base, axes=tuple(new_axes),
                       fixed={**self.fixed, **(fixed or {})},
                       overrides=tuple(dict.fromkeys(paths)))


SCENARIOS: Dict[str, ScenarioSpec] = {}


def register(scenario: ScenarioSpec) -> ScenarioSpec:
    """Add a scenario to the global registry (last registration wins)."""
    SCENARIOS[scenario.name] = scenario
    return scenario


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


# ------------------------------------------------------------- label tables
#: Fig. 1b: the DM-DS2 RTT, with DS1 10 ms from the middleware.
FIG1_TOPOLOGIES = {ms: TopologyConfig.from_rtts([10.0, float(ms)])
                   for ms in (20, 40, 60, 80, 100)}

#: Fig. 10a: three data nodes at mean - 10, mean and mean + 10 ms.
FIG10_MEAN_TOPOLOGIES = {
    mean: TopologyConfig.from_rtts([max(mean - 10.0, 1.0), float(mean),
                                    mean + 10.0])
    for mean in (20, 40, 60, 80)}

#: Fig. 10b: three data nodes at 40 - std, 40 and 40 + std ms.
FIG10_STD_TOPOLOGIES = {
    std: TopologyConfig.from_rtts([max(40.0 - std, 1.0), 40.0, 40.0 + std])
    for std in (0, 20, 40)}

#: Fig. 15: one middleware, or one in Beijing and one in London.
FIG15_TOPOLOGIES = {
    "single": TopologyConfig.paper_default(),
    "multi": TopologyConfig.multi_middleware(["beijing", "london"])}

#: Table I deployment scenarios: per-node engines.
HETEROGENEOUS_SCENARIOS = {
    "S1": ["mysql", "mysql", "mysql", "mysql"],
    "S2": ["postgresql", "mysql", "postgresql", "mysql"],
    "S3": ["postgresql", "postgresql", "postgresql", "postgresql"],
}
TABLE1_TOPOLOGIES = {name: TopologyConfig.paper_default(dialects=dialects)
                     for name, dialects in HETEROGENEOUS_SCENARIOS.items()}

#: Fig. 9: each transaction type runs as a single-type TPC-C mix.
FIG9_MIXES = {"payment": {"payment": 1.0}, "new_order": {"new_order": 1.0}}


# ------------------------------------------------------------- apply functions
# These must stay module-level functions: sweeps reference them by identity
# and the expanded points they produce must remain picklable.

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
    return config


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
    return config


def _apply_fig14_rounds(config: ExperimentConfig,
                        params: Dict[str, Any]) -> ExperimentConfig:
    rounds = params["rounds"]
    config.ycsb.operations_per_transaction = max(6, rounds)
    config.ycsb.rounds = rounds
    return config


# --------------------------------------------------------------- fault family
#: The fault scenarios compare GeoTP against two 2PC baselines; the paper's
#: §V-A recovery protocol runs identically under all three coordinators.
FAULT_SYSTEMS = ("ssp", "ssp_local", "geotp")


def _apply_fault(fault: str, config: ExperimentConfig,
                 params: Dict[str, Any],
                 middleware: Optional[str] = None) -> ExperimentConfig:
    """Install the catalogue plan ``fault``, windowed on the final duration.

    Each fault scenario binds its plan name with ``functools.partial``; the
    function is module-level so the bound apply pickles across sweep workers.
    """
    config.fault_plan = FaultPlan.named(fault, config.duration_ms,
                                        middleware=middleware)
    return config


# --------------------------------------------------------------- fleet family
#: Systems the fleet scenarios compare (the fleet layer is system-agnostic;
#: two coordinators suffice to show the routing/failover machinery composes
#: with both the 2PC baseline and GeoTP).
FLEET_SYSTEMS = ("ssp", "geotp")

#: Middleware killed by ``fleet_failover`` (the middle one of three).
FLEET_FAILOVER_TARGET = "dm2"


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
    axes=(Axis("contention", ("low", "medium"), path="ycsb.skew",
               table=CONTENTION_SKEW),
          Axis("ds2_latency_ms", tuple(FIG1_TOPOLOGIES), path="topology",
               table=FIG1_TOPOLOGIES)),
))

register(ScenarioSpec(
    name="fig5_overall",
    description="Throughput vs client terminals for the five systems (Fig. 5)",
    base=_base(),
    axes=(Axis("system", OVERALL_SYSTEMS), Axis("terminals", (16, 48, 96))),
))

register(ScenarioSpec(
    name="fig6_breakdown",
    description="CPU and memory proxies and per-phase latency breakdown (Fig. 6)",
    base=_base(),
    axes=(Axis("system", ("ssp", "geotp")),),
))

register(ScenarioSpec(
    name="fig7_dist_ratio_ycsb",
    description="YCSB throughput/latency vs distributed-transaction ratio (Fig. 7)",
    base=_base(),
    axes=(Axis("contention", ("low", "medium", "high"), path="ycsb.skew",
               table=CONTENTION_SKEW),
          Axis("system", DIST_RATIO_SYSTEMS),
          Axis("ratio", (0.2, 0.6, 1.0), path="ycsb.distributed_ratio")),
))

register(ScenarioSpec(
    name="fig8_latency_cdf",
    description="Latency CDFs with a fixed distributed ratio (Fig. 8)",
    base=_base(ycsb=default_ycsb(distributed_ratio=0.6)),
    axes=(Axis("contention", ("low", "medium", "high"), path="ycsb.skew",
               table=CONTENTION_SKEW),
          Axis("system", ("ssp", "ssp_local", "geotp"))),
))

register(ScenarioSpec(
    name="fig9_dist_ratio_tpcc",
    description="TPC-C Payment/NewOrder vs distributed-transaction ratio (Fig. 9)",
    base=_base(workload="tpcc", tpcc=TPCCConfig(warehouses_per_node=4)),
    axes=(Axis("txn_type", tuple(FIG9_MIXES), path="tpcc.mix",
               table=FIG9_MIXES),
          Axis("system", DIST_RATIO_SYSTEMS),
          Axis("ratio", (0.2, 0.6, 1.0), path="tpcc.distributed_ratio")),
))

register(ScenarioSpec(
    name="fig10_mean_sweep",
    description="Sensitivity to the mean network RTT (Fig. 10a)",
    base=_base(),
    axes=(Axis("mean_rtt_ms", tuple(FIG10_MEAN_TOPOLOGIES), path="topology",
               table=FIG10_MEAN_TOPOLOGIES),
          Axis("system", ("ssp", "geotp"))),
))

register(ScenarioSpec(
    name="fig10_std_sweep",
    description="Sensitivity to the RTT spread at a fixed mean (Fig. 10b)",
    base=_base(),
    axes=(Axis("std_ms", tuple(FIG10_STD_TOPOLOGIES), path="topology",
               table=FIG10_STD_TOPOLOGIES),
          Axis("system", ("ssp", "geotp"))),
))

register(ScenarioSpec(
    name="fig11a_random_latency",
    description="Random per-message latency fluctuations (Fig. 11a)",
    base=_base(),
    axes=(Axis("system", ("ssp", "geotp")),
          Axis("ratio", (0.2, 0.6, 1.0), path="ycsb.distributed_ratio"),
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

#: The Figure 12 variants in the figure's order: name -> (system, the
#: :class:`GeoTPConfig` switches it runs with; ``None`` keeps the system's
#: default config).  SSP is the reference row; every GeoTP variant runs O1.
FIG12_VARIANTS: Dict[str, Tuple[str, Optional[Dict[str, bool]]]] = {
    "ssp": ("ssp", None),
    "geotp_o1": ("geotp", {"enable_latency_aware_scheduling": False,
                           "enable_high_contention_optimization": False}),
    "geotp_o1_o2": ("geotp", {"enable_high_contention_optimization": False}),
    "geotp_o1_o3": ("geotp", {}),
}


def _apply_fig12(config: ExperimentConfig,
                 params: Dict[str, Any]) -> ExperimentConfig:
    system, switches = FIG12_VARIANTS[params["variant"]]
    config.system = system
    config.geotp = None if switches is None else GeoTPConfig(**switches)
    return config


register(ScenarioSpec(
    name="fig12_ablation",
    description="O1 / O1-O2 / O1-O3 ablation across skew factors (Fig. 12)",
    base=_base(ycsb=default_ycsb(distributed_ratio=0.5)),
    axes=(Axis("skew", (0.3, 0.9, 1.5), path="ycsb.skew"),
          Axis("variant", tuple(FIG12_VARIANTS))),
    apply=_apply_fig12,
))

register(ScenarioSpec(
    name="fig13_yugabyte",
    description="Comparison against a YugabyteDB-like database (Fig. 13)",
    base=_base(),
    axes=(Axis("contention", ("low", "medium", "high"), path="ycsb.skew",
               table=CONTENTION_SKEW),
          Axis("system", ("ssp", "geotp", "yugabyte"))),
))

register(ScenarioSpec(
    name="fig14_length",
    description="Impact of transaction length (Fig. 14a)",
    base=_base(),
    axes=(Axis("system", ("ssp", "geotp")),
          Axis("length", (5, 15, 25), path="ycsb.operations_per_transaction")),
))

register(ScenarioSpec(
    name="fig14_rounds",
    description="Impact of client interaction rounds (Fig. 14b/c)",
    base=_base(),
    axes=(Axis("contention", ("low", "medium"), path="ycsb.skew",
               table=CONTENTION_SKEW),
          Axis("system", ("ssp", "geotp")),
          Axis("rounds", (1, 3, 6))),
    apply=_apply_fig14_rounds,
))

register(ScenarioSpec(
    name="fig15_multi_region",
    description="Single- vs multi-middleware deployment (Fig. 15)",
    base=_base(),
    axes=(Axis("system", ("ssp", "geotp")),
          Axis("deployment", tuple(FIG15_TOPOLOGIES), path="topology",
               table=FIG15_TOPOLOGIES)),
))

register(ScenarioSpec(
    name="table1_heterogeneous",
    description="Heterogeneous MySQL/PostgreSQL deployments (Table I)",
    base=_base(),
    axes=(Axis("deployment", tuple(TABLE1_TOPOLOGIES), path="topology",
               table=TABLE1_TOPOLOGIES),
          Axis("ratio", (0.25, 0.75), path="ycsb.distributed_ratio"),
          Axis("system", ("ssp", "geotp"))),
))

register(ScenarioSpec(
    name="extra_ewma_alpha",
    description="GeoTP sensitivity to the latency-monitor EWMA alpha",
    base=_base(geotp=GeoTPConfig()),
    axes=(Axis("ewma_alpha", (0.2, 0.8), path="geotp.ewma_alpha"),),
))

register(ScenarioSpec(
    name="extra_hotspot_capacity",
    description="GeoTP sensitivity to the hotspot-statistics capacity",
    base=_base(ycsb=default_ycsb(skew=CONTENTION_SKEW["high"]),
               geotp=GeoTPConfig()),
    axes=(Axis("hotspot_capacity", (64, 4096), path="geotp.hotspot_capacity"),),
))

register(ScenarioSpec(
    name="extra_admission_retries",
    description="GeoTP sensitivity to the admission-control retry budget",
    base=_base(ycsb=default_ycsb(skew=CONTENTION_SKEW["high"]),
               geotp=GeoTPConfig()),
    axes=(Axis("admission_max_retries", (0, 10),
               path="geotp.admission_max_retries"),),
))

register(ScenarioSpec(
    name="fault_middleware_crash",
    description="Crash-and-restart the middleware mid-run; §V-A recovery "
                "resolves the in-doubt branches (fault at 40% of the run, "
                "down for 15%)",
    base=_base(),
    axes=(Axis("system", FAULT_SYSTEMS),),
    apply=functools.partial(_apply_fault, "mw_crash"),
))

register(ScenarioSpec(
    name="fault_ds_crash",
    description="Crash-and-restart data source ds1; unprepared branches are "
                "lost, siblings roll back, prepared ones recover",
    base=_base(),
    axes=(Axis("system", FAULT_SYSTEMS),),
    apply=functools.partial(_apply_fault, "ds_crash"),
))

register(ScenarioSpec(
    name="fault_region_outage",
    description="Cut every link to the ds2 region (messages parked until the "
                "heal); throughput dips and self-recovers without restarts",
    base=_base(),
    axes=(Axis("system", FAULT_SYSTEMS),),
    apply=functools.partial(_apply_fault, "outage"),
))

register(ScenarioSpec(
    name="fault_latency_spike",
    description="Transient 4x latency degradation on every WAN link "
                "(a routing flap, not an outage)",
    base=_base(),
    axes=(Axis("system", FAULT_SYSTEMS),),
    apply=functools.partial(_apply_fault, "lat_spike"),
))

register(ScenarioSpec(
    name="fleet_scaleout",
    description="Scale-out efficiency of a co-located K-middleware fleet "
                "(K=1..4) vs the single-coordinator baseline",
    base=_base(fleet=FleetConfig(), retry=RetryPolicy()),
    axes=(Axis("system", FLEET_SYSTEMS),
          Axis("middleware_count", (1, 2, 3, 4))),
))

register(ScenarioSpec(
    name="fleet_failover",
    description="Kill one of three fleet middlewares mid-run; terminals "
                "fail over, §V-A recovery resolves the dead coordinator's "
                "in-doubt branches while the survivors serve",
    base=_base(middleware_count=3, fleet=FleetConfig(), retry=RetryPolicy()),
    axes=(Axis("system", FLEET_SYSTEMS),),
    apply=functools.partial(_apply_fault, "mw_crash",
                            middleware=FLEET_FAILOVER_TARGET),
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

register(ScenarioSpec(
    name="load_sweep",
    description="Open-system goodput/latency knee: Poisson offered load swept "
                "past every system's saturation point (bounded-reservoir "
                "metrics; reports drop/admission counters per point)",
    base=_base(arrival=ArrivalConfig(process="poisson", rate_tps=100.0,
                                     max_clients=256),
               ycsb=default_ycsb(records_per_node=10_000)),
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
               ycsb=default_ycsb(records_per_node=10_000)),
    axes=(Axis("system", ("ssp", "geotp")),
          Axis("process", ARRIVAL_PROCESSES, path="arrival.process")),
))

register(ScenarioSpec(
    name="smoke",
    description="Tiny two-system sweep for CI smoke tests and quick sanity runs",
    base=_base(terminals=4, duration_ms=2_500.0, warmup_ms=500.0,
               ycsb=default_ycsb(skew=0.5, records_per_node=1_000)),
    axes=(Axis("system", ("ssp", "geotp")),),
))


# ------------------------------------------------------------ chaos family
# `chaos` runs every catalogue plan (`python -m repro.bench run chaos` judges
# each point by repro.recovery.invariants); `admission_knee` and `chaos_saturated`
# are the graceful-degradation families.  Random fault timings, latency
# schedules, arrival shapes and workloads are the config fuzz test's.
#: Measured saturation knees under the graceful-degradation base (20 s
#: Poisson runs, medium-skew YCSB, 384-slot pool): the offered rate past
#: which goodput stops tracking offered load and starts falling (see
#: EXPERIMENTS.md "Chaos scenarios").  The graceful-degradation families park
#: themselves exactly here.
KNEE_TPS: Dict[str, float] = {"ssp": 50.0, "scalardb_plus": 120.0,
                              "geotp": 60.0}


def _apply_chaos(config: ExperimentConfig,
                 params: Dict[str, Any]) -> ExperimentConfig:
    """Install the catalogue plan ``params["fault"]``."""
    return _apply_fault(params["fault"], config, params)


def _apply_admission_knee(config: ExperimentConfig,
                          params: Dict[str, Any]) -> ExperimentConfig:
    """Park the offered rate at (a multiple of) the system's knee and toggle
    the late-transaction admission scheduler."""
    config.arrival.rate_tps = KNEE_TPS[config.system] * params["load_multiple"]
    if params["admission"] == "off":
        if config.geotp is None:
            config.geotp = GeoTPConfig()
        # Threshold 0.0 short-circuits the probability test: every
        # transaction is admitted immediately, no waits, no rejects.
        config.geotp.admission_threshold = 0.0
    return config


def _apply_chaos_saturated(config: ExperimentConfig,
                           params: Dict[str, Any]) -> ExperimentConfig:
    """Crash a component while the open system is offered exactly its knee."""
    config.arrival.rate_tps = KNEE_TPS[config.system]
    return _apply_chaos(config, params)


register(ScenarioSpec(
    name="chaos",
    description="Every fault-catalogue plan (incl. the composed dual and "
                "cascade) on ssp vs geotp at smoke scale, judged by the "
                "robustness invariants (`python -m repro.bench run chaos`)",
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


# ------------------------------------------------------------ contrib family
# Scenarios over the systems and workloads of repro.contrib.
register(ScenarioSpec(
    name="ecommerce_flash_crowd",
    description="E-commerce sessions under a moving hot-product window: "
                "shift period 0 (static) vs flash crowds every 2000/500 "
                "transactions (contrib workload)",
    base=_base(workload="ecommerce", workload_config=EcommerceConfig()),
    axes=(Axis("system", ("ssp", "geotp")),
          Axis("shift_every", (0, 2_000, 500),
               path="workload_config.hotspot_shift_every")),
))

register(ScenarioSpec(
    name="static_vs_adaptive",
    description="GeoTP vs frozen-estimate GeoTP(static) under random "
                "latency fluctuations (contrib system variant)",
    base=_base(),
    axes=(Axis("system", ("geotp_static", "geotp")),
          Axis("ratio", (0.2, 0.6), path="ycsb.distributed_ratio"),
          Axis("repeat", (0, 1))),
    fixed={"max_factor": 1.5},
    apply=_apply_fig11a,
))

register(ScenarioSpec(
    name="smallbank_dist_ratio",
    description="SmallBank throughput vs distributed-payment ratio "
                "(contrib workload)",
    base=_base(workload="smallbank", workload_config=SmallBankConfig()),
    axes=(Axis("system", ("ssp", "geotp")),
          Axis("ratio", (0.2, 0.6, 1.0),
               path="workload_config.distributed_ratio")),
))
