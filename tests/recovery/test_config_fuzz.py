"""Fuzz the configuration space: every drawn run drains with no invariant violation.

Each example draws a whole experiment and runs it:

* a system (all nine) and a workload (YCSB, TPC-C or the contrib e-commerce
  sessions), 1-8 terminals, a 1.5 s or 3 s run, a skew, a distributed ratio
  and a seed;
* a latency profile: the paper topology, or a 4- or 12-phase
  ``DynamicLatency`` schedule per data node, its round-trip times drawn;
* an arrival shape: closed terminals, or a Poisson, MMPP or diurnal open
  system offered a rate below every system's knee;
* faults: up to two random events of any kind, target, strike time and heal
  length (one event in three never heals: a heal of 0), or one plan of the
  fault catalogue (``FaultPlan.named``, which brings the composed ``dual``
  and ``cascade``).

Every registered invariant is checked on the result.  A fault run is judged
after its drain, on the end state (see ``FaultInjector.drain_until_ms``).
The checker reads only the result.

Outages and partitions park the messages they cut and deliver them after
the heal.  A region outage that never heals is not drawn: the requests it
parks are never answered, and no system in the model has an RPC timeout, so
every system leaves work live or in doubt under it.  For the same reason a
system with geo-agents is not drawn with a partition that never heals and a
crash of one of its two ends that never heals either: the agents' requests
to the dead end are parked, not refused.  The smallest run of each is pinned
below as an expected failure until the model has that timeout.

The run is derandomized, so tier-1 replays the same examples every time.
Tier-1 runs :data:`TIER1_EXAMPLES` of them; CI's fuzz step passes
``--hypothesis-profile config-fuzz`` (registered in ``tests/conftest.py``)
for a larger budget.  A failing example shrinks on its own (Hypothesis);
every finding is pinned below with ``@example``.
"""

from __future__ import annotations

import contextlib
import functools

import pytest
from hypothesis import Phase, assume, example, find, given, settings
from hypothesis import strategies as st
from hypothesis.errors import NoSuchExample

from repro import ExperimentConfig, TopologyConfig, run_experiment
from repro.bench.scenarios import KNEE_TPS
from repro.plugins import get_system_plugin, system_names
from repro.recovery import FaultEvent, FaultKind, FaultPlan
from repro.recovery.failures import FAULT_NAMES
from repro.recovery.invariants import violations
from repro.sim.latency import DynamicLatency
from repro.workloads.arrivals import ARRIVAL_PROCESSES, ArrivalConfig
from repro.workloads.tpcc import TPCCConfig
from repro.workloads.ycsb import YCSBConfig

#: Examples per tier-1 run (about 10 s on a 2-core host).
TIER1_EXAMPLES = 400
WARMUP_MS = 300.0
DATA_NODES = TopologyConfig.paper_default().node_names()
#: RTT range (ms) of a schedule's phases: it brackets the paper topology's
#: 10-120 ms spread without dwarfing the fault windows.
RTT_RANGE_MS = (15.0, 160.0)
#: Offered rate of the open arrival shapes, below every system's knee
#: (``KNEE_TPS``), so a run measures fault response, not saturation.
OPEN_RATE_TPS = 40.0
OPEN_MAX_CLIENTS = 96


def _budget() -> int:
    """Tier-1's budget, or the ``config-fuzz`` profile's when it is loaded."""
    if settings.default is settings.get_profile("config-fuzz"):
        return settings.default.max_examples
    return TIER1_EXAMPLES


#: The kinds a never-healing event takes: an outage always heals (see the
#: module docstring).
NEVER_HEALING = tuple(kind for kind in FaultKind
                      if kind is not FaultKind.REGION_OUTAGE)


@st.composite
def fault_events(draw, duration_ms: float) -> FaultEvent:
    at_ms = float(draw(st.integers(0, int(duration_ms) - 1)))
    # One event in three never heals (a heal of 0).  Its kind cycles with the
    # strike time instead of being drawn, so every (never heals, kind) pair
    # keeps a floor rate whatever stream Hypothesis draws.
    never_heals = draw(st.integers(0, 2)) == 0
    kind = (NEVER_HEALING[int(at_ms) % len(NEVER_HEALING)] if never_heals
            else draw(st.sampled_from(FaultKind)))
    heal_ms = (0.0 if never_heals
               else float(draw(st.integers(1, int(duration_ms)))))
    node = st.sampled_from(DATA_NODES)
    if kind is FaultKind.MIDDLEWARE_CRASH:
        return FaultEvent(kind=kind, at_ms=at_ms, duration_ms=heal_ms)
    if kind is FaultKind.DATASOURCE_CRASH:
        return FaultEvent(kind=kind, at_ms=at_ms, duration_ms=heal_ms,
                          target=draw(node))
    if kind is FaultKind.LATENCY_SPIKE:
        return FaultEvent(kind=kind, at_ms=at_ms, duration_ms=heal_ms,
                          target=draw(st.none() | node),
                          factor=draw(st.floats(1.0, 8.0)))
    target = draw(node)
    peer = (draw(node.filter(lambda name: name != target))
            if kind is FaultKind.PARTITION else None)
    return FaultEvent(kind=kind, at_ms=at_ms, duration_ms=heal_ms,
                      target=target, peer=peer)


def plan(*events: FaultEvent):
    return FaultPlan(events=events) if events else None


@st.composite
def latency_schedules(draw, duration_ms: float):
    """The paper topology, or a 4- or 12-phase ``DynamicLatency`` schedule
    per data node with drawn round-trip times."""
    phases = draw(st.sampled_from((0, 4, 12)))
    if not phases:
        return None
    rtts = st.lists(st.floats(*RTT_RANGE_MS), min_size=phases,
                    max_size=phases)
    phase_ms = duration_ms / phases
    return TopologyConfig.from_latency_models([
        DynamicLatency([(phase * phase_ms, rtt)
                        for phase, rtt in enumerate(draw(rtts))])
        for _node in DATA_NODES])


def open_arrivals(process: str, duration_ms: float) -> ArrivalConfig:
    # One full diurnal wave fits the run.
    return ArrivalConfig(process=process, rate_tps=OPEN_RATE_TPS,
                         max_clients=OPEN_MAX_CLIENTS,
                         period_ms=duration_ms / 2.0)


@st.composite
def fault_plans(draw, duration_ms: float):
    """Up to two random events, or one plan of the fault catalogue."""
    if draw(st.booleans()):
        return FaultPlan.named(draw(st.sampled_from(FAULT_NAMES)), duration_ms)
    events = draw(st.lists(fault_events(duration_ms), max_size=2))
    try:
        return plan(*events)
    except ValueError:          # a second window over the first's same target
        assume(False)


@st.composite
def configs(draw) -> ExperimentConfig:
    duration_ms = draw(st.sampled_from((1_500.0, 3_000.0)))
    fault_plan = draw(fault_plans(duration_ms))
    topology = draw(latency_schedules(duration_ms))
    process = draw(st.sampled_from((None,) + ARRIVAL_PROCESSES))
    arrival = open_arrivals(process, duration_ms) if process else None
    distributed_ratio = draw(st.floats(0.0, 1.0))
    config = ExperimentConfig(
        system=draw(st.sampled_from(system_names())),
        workload=draw(st.sampled_from(("ycsb", "tpcc", "ecommerce"))),
        topology=topology, arrival=arrival,
        terminals=draw(st.integers(1, 8)),
        duration_ms=duration_ms, warmup_ms=WARMUP_MS,
        ycsb=YCSBConfig(skew=draw(st.floats(0.0, 1.5)),
                        distributed_ratio=distributed_ratio),
        tpcc=TPCCConfig(distributed_ratio=distributed_ratio),
        fault_plan=fault_plan, seed=draw(st.integers(0, 2**16)))
    assume(not cut_off_for_good(config))
    return config


def drawn_events(config: ExperimentConfig):
    return config.fault_plan.events if config.fault_plan else ()


def cut_off_for_good(config: ExperimentConfig) -> bool:
    """A system with geo-agents, a never-healing partition and a never-healing
    crash of one of its ends (see the module docstring)."""
    forever = [event for event in drawn_events(config) if event.duration_ms == 0]
    crashed = {event.target for event in forever
               if event.kind is FaultKind.DATASOURCE_CRASH}
    return get_system_plugin(config.system).needs_agents and any(
        event.kind is FaultKind.PARTITION and crashed & {event.target, event.peer}
        for event in forever)


#: What a drawn config holds on each axis the strategy must keep drawing.
DRAWN = {
    "system": lambda config: {config.system},
    "workload": lambda config: {config.workload},
    "latency phases": lambda config: {
        len(config.topology.data_nodes[0].latency_model.schedule)
        if config.topology else 0},
    "arrival shape": lambda config: {
        config.arrival.process if config.arrival else "closed"},
    "fault kind": lambda config: {
        event.kind for event in drawn_events(config)},
    "catalogue plan": lambda config: {
        name for name in FAULT_NAMES
        if config.fault_plan == FaultPlan.named(name, config.duration_ms)},
    "never heals": lambda config: {
        event.kind for event in drawn_events(config)
        if event.duration_ms == 0},
}
#: Spelled out, not read from the strategy's own constants, so dropping a
#: value there fails the test below.
AXIS_VALUES = (
    [("system", name) for name in system_names()]
    + [("workload", name) for name in ("ycsb", "tpcc", "ecommerce")]
    + [("latency phases", phases) for phases in (0, 4, 12)]
    + [("arrival shape", shape) for shape in ("closed",) + ARRIVAL_PROCESSES]
    + [("fault kind", kind) for kind in FaultKind]
    + [("catalogue plan", name) for name in FAULT_NAMES]
    + [("never heals", kind) for kind in FaultKind
       if kind is not FaultKind.REGION_OUTAGE])


@functools.cache
def drawn_axis_values() -> frozenset:
    """The pairs of :data:`AXIS_VALUES` drawn by one derandomized search of at
    most 500 draws, which stops once it has drawn every pair.

    Run once per session and shared by every case of the test below.
    """
    drawn = set()

    def every_pair_drawn(config):
        drawn.update((axis, value) for axis, values in DRAWN.items()
                     for value in values(config))
        return drawn.issuperset(AXIS_VALUES)

    with contextlib.suppress(NoSuchExample):
        find(configs(), every_pair_drawn,
             settings=settings(database=None, derandomize=True, max_examples=500,
                               phases=[Phase.generate]))
    return frozenset(drawn)


@pytest.mark.parametrize("axis, value", AXIS_VALUES)
def test_the_strategy_draws_every_axis_value(axis, value):
    """An edit that stops drawing a value fails here, by name, not silently."""
    assert (axis, value) in drawn_axis_values()


def test_open_arrivals_stay_below_every_knee():
    assert OPEN_RATE_TPS < min(KNEE_TPS.values())


def pinned(system, workload, terminals, seed, *events) -> ExperimentConfig:
    """A finding: a 3 s run at the default skew and distributed ratio."""
    return ExperimentConfig(system=system, workload=workload,
                            terminals=terminals, duration_ms=3_000.0,
                            warmup_ms=WARMUP_MS, seed=seed,
                            fault_plan=plan(*events))


@example(pinned("geotp", "tpcc", 1, 31, FaultEvent(
    kind=FaultKind.MIDDLEWARE_CRASH, at_ms=374.0, duration_ms=50.0)))
@example(pinned("ssp", "ycsb", 5, 34,
                FaultEvent(kind=FaultKind.DATASOURCE_CRASH, at_ms=325.0,
                           duration_ms=275.0, target="ds1"),
                FaultEvent(kind=FaultKind.MIDDLEWARE_CRASH, at_ms=481.0,
                           duration_ms=119.0)))
@settings(derandomize=True, deadline=None, max_examples=_budget())
@given(configs())
def test_a_drawn_config_drains_with_no_invariant_violation(config):
    summary = run_experiment(config)
    assert violations(summary.invariants) == []


@pytest.mark.xfail(strict=True, reason="a request parked by a never-healing "
                   "outage is never answered: no system has an RPC timeout")
def test_a_request_parked_by_a_never_healing_outage_is_resolved_after_the_drain():
    # The smallest such run: the first request to ds0 is parked by an outage
    # that never heals.  The drain exempts the cut node, but not the
    # one transaction waiting forever for its reply.
    config = ExperimentConfig(
        system="ssp", workload="ycsb", terminals=1, duration_ms=1_500.0,
        warmup_ms=WARMUP_MS, ycsb=YCSBConfig(skew=0.0, distributed_ratio=0.0),
        fault_plan=plan(FaultEvent(kind=FaultKind.REGION_OUTAGE, at_ms=0.0,
                                   duration_ms=0.0, target="ds0")),
        seed=89)
    assert violations(run_experiment(config).invariants) == []


@pytest.mark.xfail(strict=True, reason="a geo-agent's request to a node "
                   "crashed for good behind a never-healing partition is "
                   "parked, never answered: no system has an RPC timeout")
def test_a_partition_to_a_node_crashed_for_good_is_resolved_after_the_drain():
    # ds0 crashes and its link to ds1 is cut, both for good: one transaction
    # stays live and its ds1 branch in doubt.
    config = pinned("geotp", "tpcc", 1, 0, FaultEvent(
        kind=FaultKind.DATASOURCE_CRASH, at_ms=1.0, duration_ms=0.0, target="ds0"),
        FaultEvent(kind=FaultKind.PARTITION, at_ms=2.0, duration_ms=0.0,
                   target="ds0", peer="ds1"))
    assert cut_off_for_good(config)
    assert violations(run_experiment(config).invariants) == []
